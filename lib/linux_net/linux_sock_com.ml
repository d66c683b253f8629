(* GLUE CODE — exports Linux inet sockets as OSKit COM components: the
 * oskit_socket contract plus the oskit_asyncio readiness view.  The mirror
 * image of Freebsd_glue.socket_com, which is the point: a reactor written
 * against the COM interfaces drives either stack without knowing which
 * one is underneath (Section 4.4's separability argument, extended to the
 * readiness path).
 *)

let rec socket_com (t : Linux_inet.stack) (s : Linux_inet.sock) : Io_if.socket =
  let enter f =
    (* Every socket call is an entry into the Linux component. *)
    Cost.charge_glue_crossing Socket_call;
    f ()
  in
  let rec view () =
    { Io_if.so_unknown = unknown ();
      so_bind =
        (fun a -> enter (fun () -> Ok (Linux_inet.bind t s ~port:a.Io_if.sin_port)));
      so_listen =
        (fun ~backlog ->
          enter (fun () -> Error.to_result (fun () -> Linux_inet.listen t s ~backlog)));
      so_accept =
        (fun () ->
          enter (fun () ->
              match Linux_inet.accept t s with
              | Ok c ->
                  let peer =
                    { Io_if.sin_addr = c.Linux_inet.raddr; sin_port = c.Linux_inet.rport }
                  in
                  Ok (socket_com t c, peer)
              | Result.Error _ as e -> (e :> (Io_if.socket * Io_if.sockaddr, Error.t) result)));
      so_connect =
        (fun a ->
          enter (fun () -> Linux_inet.connect t s ~dst:a.Io_if.sin_addr ~dport:a.Io_if.sin_port));
      so_send = (fun ~buf ~pos ~len -> enter (fun () -> Linux_inet.send t s ~buf ~pos ~len));
      so_recv = (fun ~buf ~pos ~len -> enter (fun () -> Linux_inet.recv t s ~buf ~pos ~len));
      so_sendto = (fun ~buf:_ ~pos:_ ~len:_ ~dst:_ -> Result.Error Error.Notsup);
      so_recvfrom = (fun ~buf:_ ~pos:_ ~len:_ -> Result.Error Error.Notsup);
      so_getsockname =
        (fun () ->
          enter (fun () -> Ok { Io_if.sin_addr = t.Linux_inet.my_ip; sin_port = s.Linux_inet.lport }));
      so_setsockopt =
        (fun name value ->
          enter (fun () ->
              match name with
              | "nonblock" ->
                  Linux_inet.set_nonblock s (value <> 0);
                  Ok ()
              | "nodelay" ->
                  Linux_inet.set_nodelay s (value <> 0);
                  Ok ()
              | _ -> Result.Error Error.Notsup));
      so_shutdown = (fun () -> enter (fun () -> Ok (Linux_inet.close t s)));
      so_close = (fun () -> enter (fun () -> Ok (Linux_inet.close t s))) }
  (* The readiness view of the same object — forced once so every client
     shares one view; poll is a COM method dispatch, not a full
     component crossing. *)
  and aio =
    lazy
      (Io_if.asyncio_view ~unknown
         ~poll:(fun () ->
           Cost.charge_com_call ();
           Linux_inet.sock_readiness s)
         ~listeners:s.Linux_inet.listeners ~charge:Cost.charge_com_call
         ~readable:(fun () -> Linux_inet.readable_bytes s)
         ())
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.socket_iid, fun () -> view ());
             Iid.B (Io_if.asyncio_iid, fun () -> Lazy.force aio) ]))
  and unknown () = Lazy.force obj in
  view ()
