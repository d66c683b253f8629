type stack = Bsd_socket.stack

(* Private recognition interface, mirroring the Linux glue's. *)
let mbuf_iid : Mbuf.mbuf Iid.t = Iid.declare "oskit.freebsd.mbuf"

let init machine =
  Bsd_socket.create_stack machine ~hwaddr:"\x00\x00\x00\x00\x00\x00" ~name:"fbsd0"

let ifconfig stack ~addr ~mask = Bsd_socket.ifconfig stack ~addr ~mask

(* ---- mbuf <-> bufio ---- *)

let bufio_of_mbuf m =
  let size () = Mbuf.m_length m in
  let rec view () =
    { Io_if.buf_unknown = unknown ();
      buf_size = size;
      buf_read =
        (fun ~buf ~pos ~offset ~amount ->
          let n = max 0 (min amount (size () - offset)) in
          if n > 0 then Mbuf.m_copy_into m ~off:offset ~len:n ~dst:buf ~dst_pos:pos;
          Ok n);
      buf_write =
        (fun ~buf ~pos ~offset ~amount ->
          let n = max 0 (min amount (size () - offset)) in
          if n > 0 then begin
            (* m_write refuses shared (ext) storage; un-share the touched
               range copy-on-write first. *)
            Mbuf.m_makewritable m ~off:offset ~len:n;
            Mbuf.m_write m ~off:offset ~src:buf ~src_pos:pos ~len:n
          end;
          Ok n);
      buf_map =
        (fun () ->
          (* Contiguous only when the chain is a single mbuf. *)
          match m.Mbuf.m_next with
          | None -> Some (m.Mbuf.m_data, m.Mbuf.m_off)
          | Some _ -> None);
      buf_map_v =
        (* Any chain maps as an iovec: each mbuf's data in place. *)
        (fun () -> Some (Mbuf.m_fragments m)) }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.bufio_iid, fun () -> view ());
             Iid.B (mbuf_iid, fun () -> m) ]))
  and unknown () = Lazy.force obj in
  view ()

let mbuf_of_bufio ?cache (io : Io_if.bufio) =
  match Recognition.query ?memo:cache io mbuf_iid with
  | Ok m -> m, false
  | Result.Error _ -> (
      let n = io.Io_if.buf_size () in
      match io.Io_if.buf_map () with
      | Some (backing, start) ->
          (* Contiguous foreign data (e.g. an sk_buff): loan it as external
             mbuf storage — the zero-copy receive path. *)
          Mbuf.m_ext_wrap backing ~off:start ~len:n, false
      | None -> (
          let m = Mbuf.m_getclust () in
          if n > Mbuf.mclbytes then Error.fail Error.Msgsize;
          match io.Io_if.buf_read ~buf:m.Mbuf.m_data ~pos:0 ~offset:0 ~amount:n with
          | Ok k ->
              m.Mbuf.m_len <- k;
              m.Mbuf.m_pkthdr_len <- k;
              Cost.charge_copy k;
              m, true
          | Result.Error e -> Error.fail e))

(* ---- binding the stack to a COM etherdev ---- *)

let open_ether_if stack (ed : Io_if.etherdev) =
  (* The stack reaches its device through the fdev glue: an OSKit kernel,
     which pays every crossing. *)
  Machine.bind_kernel stack.Bsd_socket.machine Machine.Oskit;
  let ifp = stack.Bsd_socket.ifp in
  (* The stack learns the device's station address. *)
  ifp.Netif.if_hwaddr <- ed.Io_if.ed_ethaddr ();
  let recv_netio =
    (* One recognition verdict per receive binding. *)
    let cache = Recognition.create () in
    let input_one io =
      let m, _copied = mbuf_of_bufio ~cache io in
      Netif.ether_input ifp m
    in
    let rec view () =
      { Io_if.nio_unknown = unknown ();
        push =
          (fun ios ->
            (* One glue crossing per push: a frame the interrupt drains
               alone, or a whole NAPI-style poll under the batched glue
               (rx_batch > 1); per-frame unwrap and protocol input are
               the same either way. *)
            Cost.charge_glue_crossing Rx_push;
            if Cost.config.Cost.rx_batch > 1 then Cost.count_rx_poll ~frames:(List.length ios);
            List.iter input_one ios;
            Ok ()) }
    and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.netio_iid, fun () -> view ()) ]))
    and unknown () = Lazy.force obj in
    view ()
  in
  match ed.Io_if.ed_open ~recv:recv_netio with
  | Result.Error _ as e -> e
  | Ok xmit ->
      (* The crossing is charged by the driver's xmit netio.  The push is
         synchronous: once it returns the frames are on the wire (or
         refused) and the chains can be retired. *)
      ifp.Netif.if_start <-
        (fun ms ->
          let r = xmit.Io_if.push (List.map bufio_of_mbuf ms) in
          List.iter Mbuf.m_freem ms;
          match r with Ok () -> [] | Result.Error errs -> errs);
      (* The batched glue (Cost.config.rx_batch > 1) batches both ways: a
         held burst (Netif.with_burst) crosses as one push. *)
      ifp.Netif.if_bursts <- Cost.config.Cost.rx_batch > 1;
      Ok ()

(* ---- COM socket export ---- *)

let sockaddr_of (ip, port) = { Io_if.sin_addr = ip; sin_port = port }

let rec socket_com stack (s : Bsd_socket.tsock) : Io_if.socket =
  let enter f =
    (* Every socket call is an entry into the FreeBSD component. *)
    Cost.charge_glue_crossing Socket_call;
    f ()
  in
  let rec view () =
    { Io_if.so_unknown = unknown ();
      so_bind = (fun a -> enter (fun () -> Bsd_socket.so_bind s ~port:a.Io_if.sin_port));
      so_listen = (fun ~backlog -> enter (fun () -> Bsd_socket.so_listen s ~backlog));
      so_accept =
        (fun () ->
          enter (fun () ->
              match Bsd_socket.so_accept s with
              | Ok conn ->
                  let peer =
                    { Io_if.sin_addr = conn.Bsd_socket.pcb.Tcp.raddr;
                      sin_port = conn.Bsd_socket.pcb.Tcp.rport }
                  in
                  Ok (socket_com stack conn, peer)
              | Result.Error _ as e -> (e :> (Io_if.socket * Io_if.sockaddr, Error.t) result)));
      so_connect =
        (fun a ->
          enter (fun () -> Bsd_socket.so_connect s ~dst:a.Io_if.sin_addr ~dport:a.Io_if.sin_port));
      so_send = (fun ~buf ~pos ~len -> enter (fun () -> Bsd_socket.so_send s ~buf ~pos ~len));
      so_recv = (fun ~buf ~pos ~len -> enter (fun () -> Bsd_socket.so_recv s ~buf ~pos ~len));
      so_sendto = (fun ~buf:_ ~pos:_ ~len:_ ~dst:_ -> Result.Error Error.Notsup);
      so_recvfrom = (fun ~buf:_ ~pos:_ ~len:_ -> Result.Error Error.Notsup);
      so_getsockname =
        (fun () ->
          enter (fun () ->
              match Bsd_socket.so_sockname s with
              | Ok pair -> Ok (sockaddr_of pair)
              | Result.Error _ as e -> (e :> (Io_if.sockaddr, Error.t) result)));
      so_setsockopt =
        (fun name value ->
          enter (fun () ->
              match name with
              | "sndbuf" ->
                  Tcp.set_buffer_sizes s.Bsd_socket.pcb ~snd:value
                    ~rcv:s.Bsd_socket.pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat;
                  Ok ()
              | "rcvbuf" ->
                  Tcp.set_buffer_sizes s.Bsd_socket.pcb
                    ~snd:s.Bsd_socket.pcb.Tcp.snd_buf.Sockbuf.sb_hiwat ~rcv:value;
                  Ok ()
              | "nonblock" ->
                  Bsd_socket.so_set_nonblock s (value <> 0);
                  Ok ()
              | "nopush" ->
                  Bsd_socket.so_set_nopush s (value <> 0);
                  Ok ()
              | _ -> Result.Error Error.Notsup));
      so_shutdown = (fun () -> enter (fun () -> Bsd_socket.so_shutdown s));
      so_close = (fun () -> enter (fun () -> Bsd_socket.so_close s)) }
  (* The readiness view of the same object.  Forced once (not per query),
     so every client shares one view; poll is a plain COM method
     dispatch, not a full component crossing — it reads state, converts no
     arguments and wraps no buffers. *)
  and aio =
    lazy
      (Io_if.asyncio_view ~unknown
         ~poll:(fun () ->
           Cost.charge_com_call ();
           Bsd_socket.so_readiness s)
         ~listeners:s.Bsd_socket.listeners ~charge:Cost.charge_com_call
         ~readable:(fun () -> Bsd_socket.so_readable_bytes s)
         ())
  (* The scatter-send face: loan mapped buffer-cache fragments into the
     send buffer with no copy.  BSD exports it because its mbufs can alias
     foreign storage; the Linux stack deliberately has no such face (its
     contiguous sk_buffs cannot — the Section 5 copy asymmetry), so a
     client that queries for it falls back on copying writes there. *)
  and sv =
    lazy
      { Io_if.sv_unknown = unknown ();
        sv_send_frags =
          (fun ~frags ~pos -> enter (fun () -> Bsd_socket.so_sendv s ~frags ~pos)) }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.socket_iid, fun () -> view ());
             Iid.B (Io_if.asyncio_iid, fun () -> Lazy.force aio);
             Iid.B (Io_if.sendv_iid, fun () -> Lazy.force sv) ]))
  and unknown () = Lazy.force obj in
  view ()

let udp_socket_com (s : Bsd_socket.usock) : Io_if.socket =
  let enter f =
    Cost.charge_glue_crossing Socket_call;
    f ()
  in
  let mutable_peer = ref None in
  let rec view () =
    { Io_if.so_unknown = unknown ();
      so_bind = (fun a -> enter (fun () -> Bsd_socket.uso_bind s ~port:a.Io_if.sin_port));
      so_listen = (fun ~backlog:_ -> Result.Error Error.Notsup);
      so_accept = (fun () -> Result.Error Error.Notsup);
      so_connect =
        (fun a ->
          mutable_peer := Some a;
          Ok ());
      so_send =
        (fun ~buf ~pos ~len ->
          match !mutable_peer with
          | Some a ->
              enter (fun () ->
                  Bsd_socket.uso_sendto s ~buf ~pos ~len ~dst:a.Io_if.sin_addr
                    ~dport:a.Io_if.sin_port)
          | None -> Result.Error Error.Notconn);
      so_recv =
        (fun ~buf ~pos ~len ->
          if Error.bad_range buf ~pos ~len then Result.Error Error.Inval
          else
            enter (fun () ->
                let _, _, payload = Bsd_socket.uso_recvfrom s in
                let n = min len (Bytes.length payload) in
                Cost.charge_copy n;
                Bytes.blit payload 0 buf pos n;
                Ok n));
      so_sendto =
        (fun ~buf ~pos ~len ~dst ->
          enter (fun () ->
              Bsd_socket.uso_sendto s ~buf ~pos ~len ~dst:dst.Io_if.sin_addr
                ~dport:dst.Io_if.sin_port));
      so_recvfrom =
        (fun ~buf ~pos ~len ->
          if Error.bad_range buf ~pos ~len then Result.Error Error.Inval
          else
            enter (fun () ->
                let src, sport, payload = Bsd_socket.uso_recvfrom s in
                let n = min len (Bytes.length payload) in
                Cost.charge_copy n;
                Bytes.blit payload 0 buf pos n;
                Ok (n, { Io_if.sin_addr = src; sin_port = sport })));
      so_getsockname =
        (fun () ->
          Ok { Io_if.sin_addr = s.Bsd_socket.upcb.Udp.laddr; sin_port = s.Bsd_socket.upcb.Udp.lport });
      so_setsockopt = (fun _ _ -> Result.Error Error.Notsup);
      so_shutdown = (fun () -> Ok ());
      so_close = (fun () -> enter (fun () -> Bsd_socket.uso_close s)) }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.socket_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()

let socket_factory stack : Io_if.socket_factory =
  let rec view () =
    { Io_if.sf_unknown = unknown ();
      sf_create =
        (fun typ ->
          Cost.charge_glue_crossing Open_close;
          match typ with
          | Io_if.Sock_stream -> Ok (socket_com stack (Bsd_socket.tcp_socket stack))
          | Io_if.Sock_dgram -> Ok (udp_socket_com (Bsd_socket.udp_socket stack))) }
  and obj =
    lazy (Com.create (fun _ -> [ Iid.B (Io_if.socket_factory_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()
