(* The oskit_asyncio readiness interface, the reactor that drives it, and
   the non-blocking socket paths beneath it — on both protocol stacks.

   - readiness-vs-blocking equivalence: the same byte stream received
     through a reactor-driven non-blocking socket and through a parked
     blocking thread is byte-exact identical, on either stack;
   - spurious-wakeup safety and listener add/remove during a poll pass,
     against a synthetic asyncio object whose notifications the test
     controls directly;
   - accept + serve under netem loss (seeded);
   - the listen-backlog overflow counter on both stacks;
   - closing a listener fails parked accepters instead of leaking them;
   - basic Wouldblock behaviour of non-blocking accept/recv. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

type kind = Fb | Lx

let kind_name = function Fb -> "freebsd" | Lx -> "linux"

(* A COM listen socket (plus the stack's listen_overflow reader) on [host]
   for either stack — the same object the HTTP server component binds to. *)
let com_server kind host =
  match kind with
  | Fb ->
      let stack = Clientos.freebsd_host host ~ip:(ip "10.0.0.2") ~mask in
      ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
        fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
  | Lx ->
      let stack = Clientos.linux_host host ~ip:(ip "10.0.0.2") ~mask in
      ( Linux_sock_com.socket_com stack (Linux_inet.socket stack),
        fun () -> stack.Linux_inet.listen_overflow )

let fresh_testbed () =
  Clientos.reset_globals ();
  Clientos.make_testbed ~models:("3c905", "tulip") ()

let pattern pos = Char.chr (Endpoint.pattern pos)

let aio_of (sock : Io_if.socket) =
  ok (Com.query sock.Io_if.so_unknown Io_if.asyncio_iid)

(* ------------------------------------------------------------------ *)
(* Readiness-vs-blocking equivalence.                                  *)

(* Push [len] pattern bytes from a native FreeBSD client into a one-shot
   sink on [kind]; the sink reads either with a blocking thread or with
   reactor-driven non-blocking recv.  Returns what the sink received. *)
let transfer kind ~via_reactor ~len =
  let tb = fresh_testbed () in
  let sock, _ = com_server kind tb.Clientos.host_b in
  let acc = Buffer.create len in
  let finished = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"sink" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7001 });
      ok (sock.Io_if.so_listen ~backlog:4);
      if not via_reactor then begin
        let c, _ = ok (sock.Io_if.so_accept ()) in
        let buf = Bytes.create 4096 in
        let rec drain () =
          match c.Io_if.so_recv ~buf ~pos:0 ~len:4096 with
          | Ok 0 | Error _ ->
              ignore (c.Io_if.so_close ());
              finished := true
          | Ok n ->
              Buffer.add_subbytes acc buf 0 n;
              drain ()
        in
        drain ()
      end
      else begin
        let r = Reactor.create () in
        ignore (sock.Io_if.so_setsockopt "nonblock" 1);
        ignore
          (Reactor.watch r (aio_of sock) ~mask:Io_if.aio_read (fun _ ->
               match sock.Io_if.so_accept () with
               | Error _ -> ()
               | Ok (c, _) ->
                   ignore (c.Io_if.so_setsockopt "nonblock" 1);
                   let buf = Bytes.create 4096 in
                   let wref = ref None in
                   let cb _ =
                     let rec drain () =
                       match c.Io_if.so_recv ~buf ~pos:0 ~len:4096 with
                       | Ok 0 | Error Error.Connreset ->
                           (match !wref with
                           | Some w -> Reactor.unwatch r w
                           | None -> ());
                           ignore (c.Io_if.so_close ());
                           finished := true
                       | Ok n ->
                           Buffer.add_subbytes acc buf 0 n;
                           drain ()
                       | Error Error.Wouldblock -> ()
                       | Error _ ->
                           (match !wref with
                           | Some w -> Reactor.unwatch r w
                           | None -> ());
                           finished := true
                     in
                     drain ()
                   in
                   wref := Some (Reactor.watch r (aio_of c) ~mask:Io_if.aio_read cb)));
        Reactor.run r ~until:(fun () -> !finished)
      end);
  let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  Clientos.spawn tb.Clientos.host_a ~name:"src" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Bsd_socket.tcp_socket cstack in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7001);
      let chunk = 4096 in
      let buf = Bytes.create chunk in
      let sent = ref 0 in
      while !sent < len do
        let n = min chunk (len - !sent) in
        for i = 0 to n - 1 do
          Bytes.set buf i (pattern (!sent + i))
        done;
        let k = ok (Bsd_socket.so_send s ~buf ~pos:0 ~len:n) in
        sent := !sent + k
      done;
      ignore (Bsd_socket.so_close s));
  Clientos.run tb ~until:(fun () -> !finished);
  Buffer.contents acc

let test_equivalence () =
  let len = 48 * 1024 in
  let expect = String.init len pattern in
  List.iter
    (fun kind ->
      let blocking = transfer kind ~via_reactor:false ~len in
      let reactor = transfer kind ~via_reactor:true ~len in
      Alcotest.(check int)
        (kind_name kind ^ ": blocking sink got every byte")
        len (String.length blocking);
      Alcotest.(check bool) (kind_name kind ^ ": blocking byte-exact") true
        (blocking = expect);
      Alcotest.(check bool)
        (kind_name kind ^ ": reactor stream identical to blocking stream")
        true (reactor = blocking))
    [ Fb; Lx ]

(* ------------------------------------------------------------------ *)
(* Spurious wakeups and listener add/remove during a poll pass, driven
   through a synthetic asyncio object so the notifications are exact.    *)

type synthetic = {
  syn_aio : Io_if.asyncio;
  fire : int -> unit; (* set readiness to [mask] and notify matching subs *)
  nudge : unit -> unit; (* notify every sub WITHOUT changing readiness *)
  clear : unit -> unit;
  listeners : unit -> int; (* subscriptions currently registered *)
}

let synthetic () =
  let subs = ref [] and next = ref 1 and ready = ref 0 in
  let aio =
    Io_if.asyncio_view
      ~unknown:(fun () -> Com.create (fun _ -> []))
      ~poll:(fun () -> !ready)
      ~add_listener:(fun ~mask f ->
        let id = !next in
        incr next;
        subs := (id, mask, f) :: !subs;
        id)
      ~remove_listener:(fun id -> subs := List.filter (fun (i, _, _) -> i <> id) !subs)
      ()
  in
  { syn_aio = aio;
    fire =
      (fun m ->
        ready := m;
        List.iter (fun (_, sm, f) -> if sm land m <> 0 then f m) !subs);
    nudge = (fun () -> List.iter (fun (_, _, f) -> f 0) !subs);
    clear = (fun () -> ready := 0);
    listeners = (fun () -> List.length !subs) }

let test_spurious_and_churn () =
  let tb = fresh_testbed () in
  let a = synthetic () and b = synthetic () in
  let r = Reactor.create () in
  let hits_a = ref 0 and hits_b = ref 0 and stopped_hits = ref 0 in
  let done_ = ref false in
  Clientos.spawn tb.Clientos.host_a ~name:"reactor" (fun () ->
      (* Watch A; when A first fires it adds a watch on B from inside the
         callback; B's callback unwatches itself (remove during poll). *)
      let wb = ref None in
      let wa = ref None in
      wa :=
        Some
          (Reactor.watch r a.syn_aio ~mask:Io_if.aio_read (fun _ ->
               incr hits_a;
               a.clear ();
               if !wb = None then
                 wb :=
                   Some
                     (Reactor.watch r b.syn_aio ~mask:Io_if.aio_read (fun _ ->
                          incr hits_b;
                          b.clear ();
                          Reactor.unwatch r (Option.get !wb)))));
      (* A watch that is unwatched must never fire again, even if the
         object keeps notifying. *)
      let stopped = synthetic () in
      let ws =
        Reactor.watch r stopped.syn_aio ~mask:Io_if.aio_read (fun _ -> incr stopped_hits)
      in
      Reactor.unwatch r ws;
      ignore
        (Kclock.callout_after ~ns:1_000_000 (fun () ->
             (* Spurious: notification with no readiness behind it. *)
             a.nudge ();
             stopped.fire Io_if.aio_read));
      ignore (Kclock.callout_after ~ns:2_000_000 (fun () -> a.fire Io_if.aio_read));
      ignore (Kclock.callout_after ~ns:3_000_000 (fun () -> Reactor.kick r));
      ignore
        (Kclock.callout_after ~ns:4_000_000 (fun () ->
             b.fire Io_if.aio_read;
             (* B was already consumed and unwatched by its own callback
                the moment it fires; fire again to prove it stays dead. *)
             b.fire Io_if.aio_read));
      ignore (Kclock.callout_after ~ns:6_000_000 (fun () -> done_ := true; Reactor.kick r));
      Reactor.run r ~until:(fun () -> !done_));
  Clientos.run tb ~until:(fun () -> !done_);
  Alcotest.(check int) "A dispatched exactly once" 1 !hits_a;
  Alcotest.(check int) "B (added during a pass) dispatched exactly once" 1 !hits_b;
  Alcotest.(check int) "unwatched watch never fired" 0 !stopped_hits;
  let st = Reactor.stats r in
  Alcotest.(check bool) "the bare nudge was counted spurious, not dispatched" true
    (st.Reactor.spurious >= 1);
  Alcotest.(check int) "only A's and B's real events dispatched" 2 st.Reactor.dispatches;
  Alcotest.(check int) "B's watch removed itself; A's remains" 1 (Reactor.watch_count r)

(* Edge cases of one dispatch pass.  The pass drains the ready queue
   before running any callback, so a callback can change watches whose
   events are already drained: those changes must win. *)

let test_unwatch_other_in_pass () =
  let a = synthetic () and b = synthetic () in
  let r = Reactor.create () in
  let hits_a = ref 0 and hits_b = ref 0 in
  let wb = ref None in
  ignore
    (Reactor.watch r a.syn_aio ~mask:Io_if.aio_read (fun _ ->
         incr hits_a;
         a.clear ();
         Reactor.unwatch r (Option.get !wb)));
  wb := Some (Reactor.watch r b.syn_aio ~mask:Io_if.aio_read (fun _ -> incr hits_b));
  Alcotest.(check int) "two live watches" 2 (Reactor.watch_count r);
  a.fire Io_if.aio_read;
  b.fire Io_if.aio_read;
  Alcotest.(check int) "one pass dispatches A only" 1 (Reactor.step r);
  Alcotest.(check int) "A dispatched" 1 !hits_a;
  Alcotest.(check int) "B, unwatched by A in the same pass, not dispatched" 0 !hits_b;
  Alcotest.(check int) "B's knote deleted: no listener left on B" 0 (b.listeners ());
  Alcotest.(check int) "A's knote still registered" 1 (a.listeners ());
  Alcotest.(check int) "watch_count tracks the unwatch" 1 (Reactor.watch_count r);
  b.fire Io_if.aio_read;
  a.fire Io_if.aio_read;
  Alcotest.(check int) "next pass: A again, B stays dead" 1 (Reactor.step r);
  Alcotest.(check int) "B never dispatched" 0 !hits_b

let test_rewatch_self_in_pass () =
  let c = synthetic () in
  let r = Reactor.create () in
  let seen = ref [] in
  let wc = ref None in
  wc :=
    Some
      (Reactor.watch r c.syn_aio ~mask:Io_if.aio_read (fun ready ->
           seen := ready :: !seen;
           (* Still readable: move to write interest without consuming. *)
           if ready land Io_if.aio_read <> 0 then
             Reactor.rewatch r (Option.get !wc) ~mask:Io_if.aio_write));
  c.fire (Io_if.aio_read lor Io_if.aio_write);
  Alcotest.(check int) "first pass: the read dispatch" 1 (Reactor.step r);
  Alcotest.(check (list int)) "read seen" [ Io_if.aio_read ] !seen;
  Alcotest.(check int) "rewatch kept the watch" 1 (Reactor.watch_count r);
  Alcotest.(check int) "one knote, on the write filter" 1 (c.listeners ());
  Alcotest.(check int) "second pass: one dispatch" 1 (Reactor.step r);
  Alcotest.(check (list int)) "write once, read not re-levelled"
    [ Io_if.aio_write; Io_if.aio_read ] !seen;
  Reactor.unwatch r (Option.get !wc);
  Alcotest.(check int) "watch_count back to zero" 0 (Reactor.watch_count r);
  Alcotest.(check int) "no listener left" 0 (c.listeners ());
  Alcotest.(check int) "two dispatches in all" 2 (Reactor.stats r).Reactor.dispatches

(* ------------------------------------------------------------------ *)
(* Accept + serve through the reactor under injected loss.             *)

let test_accept_under_loss () =
  List.iter
    (fun (kind, loss, seed) ->
      let tb = fresh_testbed () in
      let em = Netem.create ~seed ~policy:{ Netem.default_policy with loss } () in
      Wire.set_netem tb.Clientos.wire (Some em);
      let sock, _ = com_server kind tb.Clientos.host_b in
      let served = ref 0 in
      let clients = 6 in
      Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
          ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7002 });
          ok (sock.Io_if.so_listen ~backlog:8);
          let r = Reactor.create () in
          ignore (sock.Io_if.so_setsockopt "nonblock" 1);
          ignore
            (Reactor.watch r (aio_of sock) ~mask:Io_if.aio_read (fun _ ->
                 let rec drain () =
                   match sock.Io_if.so_accept () with
                   | Error _ -> ()
                   | Ok (c, _) ->
                       ignore (c.Io_if.so_setsockopt "nonblock" 1);
                       let buf = Bytes.create 64 in
                       let wref = ref None in
                       let cb _ =
                         match c.Io_if.so_recv ~buf ~pos:0 ~len:64 with
                         | Ok n when n > 0 ->
                             (* Echo, then close: one round trip each. *)
                             ignore (c.Io_if.so_send ~buf ~pos:0 ~len:n);
                             (match !wref with
                             | Some w -> Reactor.unwatch r w
                             | None -> ());
                             ignore (c.Io_if.so_close ());
                             incr served
                         | Ok _ | Error Error.Wouldblock -> ()
                         | Error _ ->
                             (match !wref with
                             | Some w -> Reactor.unwatch r w
                             | None -> ());
                             ignore (c.Io_if.so_close ())
                       in
                       wref := Some (Reactor.watch r (aio_of c) ~mask:Io_if.aio_read cb);
                       drain ()
                 in
                 drain ()));
          Reactor.run r ~until:(fun () -> !served >= clients));
      let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let replies = ref 0 and exact = ref 0 in
      for i = 0 to clients - 1 do
        Clientos.spawn tb.Clientos.host_a ~name:(Printf.sprintf "c%d" i) (fun () ->
            Kclock.sleep_ns (2_000_000 + (i * 300_000));
            let s = Bsd_socket.tcp_socket cstack in
            ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7002);
            let msg = Bytes.of_string (Printf.sprintf "ping-%02d" i) in
            ignore (ok (Bsd_socket.so_send s ~buf:msg ~pos:0 ~len:(Bytes.length msg)));
            let buf = Bytes.create 64 in
            (match Bsd_socket.so_recv s ~buf ~pos:0 ~len:64 with
            | Ok n when n > 0 ->
                incr replies;
                if Bytes.sub buf 0 n = Bytes.sub msg 0 n then incr exact
            | _ -> ());
            ignore (Bsd_socket.so_close s))
      done;
      Clientos.run tb ~until:(fun () -> !replies >= clients);
      Alcotest.(check int)
        (Printf.sprintf "%s @%.0f%% loss: every client served" (kind_name kind)
           (loss *. 100.))
        clients !served;
      Alcotest.(check int) "every echo byte-exact" clients !exact)
    [ (Fb, 0.0, 5); (Fb, 0.01, 6); (Fb, 0.03, 7); (Lx, 0.03, 8) ]

(* ------------------------------------------------------------------ *)
(* Listen-queue overflow surfaces in the stack counter on both stacks. *)

let test_listen_overflow () =
  List.iter
    (fun kind ->
      let tb = fresh_testbed () in
      let sock, overflow = com_server kind tb.Clientos.host_b in
      let served = ref 0 in
      let clients = 8 in
      Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
          ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7003 });
          ok (sock.Io_if.so_listen ~backlog:2);
          let r = Reactor.create () in
          ignore (sock.Io_if.so_setsockopt "nonblock" 1);
          ignore
            (Reactor.watch r (aio_of sock) ~mask:Io_if.aio_read (fun _ ->
                 let rec drain () =
                   match sock.Io_if.so_accept () with
                   | Error _ -> ()
                   | Ok (c, _) ->
                       ignore (c.Io_if.so_close ());
                       incr served;
                       drain ()
                 in
                 drain ()));
          Reactor.run r ~until:(fun () -> !served >= clients));
      let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let connected = ref 0 in
      (* ARP warm-up so the whole burst reaches the listener together. *)
      Clientos.spawn tb.Clientos.host_a ~name:"warm" (fun () ->
          Kclock.sleep_ns 1_000_000;
          let s = Bsd_socket.tcp_socket cstack in
          (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7003 with
          | Ok () -> incr connected
          | Error _ -> ());
          ignore (Bsd_socket.so_close s));
      for i = 0 to clients - 1 do
        Clientos.spawn tb.Clientos.host_a ~name:(Printf.sprintf "c%d" i) (fun () ->
            Kclock.sleep_ns (4_000_000 + (i * 200));
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7003 with
            | Ok () -> incr connected
            | Error _ -> ());
            ignore (Bsd_socket.so_close s))
      done;
      Clientos.run tb ~until:(fun () -> !connected >= clients + 1);
      Alcotest.(check bool)
        (kind_name kind ^ ": SYNs beyond the backlog were counted as overflow")
        true
        (overflow () > 0);
      Alcotest.(check int)
        (kind_name kind ^ ": every client still connected after retransmit")
        (clients + 1) !connected)
    [ Fb; Lx ]

(* ------------------------------------------------------------------ *)
(* Closing a listening socket fails parked accepters (no leaked waiter,
   no hang) on both stacks.                                            *)

let test_close_wakes_accepters () =
  List.iter
    (fun kind ->
      let tb = fresh_testbed () in
      let sock, _ = com_server kind tb.Clientos.host_b in
      let outcome = ref `Pending in
      Clientos.spawn tb.Clientos.host_b ~name:"accepter" (fun () ->
          ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7004 });
          ok (sock.Io_if.so_listen ~backlog:2);
          match sock.Io_if.so_accept () with
          | Ok _ -> outcome := `Accepted
          | Error _ -> outcome := `Failed);
      Clientos.spawn tb.Clientos.host_b ~name:"closer" (fun () ->
          Kclock.sleep_ns 5_000_000;
          ignore (sock.Io_if.so_close ()));
      Clientos.run tb ~until:(fun () -> !outcome <> `Pending);
      Alcotest.(check bool)
        (kind_name kind ^ ": parked accepter failed with an error, promptly")
        true
        (!outcome = `Failed && World.now tb.Clientos.world < 1_000_000_000))
    [ Fb; Lx ]

(* ------------------------------------------------------------------ *)
(* Non-blocking basics: Wouldblock instead of parking.                 *)

let test_nonblock_basics () =
  List.iter
    (fun kind ->
      let tb = fresh_testbed () in
      let sock, _ = com_server kind tb.Clientos.host_b in
      let checked = ref false in
      Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
          ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7005 });
          ok (sock.Io_if.so_listen ~backlog:2);
          ignore (sock.Io_if.so_setsockopt "nonblock" 1);
          (* Nothing has connected yet: accept must refuse, not park. *)
          (match sock.Io_if.so_accept () with
          | Error Error.Wouldblock -> ()
          | Ok _ | Error _ -> Alcotest.fail "nonblock accept on empty queue");
          (* Wait (politely) for the client, then accept it. *)
          let rec await () =
            match sock.Io_if.so_accept () with
            | Error Error.Wouldblock ->
                Kclock.sleep_ns 500_000;
                await ()
            | other -> other
          in
          let c, _ = ok (await ()) in
          ignore (c.Io_if.so_setsockopt "nonblock" 1);
          let buf = Bytes.create 16 in
          (* The peer sent nothing: recv must refuse, not park. *)
          (match c.Io_if.so_recv ~buf ~pos:0 ~len:16 with
          | Error Error.Wouldblock -> ()
          | Ok _ | Error _ -> Alcotest.fail "nonblock recv on empty buffer");
          let aio = aio_of c in
          Alcotest.(check bool) "asyncio poll: writable, not readable" true
            (let m = aio.Io_if.aio_poll () in
             m land Io_if.aio_write <> 0 && m land Io_if.aio_read = 0);
          ignore (c.Io_if.so_close ());
          checked := true);
      let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      Clientos.spawn tb.Clientos.host_a ~name:"c" (fun () ->
          Kclock.sleep_ns 2_000_000;
          let s = Bsd_socket.tcp_socket cstack in
          ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7005);
          (* Connect only; send nothing. *)
          Kclock.sleep_ns 20_000_000;
          ignore (Bsd_socket.so_close s));
      Clientos.run tb ~until:(fun () -> !checked);
      Alcotest.(check bool) (kind_name kind ^ ": nonblock paths checked") true !checked)
    [ Fb; Lx ]

let suite =
  [ Alcotest.test_case "readiness-vs-blocking equivalence (both stacks)" `Quick
      test_equivalence;
    Alcotest.test_case "spurious wakeups + add/remove during poll" `Quick
      test_spurious_and_churn;
    Alcotest.test_case "unwatch of another ready watch within a pass" `Quick
      test_unwatch_other_in_pass;
    Alcotest.test_case "rewatch read -> write within a pass" `Quick
      test_rewatch_self_in_pass;
    Alcotest.test_case "reactor accept under netem loss 0-3%" `Quick
      test_accept_under_loss;
    Alcotest.test_case "listen backlog overflow counter (both stacks)" `Quick
      test_listen_overflow;
    Alcotest.test_case "listener close fails parked accepters" `Quick
      test_close_wakes_accepters;
    Alcotest.test_case "nonblocking accept/recv return Wouldblock" `Quick
      test_nonblock_basics ]
