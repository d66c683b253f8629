(* The POSIX layer over COM sockets: UDP datagrams through the socket
   factory, descriptor bookkeeping, determinism of the whole simulation. *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

let make_pair () =
  let tb = Clientos.make_testbed ~models:("rtl8139", "de4x5") () in
  let env_a, _ = Clientos.oskit_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let env_b, _ = Clientos.oskit_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  tb, env_a, env_b

let test_udp_posix () =
  let tb, env_a, env_b = make_pair () in
  let answer = ref None in
  Clientos.spawn tb.Clientos.host_b ~name:"udp-echo" (fun () ->
      let fd = ok (Posix.socket env_b Io_if.Sock_dgram) in
      ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 53 });
      let s = ok (Posix.socket_of_fd env_b fd) in
      let buf = Bytes.create 512 in
      let n, peer = ok (s.Io_if.so_recvfrom ~buf ~pos:0 ~len:512) in
      (* Echo it back, uppercased, to the sender. *)
      let reply = Bytes.of_string (String.uppercase_ascii (Bytes.sub_string buf 0 n)) in
      ignore (ok (s.Io_if.so_sendto ~buf:reply ~pos:0 ~len:n ~dst:peer)));
  Clientos.spawn tb.Clientos.host_a ~name:"udp-client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env_a Io_if.Sock_dgram) in
      ok (Posix.bind env_a fd { Io_if.sin_addr = ip "10.0.0.1"; sin_port = 1053 });
      let s = ok (Posix.socket_of_fd env_a fd) in
      let query = Bytes.of_string "query" in
      ignore
        (ok
           (s.Io_if.so_sendto ~buf:query ~pos:0 ~len:5
              ~dst:{ Io_if.sin_addr = ip "10.0.0.2"; sin_port = 53 }));
      let buf = Bytes.create 64 in
      let n, _ = ok (s.Io_if.so_recvfrom ~buf ~pos:0 ~len:64) in
      answer := Some (Bytes.sub_string buf 0 n));
  Clientos.run tb ~until:(fun () -> !answer <> None);
  Alcotest.(check (option string)) "udp echo through the factory" (Some "QUERY") !answer

let test_udp_connected_send () =
  let tb, env_a, env_b = make_pair () in
  let got = ref None in
  Clientos.spawn tb.Clientos.host_b (fun () ->
      let fd = ok (Posix.socket env_b Io_if.Sock_dgram) in
      ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7 });
      let buf = Bytes.create 64 in
      let n = ok (Posix.recv env_b fd buf ~pos:0 ~len:64) in
      got := Some (Bytes.sub_string buf 0 n));
  Clientos.spawn tb.Clientos.host_a (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env_a Io_if.Sock_dgram) in
      (* connect() then plain write-style send. *)
      ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7 });
      let b = Bytes.of_string "via-connected-udp" in
      ignore (ok (Posix.send env_a fd b ~pos:0 ~len:(Bytes.length b))));
  Clientos.run tb ~until:(fun () -> !got <> None);
  Alcotest.(check (option string)) "connected-udp datagram" (Some "via-connected-udp") !got

let test_fd_bookkeeping () =
  let env = Posix.create_env () in
  Alcotest.(check int) "fresh env" 0 (Posix.live_fds env);
  (match Posix.close env 42 with
  | Error Error.Badf -> ()
  | _ -> Alcotest.fail "closing a bad fd must EBADF");
  (match Posix.read env 7 (Bytes.create 1) ~pos:0 ~len:1 with
  | Error Error.Badf -> ()
  | _ -> Alcotest.fail "reading a bad fd must EBADF");
  (* Sockets without a factory. *)
  match Posix.socket env Io_if.Sock_stream with
  | Error Error.Notsup -> ()
  | _ -> Alcotest.fail "socket without a factory must fail"

(* Determinism: the virtual-time simulation must produce identical results
   when repeated in one process — the property every benchmark number
   rests on. *)
let test_determinism () =
  let run () =
    let tb, env_a, env_b = make_pair () in
    let finished = ref 0 in
    Clientos.spawn tb.Clientos.host_b (fun () ->
        let fd = ok (Posix.socket env_b Io_if.Sock_stream) in
        ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
        ok (Posix.listen env_b fd ~backlog:1);
        let conn, _ = ok (Posix.accept env_b fd) in
        let buf = Bytes.create 4096 in
        let rec loop () =
          match ok (Posix.recv env_b conn buf ~pos:0 ~len:4096) with
          | 0 -> finished := Machine.now tb.Clientos.host_b.Clientos.machine
          | _ -> loop ()
        in
        loop ());
    Clientos.spawn tb.Clientos.host_a (fun () ->
        Kclock.sleep_ns 2_000_000;
        let fd = ok (Posix.socket env_a Io_if.Sock_stream) in
        ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
        let data = Bytes.make 65536 'D' in
        let _ = ok (Posix.send env_a fd data ~pos:0 ~len:65536) in
        ok (Posix.shutdown env_a fd));
    Clientos.run tb ~until:(fun () -> !finished > 0);
    !finished
  in
  let a = run () in
  let b = run () in
  Alcotest.(check int) "identical completion time across runs" a b

(* A caller's bad [~buf ~pos ~len] range: each socket entry returns
   EINVAL before it touches anything, so no thread dies inside a stack
   and the stream carries on intact.  The FreeBSD and Linux rows call the
   stacks' own entries, which must charge nothing for the refusal; the
   OSKit row goes through POSIX and the COM glue, whose crossing is
   charged before the stack refuses. *)
let test_bad_range config () =
  let tb = Clientos.make_testbed () in
  let server = Endpoint.setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let client = Endpoint.setup config tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let refused = ref [] and got = ref None in
  let refuse (ep : Endpoint.t) what call =
    let t0 = Machine.now ep.host.Clientos.machine in
    let r = call () in
    refused := (what, r, Machine.now ep.host.Clientos.machine - t0) :: !refused
  in
  Clientos.spawn server.host (fun () ->
      let c = ok (server.listen ~port:7100 ~backlog:1 ()) in
      (* Let the ten bytes arrive: the receives below find data pending. *)
      Kclock.sleep_ns 20_000_000;
      let buf = Bytes.create 10 in
      refuse server "recv pos 8 len 10" (fun () -> c.recv ~buf ~pos:8 ~len:10);
      refuse server "recv pos -1" (fun () -> c.recv ~buf ~pos:(-1) ~len:5);
      let n = ok (c.recv ~buf ~pos:0 ~len:10) in
      got := Some (Bytes.sub_string buf 0 n));
  Clientos.spawn client.host (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (client.connect ~dst:(ip "10.0.0.2") ~port:7100) in
      let buf = Bytes.make 100 'x' in
      refuse client "send pos 50 len 100" (fun () -> c.send ~buf ~pos:50 ~len:100);
      refuse client "send pos -1" (fun () -> c.send ~buf ~pos:(-1) ~len:10);
      ignore (ok (c.send ~buf:(Bytes.of_string "0123456789") ~pos:0 ~len:10)));
  Clientos.run tb ~until:(fun () -> !got <> None);
  Alcotest.(check int) "four calls refused" 4 (List.length !refused);
  List.iter
    (fun (what, r, charged_ns) ->
      Alcotest.(check bool) (what ^ ": EINVAL") true (r = Error Error.Inval);
      if config <> Endpoint.Oskit then
        Alcotest.(check int) (what ^ ": nothing charged") 0 charged_ns)
    !refused;
  Alcotest.(check (option string)) "the stream is intact" (Some "0123456789") !got

(* The UDP COM socket: a bad range on sendto sends nothing, and on
   recv/recvfrom it refuses before the datagram is dequeued, so the next
   good call still gets it. *)
let test_udp_bad_range () =
  let tb, env_a, env_b = make_pair () in
  let results = ref [] and got = ref None in
  let note what r = results := (what, r) :: !results in
  Clientos.spawn tb.Clientos.host_b (fun () ->
      let fd = ok (Posix.socket env_b Io_if.Sock_dgram) in
      ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 53 });
      let s = ok (Posix.socket_of_fd env_b fd) in
      Kclock.sleep_ns 20_000_000;
      let buf = Bytes.create 8 in
      note "recvfrom pos 4 len 8" (Result.map fst (s.Io_if.so_recvfrom ~buf ~pos:4 ~len:8));
      note "recv pos -1" (Posix.recv env_b fd buf ~pos:(-1) ~len:4);
      let n, _ = ok (s.Io_if.so_recvfrom ~buf ~pos:0 ~len:8) in
      got := Some (Bytes.sub_string buf 0 n));
  Clientos.spawn tb.Clientos.host_a (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env_a Io_if.Sock_dgram) in
      let s = ok (Posix.socket_of_fd env_a fd) in
      let dst = { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 53 } in
      let buf = Bytes.of_string "datagram" in
      note "sendto pos 6 len 8" (s.Io_if.so_sendto ~buf ~pos:6 ~len:8 ~dst);
      ignore (ok (s.Io_if.so_sendto ~buf ~pos:0 ~len:8 ~dst)));
  Clientos.run tb ~until:(fun () -> !got <> None);
  Alcotest.(check int) "three calls refused" 3 (List.length !results);
  List.iter
    (fun (what, r) -> Alcotest.(check bool) (what ^ ": EINVAL") true (r = Error Error.Inval))
    !results;
  Alcotest.(check (option string)) "the datagram survived" (Some "datagram") !got

let suite =
  [ Alcotest.test_case "udp sendto/recvfrom via factory" `Quick test_udp_posix;
    Alcotest.test_case "udp connected send" `Quick test_udp_connected_send;
    Alcotest.test_case "fd bookkeeping" `Quick test_fd_bookkeeping;
    Alcotest.test_case "simulation determinism" `Quick test_determinism;
    Alcotest.test_case "bad buffer range: freebsd stack refuses" `Quick
      (test_bad_range Endpoint.Freebsd);
    Alcotest.test_case "bad buffer range: linux stack refuses" `Quick
      (test_bad_range Endpoint.Linux);
    Alcotest.test_case "bad buffer range: posix on the oskit config refuses" `Quick
      (test_bad_range Endpoint.Oskit);
    Alcotest.test_case "bad buffer range: udp keeps the datagram" `Quick test_udp_bad_range ]
