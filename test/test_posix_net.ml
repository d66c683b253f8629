(* The POSIX layer over COM sockets: UDP datagrams through the socket
   factory, descriptor bookkeeping, determinism of the whole simulation. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %s" (Error.to_string e)

let make_pair () =
  Clientos.reset_globals ();
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

let suite =
  [ Alcotest.test_case "udp sendto/recvfrom via factory" `Quick test_udp_posix;
    Alcotest.test_case "udp connected send" `Quick test_udp_connected_send;
    Alcotest.test_case "fd bookkeeping" `Quick test_fd_bookkeeping;
    Alcotest.test_case "simulation determinism" `Quick test_determinism ]
