(* Integration tests: TCP transfers across the three network
   configurations of the paper's evaluation, on the simulated testbed. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Deterministic test pattern. *)
let pattern n =
  Bytes.init n (fun i -> Char.chr ((i * 131) land 0xff))

let digest b = Digest.to_hex (Digest.bytes b)

(* ---- FreeBSD-native <-> FreeBSD-native ---- *)

let run_freebsd_pair ~bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed () in
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:5);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:8192) with
        | 0 ->
            ignore (Bsd_socket.so_close conn);
            done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  let data = pattern bytes in
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Bsd_socket.tcp_socket sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:5001);
      let sent = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:bytes) in
      Alcotest.(check int) "all bytes accepted" bytes sent;
      ok (Bsd_socket.so_close s));
  Clientos.run tb ~until:(fun () -> !done_flag);
  Alcotest.(check bool) "transfer completed" true !done_flag;
  Alcotest.(check int) "received size" bytes (Buffer.length received);
  Alcotest.(check string) "payload integrity" (digest data)
    (digest (Buffer.to_bytes received))

(* ---- OSKit config (Linux drivers + FreeBSD stack over COM + POSIX) ---- *)

let run_oskit_pair ~bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("NE2000", "tulip") () in
  let env_a, _stack_a = Clientos.oskit_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let env_b, _stack_b = Clientos.oskit_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let fd = ok (Posix.socket env_b Io_if.Sock_stream) in
      ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
      ok (Posix.listen env_b fd ~backlog:4);
      let conn, _peer = ok (Posix.accept env_b fd) in
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Posix.recv env_b conn buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  let data = pattern bytes in
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env_a Io_if.Sock_stream) in
      ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
      let sent = ok (Posix.send env_a fd data ~pos:0 ~len:bytes) in
      Alcotest.(check int) "all bytes accepted" bytes sent;
      ok (Posix.shutdown env_a fd);
      ok (Posix.close env_a fd));
  Clientos.run tb ~until:(fun () -> !done_flag);
  Alcotest.(check bool) "transfer completed" true !done_flag;
  Alcotest.(check string) "payload integrity" (digest data)
    (digest (Buffer.to_bytes received))

(* ---- Linux-native <-> Linux-native ---- *)

let run_linux_pair ~bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c59x", "lance") () in
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let ls = Linux_inet.socket sb in
      Linux_inet.bind sb ls ~port:5001;
      Linux_inet.listen sb ls ~backlog:4;
      let conn = ok (Linux_inet.accept sb ls) in
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Linux_inet.recv sb conn ~buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  let data = pattern bytes in
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Linux_inet.socket sa in
      let _ = ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:5001) in
      let sent = ok (Linux_inet.send sa s ~buf:data ~pos:0 ~len:bytes) in
      Alcotest.(check int) "all bytes accepted" bytes sent;
      Linux_inet.close sa s);
  Clientos.run tb ~until:(fun () -> !done_flag);
  Alcotest.(check bool) "transfer completed" true !done_flag;
  Alcotest.(check string) "payload integrity" (digest data)
    (digest (Buffer.to_bytes received))

(* ---- interop: OSKit talks to native FreeBSD ---- *)

let run_interop ~bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("eepro100", "tulip") () in
  let env_a, _ = Clientos.oskit_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind ls ~port:7);
      ok (Bsd_socket.so_listen ls ~backlog:1);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 4096 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:4096) with
        | 0 -> done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  let data = pattern bytes in
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env_a Io_if.Sock_stream) in
      ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 7 });
      let _ = ok (Posix.send env_a fd data ~pos:0 ~len:bytes) in
      ok (Posix.shutdown env_a fd));
  Clientos.run tb ~until:(fun () -> !done_flag);
  Alcotest.(check string) "payload integrity across stacks" (digest data)
    (digest (Buffer.to_bytes received))

let suite =
  [ Alcotest.test_case "freebsd-native 256KB transfer" `Quick (fun () ->
        run_freebsd_pair ~bytes:(256 * 1024));
    Alcotest.test_case "oskit-config 256KB transfer" `Quick (fun () ->
        run_oskit_pair ~bytes:(256 * 1024));
    Alcotest.test_case "linux-native 256KB transfer" `Quick (fun () ->
        run_linux_pair ~bytes:(256 * 1024));
    Alcotest.test_case "oskit->freebsd interop 64KB" `Quick (fun () ->
        run_interop ~bytes:(64 * 1024));
    Alcotest.test_case "freebsd tiny (1 byte)" `Quick (fun () -> run_freebsd_pair ~bytes:1);
    Alcotest.test_case "oskit odd size (12345)" `Quick (fun () -> run_oskit_pair ~bytes:12345)
  ]
