(* Who pays the glue.  A call through a COM face crosses the OSKit glue
   only on an OSKit machine, whose stack reaches its device through the
   fdev glue: there every socket and file call is one crossing.  A native
   FreeBSD or Linux kernel links its components directly, so the same
   calls through the same faces cross nothing.  A machine runs one kind of
   kernel: binding the other kind as well is refused. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let server_ip = Endpoint.addr_b
let port = 7001

(* The COM socket face of [config]'s stack on [host]: the one an OSKit
   client gets from its socket factory, over whichever stack runs. *)
let com_socket config (host : Clientos.host) =
  match config with
  | Endpoint.Oskit ->
      let _env, stack = Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask in
      Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)
  | Endpoint.Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask in
      Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)
  | Endpoint.Linux ->
      let stack = Clientos.linux_host host ~ip:server_ip ~mask:Endpoint.mask in
      Linux_sock_com.socket_com stack (Linux_inet.socket stack)

(* Each call the server makes through its faces, with the glue crossings
   it was charged: every crossing counted while it ran, less the frames
   its NIC sent meanwhile (on an OSKit machine each frame crosses the
   driver's transmit glue too; a native one sends through no glue, so
   there the raw count must be zero as well).  No call blocks: the
   client's connection and data are queued before the first of them, so
   no frame arrives while one runs. *)
let crossings_per_call config =
  let tb = Clientos.make_testbed () in
  let body = String.init 3000 (fun i -> Char.chr (Endpoint.pattern i)) in
  let root = ok (Fs_glue.newfs (Mem_blkio.make ~bytes:(1 lsl 20) ())) in
  let f = ok (root.Io_if.d_create "index.html") in
  ignore (ok (f.Io_if.f_write ~buf:(Bytes.of_string body) ~pos:0 ~offset:0 ~amount:3000));
  let server = tb.Clientos.host_b in
  let sock = com_socket config server in
  let client = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_a ~addr:Endpoint.addr_a in
  let calls = ref [] and finished = ref false in
  let call name f =
    let c0 = Cost.counters.Cost.glue_crossings and t0 = Nic.tx_count server.Clientos.nic in
    let v = f () in
    let raw = Cost.counters.Cost.glue_crossings - c0 in
    calls := (name, raw, raw - (Nic.tx_count server.Clientos.nic - t0)) :: !calls;
    v
  in
  Clientos.spawn server ~name:"server" (fun () ->
      call "bind" (fun () -> ok (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = port }));
      call "listen" (fun () -> ok (sock.Io_if.so_listen ~backlog:2));
      Kclock.sleep_ns 50_000_000;
      let c, _ = call "accept" (fun () -> ok (sock.Io_if.so_accept ())) in
      ignore (call "getsockname" (fun () -> ok (c.Io_if.so_getsockname ())));
      let buf = Bytes.create 16 in
      Alcotest.(check int) "request received" 4
        (call "recv" (fun () -> ok (c.Io_if.so_recv ~buf ~pos:0 ~len:16)));
      let page =
        match call "d_lookup" (fun () -> ok (root.Io_if.d_lookup "index.html")) with
        | Io_if.Node_file f -> f
        | Io_if.Node_dir _ -> Alcotest.fail "index.html is a directory"
      in
      let data = Bytes.create 3000 in
      Alcotest.(check int) "page read" 3000
        (call "f_read" (fun () -> ok (page.Io_if.f_read ~buf:data ~pos:0 ~offset:0 ~amount:3000)));
      Alcotest.(check int) "page sent" 3000
        (call "send" (fun () -> ok (c.Io_if.so_send ~buf:data ~pos:0 ~len:3000)));
      call "close" (fun () -> ok (c.Io_if.so_close ())));
  Clientos.spawn client.host ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (client.connect ~dst:server_ip ~port) in
      ignore (ok (c.send ~buf:(Bytes.of_string "GET\n") ~pos:0 ~len:4));
      let got = Httpbench.drain c in
      Alcotest.(check bool) "page byte-exact" true (got = body);
      c.close ();
      finished := true);
  Clientos.run tb ~until:(fun () -> !finished);
  Alcotest.(check bool) "exchange finished" true !finished;
  List.rev !calls

let names = [ "bind"; "listen"; "accept"; "getsockname"; "recv"; "d_lookup"; "f_read"; "send"; "close" ]

let native config () =
  let calls = crossings_per_call config in
  Alcotest.(check (list string)) "every call made" names (List.map (fun (n, _, _) -> n) calls);
  List.iter
    (fun (name, raw, _) -> Alcotest.(check int) (name ^ ": no glue crossed") 0 raw)
    calls

let oskit () =
  let calls = crossings_per_call Endpoint.Oskit in
  Alcotest.(check (list string)) "every call made" names (List.map (fun (n, _, _) -> n) calls);
  List.iter
    (fun (name, _, face) -> Alcotest.(check int) (name ^ ": one crossing") 1 face)
    calls

(* A machine whose kernel is bound to its NIC one way refuses the other. *)
let both_kinds () =
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_b in
  ignore (Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask);
  refused "the fdev glue on a native machine" (fun () ->
      Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask);
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_b in
  ignore (Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask);
  refused "a native stack on an OSKit machine" (fun () ->
      Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask);
  Alcotest.(check bool) "an OSKit machine is not native" false (Machine.native host.Clientos.machine)

let suite =
  [ Alcotest.test_case "native FreeBSD: COM socket and file calls cross no glue" `Quick
      (native Endpoint.Freebsd);
    Alcotest.test_case "native Linux: COM socket and file calls cross no glue" `Quick
      (native Endpoint.Linux);
    Alcotest.test_case "OSKit: one glue crossing per COM socket and file call" `Quick oskit;
    Alcotest.test_case "one machine, one kind of kernel" `Quick both_kinds ]
