(* Diagnostic driver: run a single TCP transfer in one configuration with
   verbose state dumps — the first thing to reach for when a stack change
   breaks the integration tests. *)
let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let ok = function Ok v -> v | Error e -> failwith (Error.to_string e)

let run_freebsd bytes =
  let tb = Clientos.make_testbed () in
  World.set_fuel tb.Clientos.world 5_000_000;
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let done_flag = ref false in
  let got = ref 0 in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:5);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | n -> got := !got + n; loop ()
      in
      loop ());
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Bsd_socket.tcp_socket sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:5001);
      let data = Bytes.make bytes 'x' in
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:bytes) in
      ok (Bsd_socket.so_close s));
  (try Clientos.run tb ~until:(fun () -> !done_flag)
   with World.Out_of_fuel -> print_endline "OUT OF FUEL");
  Printf.printf "freebsd %d: done=%b got=%d now=%dns rexmit=%d\n%!" bytes !done_flag !got
    (World.now tb.Clientos.world) sa.Bsd_socket.tcp.Tcp.stats.Tcp.sndrexmitpack;
  ignore sb

let run_oskit bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("NE2000", "tulip") () in
  World.set_fuel tb.Clientos.world 5_000_000;
  let env_a, _ = Clientos.oskit_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let env_b, _ = Clientos.oskit_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let done_flag = ref false in
  let got = ref 0 in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let fd = ok (Posix.socket env_b Io_if.Sock_stream) in
      ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
      ok (Posix.listen env_b fd ~backlog:4);
      print_endline "oskit server: listening";
      let conn, _ = ok (Posix.accept env_b fd) in
      print_endline "oskit server: accepted";
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Posix.recv env_b conn buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | n -> got := !got + n; loop ()
      in
      loop ());
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env_a Io_if.Sock_stream) in
      print_endline "oskit client: connecting";
      ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
      print_endline "oskit client: connected";
      let data = Bytes.make bytes 'x' in
      let _ = ok (Posix.send env_a fd data ~pos:0 ~len:bytes) in
      print_endline "oskit client: sent";
      ok (Posix.shutdown env_a fd));
  (try Clientos.run tb ~until:(fun () -> !done_flag)
   with World.Out_of_fuel -> print_endline "OUT OF FUEL");
  Printf.printf "oskit %d: done=%b got=%d now=%dns\n%!" bytes !done_flag !got
    (World.now tb.Clientos.world)

let run_linux bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c59x", "lance") () in
  World.set_fuel tb.Clientos.world 5_000_000;
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let done_flag = ref false in
  let got = ref 0 in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let ls = Linux_inet.socket sb in
      Linux_inet.bind sb ls ~port:5001;
      Linux_inet.listen sb ls ~backlog:4;
      let conn = ok (Linux_inet.accept sb ls) in
      print_endline "linux server: accepted";
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Linux_inet.recv sb conn ~buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | n -> got := !got + n; loop ()
      in
      loop ());
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Linux_inet.socket sa in
      ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:5001);
      print_endline "linux client: connected";
      let data = Bytes.make bytes 'x' in
      let _ = ok (Linux_inet.send sa s ~buf:data ~pos:0 ~len:bytes) in
      Linux_inet.close sa s);
  (try Clientos.run tb ~until:(fun () -> !done_flag)
   with World.Out_of_fuel -> print_endline "OUT OF FUEL");
  Printf.printf "linux %d: done=%b got=%d now=%dns rexmits=%d\n%!" bytes !done_flag !got
    (World.now tb.Clientos.world) sa.Linux_inet.rexmits

