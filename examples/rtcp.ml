(* rtcp — the latency benchmark of Section 5 / Table 2.

   Measures the time for a 1-byte TCP round trip (client sends one byte,
   server echoes it back) over N trips, in the same three configurations
   as ttcp.  Reports the mean (the paper's number) plus the p50/p95/p99
   tail — in virtual time the distribution is tight, so a fat tail is
   itself a finding.

   Usage: rtcp [config] [round_trips]   (defaults: oskit 200) *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("rtcp: " ^ Error.to_string e)

let run_config config ~trips =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let a = tb.Clientos.host_a and b = tb.Clientos.host_b in
  let samples = Array.make (max 1 trips) 0 in
  let finished = ref false in
  let one = Bytes.make 1 'R' in
  let echo_server recv send =
    let buf = Bytes.create 1 in
    let rec loop () =
      match recv buf with
      | 0 -> ()
      | _ ->
          ignore (send buf);
          loop ()
    in
    loop ()
  in
  let client recv send =
    Kclock.sleep_ns 2_000_000;
    (* Warm up: first trip pays ARP + slow start. *)
    ignore (send one);
    let buf = Bytes.create 1 in
    ignore (recv buf);
    for i = 0 to trips - 1 do
      let t0 = Machine.now a.Clientos.machine in
      ignore (send one);
      ignore (recv buf);
      samples.(i) <- Machine.now a.Clientos.machine - t0
    done;
    finished := true
  in
  (match config with
  | `Oskit ->
      let env_a, _ = Clientos.oskit_host a ~ip:(ip "10.0.0.1") ~mask in
      let env_b, _ = Clientos.oskit_host b ~ip:(ip "10.0.0.2") ~mask in
      Clientos.spawn b ~name:"rtcp-srv" (fun () ->
          let fd = ok (Posix.socket env_b Io_if.Sock_stream) in
          ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5002 });
          ok (Posix.listen env_b fd ~backlog:1);
          let conn, _ = ok (Posix.accept env_b fd) in
          echo_server
            (fun buf -> ok (Posix.recv env_b conn buf ~pos:0 ~len:1))
            (fun buf -> ok (Posix.send env_b conn buf ~pos:0 ~len:1)));
      Clientos.spawn a ~name:"rtcp-cli" (fun () ->
          let fd = ok (Posix.socket env_a Io_if.Sock_stream) in
          ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5002 });
          client
            (fun buf -> ok (Posix.recv env_a fd buf ~pos:0 ~len:1))
            (fun buf -> ok (Posix.send env_a fd buf ~pos:0 ~len:1)))
  | `Freebsd ->
      let sa = Clientos.freebsd_host a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.freebsd_host b ~ip:(ip "10.0.0.2") ~mask in
      Clientos.spawn b ~name:"rtcp-srv" (fun () ->
          let ls = Bsd_socket.tcp_socket sb in
          ok (Bsd_socket.so_bind ls ~port:5002);
          ok (Bsd_socket.so_listen ls ~backlog:1);
          let conn = ok (Bsd_socket.so_accept ls) in
          echo_server
            (fun buf -> ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:1))
            (fun buf -> ok (Bsd_socket.so_send conn ~buf ~pos:0 ~len:1)));
      Clientos.spawn a ~name:"rtcp-cli" (fun () ->
          let s = Bsd_socket.tcp_socket sa in
          ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:5002);
          client
            (fun buf -> ok (Bsd_socket.so_recv s ~buf ~pos:0 ~len:1))
            (fun buf -> ok (Bsd_socket.so_send s ~buf ~pos:0 ~len:1)))
  | `Linux ->
      let sa = Clientos.linux_host a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.linux_host b ~ip:(ip "10.0.0.2") ~mask in
      Clientos.spawn b ~name:"rtcp-srv" (fun () ->
          let ls = Linux_inet.socket sb in
          Linux_inet.bind sb ls ~port:5002;
          Linux_inet.listen sb ls ~backlog:1;
          let conn = ok (Linux_inet.accept sb ls) in
          echo_server
            (fun buf -> ok (Linux_inet.recv sb conn ~buf ~pos:0 ~len:1))
            (fun buf -> ok (Linux_inet.send sb conn ~buf ~pos:0 ~len:1)));
      Clientos.spawn a ~name:"rtcp-cli" (fun () ->
          let s = Linux_inet.socket sa in
          ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:5002);
          client
            (fun buf -> ok (Linux_inet.recv sa s ~buf ~pos:0 ~len:1))
            (fun buf -> ok (Linux_inet.send sa s ~buf ~pos:0 ~len:1))));
  Clientos.run tb ~until:(fun () -> !finished);
  samples

let config_of_string = function
  | "oskit" -> `Oskit
  | "freebsd" -> `Freebsd
  | "linux" -> `Linux
  | s -> failwith ("unknown config: " ^ s)

let name_of = function `Oskit -> "OSKit" | `Freebsd -> "FreeBSD" | `Linux -> "Linux"

let () =
  let config =
    if Array.length Sys.argv > 1 then config_of_string Sys.argv.(1) else `Oskit
  in
  let trips = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 200 in
  Printf.printf "rtcp: %s, %d one-byte round trips\n%!" (name_of config) trips;
  let samples = run_config config ~trips in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let us v = float_of_int v /. 1e3 in
  let pct p = us sorted.(min (n - 1) ((n - 1) * p / 100)) in
  let mean = us (Array.fold_left ( + ) 0 samples / max 1 trips) in
  Printf.printf "  round-trip time: %.1f usec mean\n" mean;
  Printf.printf "  p50 %.1f   p95 %.1f   p99 %.1f usec\n" (pct 50) (pct 95) (pct 99)
