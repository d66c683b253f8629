(* ttcp — the bandwidth benchmark of Section 5 / Table 1.

   Transmits N blocks of B bytes (paper: 131072 x 4096 = 512 MB) over TCP
   between two simulated PCs on a 100 Mbps segment, in one of three
   configurations:

     oskit    FreeBSD protocol stack over Linux drivers, all boundaries
              crossed through COM interfaces and glue (the paper's Fig. 3)
     freebsd  monolithic FreeBSD: same stack bound natively, no glue
     linux    monolithic Linux: the Linux inet stack over the same drivers

   Usage: ttcp [config] [blocks] [blocksize]
   Defaults: oskit 4096 4096 (16 MB — the paper's full 512 MB works too,
   it just takes a few wall-clock minutes of simulation; the bench harness
   uses a calibrated fraction). *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("ttcp: " ^ Error.to_string e)

type result = {
  bytes : int;
  send_done_ns : int; (* sender-local elapsed, like ttcp's timer *)
  recv_done_ns : int;
  copies : int;
  glue_crossings : int;
}

(* The three configurations share one shape: a server thread that sinks
   bytes and a client thread that pushes [blocks] x [blocksize]. *)

let run_config config ~blocks ~blocksize =
  Clientos.reset_globals ();
  let total = blocks * blocksize in
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let a = tb.Clientos.host_a and b = tb.Clientos.host_b in
  let received = ref 0 in
  let done_recv = ref 0 in
  let done_send = ref 0 in
  let block = Bytes.make blocksize 'T' in
  let start_a = ref 0 in
  let sink recv =
    let buf = Bytes.create 16384 in
    let rec loop () =
      match recv buf 16384 with
      | 0 -> done_recv := Machine.now b.Clientos.machine
      | n ->
          received := !received + n;
          loop ()
    in
    loop ()
  in
  let push send close =
    Kclock.sleep_ns 2_000_000;
    start_a := Machine.now a.Clientos.machine;
    for _ = 1 to blocks do
      let sent = send block blocksize in
      if sent <> blocksize then failwith "short send"
    done;
    done_send := Machine.now a.Clientos.machine - !start_a;
    close ()
  in
  (match config with
  | `Oskit ->
      let env_a, _ = Clientos.oskit_host a ~ip:(ip "10.0.0.1") ~mask in
      let env_b, _ = Clientos.oskit_host b ~ip:(ip "10.0.0.2") ~mask in
      Clientos.spawn b ~name:"ttcp-r" (fun () ->
          let fd = ok (Posix.socket env_b Io_if.Sock_stream) in
          ok (Posix.bind env_b fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
          ok (Posix.listen env_b fd ~backlog:1);
          let conn, _ = ok (Posix.accept env_b fd) in
          sink (fun buf len -> ok (Posix.recv env_b conn buf ~pos:0 ~len)));
      Clientos.spawn a ~name:"ttcp-t" (fun () ->
          let fd = ok (Posix.socket env_a Io_if.Sock_stream) in
          ok (Posix.connect env_a fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5001 });
          push
            (fun buf len -> ok (Posix.send env_a fd buf ~pos:0 ~len))
            (fun () -> ignore (Posix.shutdown env_a fd)))
  | `Freebsd ->
      let sa = Clientos.freebsd_host a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.freebsd_host b ~ip:(ip "10.0.0.2") ~mask in
      Clientos.spawn b ~name:"ttcp-r" (fun () ->
          let ls = Bsd_socket.tcp_socket sb in
          ok (Bsd_socket.so_bind ls ~port:5001);
          ok (Bsd_socket.so_listen ls ~backlog:1);
          let conn = ok (Bsd_socket.so_accept ls) in
          sink (fun buf len -> ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len)));
      Clientos.spawn a ~name:"ttcp-t" (fun () ->
          let s = Bsd_socket.tcp_socket sa in
          ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:5001);
          push
            (fun buf len -> ok (Bsd_socket.so_send s ~buf ~pos:0 ~len))
            (fun () -> ignore (Bsd_socket.so_close s)))
  | `Linux ->
      let sa = Clientos.linux_host a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.linux_host b ~ip:(ip "10.0.0.2") ~mask in
      Clientos.spawn b ~name:"ttcp-r" (fun () ->
          let ls = Linux_inet.socket sb in
          Linux_inet.bind sb ls ~port:5001;
          Linux_inet.listen sb ls ~backlog:1;
          let conn = ok (Linux_inet.accept sb ls) in
          sink (fun buf len -> ok (Linux_inet.recv sb conn ~buf ~pos:0 ~len)));
      Clientos.spawn a ~name:"ttcp-t" (fun () ->
          let s = Linux_inet.socket sa in
          ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:5001);
          push
            (fun buf len -> ok (Linux_inet.send sa s ~buf ~pos:0 ~len))
            (fun () -> Linux_inet.close sa s)));
  Cost.reset_counters ();
  Clientos.run tb ~until:(fun () -> !done_recv > 0);
  if !received <> total then
    failwith (Printf.sprintf "ttcp: received %d of %d" !received total);
  { bytes = total;
    send_done_ns = !done_send;
    recv_done_ns = !done_recv;
    copies = Cost.counters.Cost.copies;
    glue_crossings = Cost.counters.Cost.glue_crossings }

let mbit_per_s bytes ns = float_of_int bytes *. 8.0 /. float_of_int ns *. 1e3

let config_of_string = function
  | "oskit" -> `Oskit
  | "freebsd" -> `Freebsd
  | "linux" -> `Linux
  | s -> failwith ("unknown config: " ^ s ^ " (oskit|freebsd|linux)")

let name_of = function `Oskit -> "OSKit" | `Freebsd -> "FreeBSD" | `Linux -> "Linux"

let () =
  let config =
    if Array.length Sys.argv > 1 then config_of_string Sys.argv.(1) else `Oskit
  in
  let blocks = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4096 in
  let blocksize = if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 4096 in
  Printf.printf "ttcp: %s, %d blocks x %d bytes = %d MB over 100 Mbps Ethernet\n%!"
    (name_of config) blocks blocksize
    (blocks * blocksize / 1024 / 1024);
  let r = run_config config ~blocks ~blocksize in
  Printf.printf "  sender elapsed:   %8.1f ms -> %6.2f Mbit/s (send side)\n"
    (float_of_int r.send_done_ns /. 1e6)
    (mbit_per_s r.bytes r.send_done_ns);
  Printf.printf "  receiver done at: %8.1f ms -> %6.2f Mbit/s (end to end)\n"
    (float_of_int r.recv_done_ns /. 1e6)
    (mbit_per_s r.bytes r.recv_done_ns);
  Printf.printf "  data copies: %d   glue crossings: %d\n" r.copies r.glue_crossings
