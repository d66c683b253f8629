(* smpbench — the SMP scale-out experiment: the event-driven HTTP server
   of bench/httpbench sharded netisr-style across a multi-CPU machine.

   The server machine runs [ncpus] logical CPUs.  NIC RX computes an RSS
   hash over each frame's 4-tuple and steers it to the flow's home CPU
   before any per-frame driver work, so driver, protocol input, and socket
   wakeups all charge that CPU's clock; one reactor per CPU (each driven
   by a loop thread pinned there) serves the connections whose flows hash
   home to it.  The listen socket accepts on CPU 0 and each accepted
   connection migrates to its RSS home — the DragonFly shape.

   Clients run on an equally provisioned multi-CPU machine (round-robin
   thread placement) over a gigabit wire, so at every width the measured
   bottleneck is the server CPUs, not the client or the cable.  Every
   response is checked byte for byte against the served file — sharding
   that reorders or crosses flows would show up as mismatches, not just as
   noise in the rate. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let server_ip = ip "10.0.0.2"
let server_port = 80

let ok = function
  | Ok v -> v
  | Error e -> failwith ("smpbench: " ^ Error.to_string e)

(* Same position-dependent file as httpbench: delivery is provably exact. *)
let file_bytes = 1024
let pattern pos = (pos * 131) land 0xff

let make_root () =
  let dev = Mem_blkio.make ~bytes:(1 lsl 20) () in
  let root = ok (Fs_glue.newfs dev) in
  let f = ok (root.Io_if.d_create "index.html") in
  let body = Bytes.init file_bytes (fun i -> Char.chr (pattern i)) in
  let rec push off =
    if off < file_bytes then
      match f.Io_if.f_write ~buf:body ~pos:off ~offset:off ~amount:(file_bytes - off) with
      | Ok n -> push (off + n)
      | Error e -> failwith ("smpbench: write: " ^ Error.to_string e)
  in
  push 0;
  root, Bytes.to_string body

(* The widest row is a 2048-client connect burst: the listen backlog and
   the per-CPU netisr queue are provisioned for it (the real knobs — a
   listen(2) backlog and net.isr.maxqlen — are sized to the offered load
   the same way), so no row's rate is set by a drop-and-retransmit tail. *)
let backlog = 4096
let netisr_qmax = 4096

type result = {
  r_ncpus : int;
  r_clients : int;
  r_requests : int;
  r_duration_ms : float;
  r_rps : float;
  r_p50_us : float;
  r_p99_us : float;
  r_responses : int;
  r_mismatches : int; (* client-side byte-exactness failures *)
  r_rss_steered : int; (* frames the NIC's hardware RSS queued to a home CPU *)
  r_netisr_queued : int; (* frames that crossed CPUs through the netisr *)
  r_netisr_drops : int;
  r_spin_contentions : int; (* must stay 0: the hot path takes no locks *)
  r_cpu_share : float array; (* fraction of steered frames per server CPU *)
}

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* One run: [clients] blocking FreeBSD-native clients, [ncpus] CPUs on
   BOTH machines, reactor serving sharded across the server's CPUs.
   Header prediction is on uniformly, so rows differ only in CPU count. *)
let run ?(reqs_per_client = 2) ~ncpus ~clients () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  let saved_ncpus = Cost.config.Cost.ncpus in
  let saved_fast = Cost.config.Cost.tcp_fastpath in
  let saved_qmax = Cost.config.Cost.netisr_qmax in
  Cost.config.Cost.ncpus <- ncpus;
  Cost.config.Cost.tcp_fastpath <- true;
  Cost.config.Cost.netisr_qmax <- netisr_qmax;
  Fun.protect
    ~finally:(fun () ->
      Cost.config.Cost.ncpus <- saved_ncpus;
      Cost.config.Cost.tcp_fastpath <- saved_fast;
      Cost.config.Cost.netisr_qmax <- saved_qmax)
  @@ fun () ->
  let tb =
    Clientos.make_testbed ~models:("3c905", "fxp-sim")
      ~bandwidth_bps:1_000_000_000 ()
  in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let root, expect = make_root () in
  let stack = Clientos.freebsd_host server ~ip:server_ip ~mask in
  let sock = Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack) in
  let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let server_stats = ref None in
  let reactors = Array.init ncpus (fun _ -> Reactor.create ()) in
  (* A connection's home CPU from the accept-time peer address: the same
     symmetric flow hash RX steering uses, so the reactor that parks the
     connection is the CPU its frames arrive on. *)
  let home (peer : Io_if.sockaddr) =
    Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:server_ip ~port_a:server_port
      ~addr_b:peer.Io_if.sin_addr ~port_b:peer.Io_if.sin_port
  in
  Clientos.spawn server ~cpu:0 ~name:"httpd-accept" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = server_port });
      ok (sock.Io_if.so_listen ~backlog);
      server_stats :=
        Some (Httpd.serve_reactor_sharded ~reactors ~home ~root ~sock ());
      Reactor.run reactors.(0) ~until:all_done);
  for c = 1 to ncpus - 1 do
    Clientos.spawn server ~cpu:c
      ~name:(Printf.sprintf "httpd-cpu%d" c)
      (fun () -> Reactor.run reactors.(c) ~until:all_done)
  done;
  let samples = ref [] in
  let mismatches = ref 0 in
  let t_start = ref max_int and t_end = ref 0 in
  let request = "GET /index.html HTTP/1.0\r\n\r\n" in
  let do_request ~record () =
    let t0 = Machine.now chost.Clientos.machine in
    let s = Bsd_socket.tcp_socket cstack in
    (match Bsd_socket.so_connect s ~dst:server_ip ~dport:server_port with
    | Error _ -> incr mismatches
    | Ok () ->
        let b = Bytes.of_string request in
        let rec push off =
          if off < Bytes.length b then
            match Bsd_socket.so_send s ~buf:b ~pos:off ~len:(Bytes.length b - off) with
            | Ok n -> push (off + n)
            | Error _ -> ()
        in
        push 0;
        let buf = Bytes.create 4096 in
        let acc = Buffer.create (file_bytes + 256) in
        let rec drain () =
          match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
          | Ok 0 | Error _ -> ()
          | Ok n ->
              Buffer.add_subbytes acc buf 0 n;
              drain ()
        in
        drain ();
        let resp = Buffer.contents acc in
        let exact =
          String.length resp > 12
          && String.sub resp 0 12 = "HTTP/1.0 200"
          && match index_of resp "\r\n\r\n" with
             | Some i -> String.sub resp (i + 4) (String.length resp - i - 4) = expect
             | None -> false
        in
        if not exact then incr mismatches);
    ignore (Bsd_socket.so_close s);
    let t1 = Machine.now chost.Clientos.machine in
    if record then begin
      if t0 < !t_start then t_start := t0;
      if t1 > !t_end then t_end := t1;
      samples := (t1 - t0) :: !samples
    end
  in
  (* One unmeasured request resolves ARP first (as in httpbench). *)
  let warm = ref false in
  Clientos.spawn chost ~cpu:0 ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      do_request ~record:false ();
      warm := true);
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~cpu:(i mod ncpus)
      ~name:(Printf.sprintf "c%d" i)
      (fun () ->
        Kclock.sleep_ns (6_000_000 + (i * 200));
        while not !warm do
          Kclock.sleep_ns 200_000
        done;
        for _ = 1 to reqs_per_client do
          do_request ~record:true ()
        done;
        incr done_clients)
  done;
  Clientos.run tb ~until:all_done;
  if Sys.getenv_opt "OSKIT_SMP_DEBUG" <> None then begin
    let dump name m =
      Printf.printf "%s clocks:" name;
      for c = 0 to ncpus - 1 do
        Printf.printf " %d" (Machine.cpu_now m ~cpu:c / 1_000_000)
      done;
      Printf.printf "  busy:";
      for c = 0 to ncpus - 1 do
        Printf.printf " %d" (Machine.cpu_busy_ns m ~cpu:c / 1_000_000)
      done;
      print_newline ()
    in
    dump "server" server.Clientos.machine;
    dump "client" chost.Clientos.machine
  end;
  let st = Option.get !server_stats in
  let pct = Percentile.us_of_ns (Array.of_list !samples) in
  let duration = max 1 (!t_end - !t_start) in
  let total = clients * reqs_per_client in
  (* Per-CPU share of the server's sharded segment input: how evenly RSS
     spread the offered flows. *)
  let per_cpu =
    Array.init ncpus (fun c -> (Tcp.stats_for stack.Bsd_socket.tcp ~cpu:c).Tcp.rcvpack)
  in
  let tot_steered = max 1 (Array.fold_left ( + ) 0 per_cpu) in
  { r_ncpus = ncpus;
    r_clients = clients;
    r_requests = total;
    r_duration_ms = float_of_int duration /. 1e6;
    r_rps = float_of_int total *. 1e9 /. float_of_int duration;
    r_p50_us = pct 50;
    r_p99_us = pct 99;
    (* minus the unmeasured warmup request *)
    r_responses = st.Httpd.responses - 1;
    r_mismatches = !mismatches;
    r_rss_steered = Cost.counters.Cost.rss_steered;
    r_netisr_queued = Cost.counters.Cost.netisr_queued;
    r_netisr_drops = Cost.counters.Cost.netisr_drops;
    r_spin_contentions = Cost.counters.Cost.spin_contentions;
    r_cpu_share =
      Array.map (fun v -> float_of_int v /. float_of_int tot_steered) per_cpu }
