(* httpbench — the asyncio concurrency experiment: one HTTP/1.0 static-file
   server component (lib/httpd) run in its two serving shapes against a
   swarm of simultaneous clients, on either protocol stack.

   The server speaks to its sockets only through the COM interfaces
   (oskit_socket + oskit_asyncio), so the same component binary serves
   from the FreeBSD stack (Freebsd_glue.socket_com) or the Linux stack
   (Linux_sock_com.socket_com) — the separability argument of Section 4.4,
   extended to the readiness path.

   The comparison is at EQUAL MEMORY: a RAM budget is divided by what a
   connection costs in each shape (a parked handler thread owns a 32KB
   kernel stack; a reactor connection owns a 2KB state record), which caps
   thread-per-connection far below the event-driven server.  Beyond its
   cap the threaded server's accept queue backs up and the stack's listen
   backlog drops SYNs — the drops surface in the per-stack
   [listen_overflow] counter and in the clients' p99 (a dropped SYN costs
   a retransmit timeout). *)

type config = Freebsd_com | Linux_com | Oskit_com

let config_name = function
  | Freebsd_com -> "FreeBSD"
  | Linux_com -> "Linux"
  | Oskit_com -> "OSKit"

type mode = Reactor | Threads

let mode_name = function Reactor -> "reactor" | Threads -> "threads"

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("httpbench: " ^ Error.to_string e)

(* ---- the served file: position-dependent bytes so delivery is provably
   byte-exact end to end (same discipline as the chaos bench) ---- *)

let file_bytes = 1024
let pattern pos = (pos * 131) land 0xff

(* A freshly formatted memfs with one file — the FFS/blkio path the server
   reads through on every request. *)
let make_root () =
  let dev = Mem_blkio.make ~bytes:(1 lsl 20) () in
  let root = ok (Fs_glue.newfs dev) in
  let f = ok (root.Io_if.d_create "index.html") in
  let body = Bytes.init file_bytes (fun i -> Char.chr (pattern i)) in
  let rec push off =
    if off < file_bytes then
      match f.Io_if.f_write ~buf:body ~pos:off ~offset:off ~amount:(file_bytes - off) with
      | Ok n -> push (off + n)
      | Error e -> failwith ("httpbench: write: " ^ Error.to_string e)
  in
  push 0;
  root, Bytes.to_string body

(* ---- the equal-memory budget ---- *)

let ram_budget = 512 * 1024
let max_threads = ram_budget / Httpd.thread_stack_bytes (* 16 *)
let max_conns = ram_budget / Httpd.conn_state_bytes (* 256 *)
let backlog = 128

(* What a thread costs to create (stack allocation + context setup),
   charged to the server machine per spawned handler.  Zero by default so
   the calibrated Table 1/2 runs are untouched; the concurrency bench is
   exactly the workload where it matters. *)
let spawn_cycles = 20_000

type result = {
  r_config : config;
  r_mode : mode;
  r_clients : int;
  r_requests : int;
  r_duration_ms : float;
  r_rps : float;
  r_p50_us : float;
  r_p99_us : float;
  r_peak_active : int; (* high-water concurrent connections in the server *)
  r_accepted : int;
  r_responses : int;
  r_shed : int;
  r_listen_overflow : int; (* stack-level accept-queue SYN drops *)
  r_protocol_errors : int;
  r_mismatches : int; (* client-side byte-exactness failures *)
  r_reactor_sleeps : int;
  r_reactor_spurious : int;
}

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* Clients are deliberately slow: the request goes out in two pieces with
   [think_ns] between them, the way a WAN client's request straggles in
   over a long RTT.  Every connection is therefore open for at least
   [think_ns] of world time, which is what piles connections up at the
   server — the regime where thread-per-connection burns a parked stack
   per connection and the reactor burns a 2KB record. *)
let think_ns = 5_000_000

(* One run: [clients] FreeBSD-native blocking clients on host_a each issue
   [reqs_per_client] sequential GETs against the server on host_b.  All
   clients start inside a ~200ns-per-client window, so the connect burst
   is near-simultaneous — the regime the reactor exists for. *)
let run ?(reqs_per_client = 2) ~config ~mode ~clients () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  let saved_spawn = Cost.config.Cost.thread_spawn_cycles in
  Cost.config.Cost.thread_spawn_cycles <- spawn_cycles;
  Fun.protect
    ~finally:(fun () -> Cost.config.Cost.thread_spawn_cycles <- saved_spawn)
  @@ fun () ->
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let root, expect = make_root () in
  let sock, listen_overflow =
    match config with
    | Freebsd_com ->
        let stack = Clientos.freebsd_host server ~ip:(ip "10.0.0.2") ~mask in
        ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
          fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
    | Linux_com ->
        let stack = Clientos.linux_host server ~ip:(ip "10.0.0.2") ~mask in
        ( Linux_sock_com.socket_com stack (Linux_inet.socket stack),
          fun () -> stack.Linux_inet.listen_overflow )
    | Oskit_com ->
        (* The paper's netcomputer shape: the BSD stack over the Linux
           driver through fdev/COM — the only configuration whose receive
           frames cross the glue, so the only one the batched-RX counters
           (Cost.rx_polls) can observe. *)
        let _env, stack = Clientos.oskit_host server ~ip:(ip "10.0.0.2") ~mask in
        ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
          fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
  in
  let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let server_stats = ref None in
  let reactor = Reactor.create () in
  Clientos.spawn server ~name:"httpd" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 80 });
      ok (sock.Io_if.so_listen ~backlog);
      match mode with
      | Reactor ->
          server_stats := Some (Httpd.serve_reactor ~reactor ~root ~sock ~max_conns ());
          Reactor.run reactor ~until:all_done
      | Threads ->
          server_stats :=
            Some
              (Httpd.serve_threaded
                 ~spawn:(fun f -> Clientos.spawn server f)
                 ~root ~sock ~max_threads ()));
  let samples = ref [] in
  let mismatches = ref 0 in
  let t_start = ref max_int and t_end = ref 0 in
  let request_head = "GET /index.html HTTP/1.0\r\n" in
  let request_tail = "\r\n" in
  let do_request ~record () =
    let t0 = Machine.now chost.Clientos.machine in
    let s = Bsd_socket.tcp_socket cstack in
    (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80 with
    | Error _ -> incr mismatches
    | Ok () ->
        let push frag =
          let b = Bytes.of_string frag in
          let rec go off =
            if off < Bytes.length b then
              match Bsd_socket.so_send s ~buf:b ~pos:off ~len:(Bytes.length b - off) with
              | Ok n -> go (off + n)
              | Error _ -> ()
          in
          go 0
        in
        (* The slow-client dribble: request line now, terminator later. *)
        push request_head;
        Kclock.sleep_ns think_ns;
        push request_tail;
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
  (* One unmeasured request first: it resolves ARP on both machines, so
     the measured burst is a TCP burst and not a fight over the bounded
     ARP waiter queue (PR 2's drop-head bound would serialize it). *)
  let warm = ref false in
  Clientos.spawn chost ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      do_request ~record:false ();
      warm := true);
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~name:(Printf.sprintf "c%d" i) (fun () ->
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
  let st = Option.get !server_stats in
  let pct = Percentile.us_of_ns (Array.of_list !samples) in
  let duration = max 1 (!t_end - !t_start) in
  let total = clients * reqs_per_client in
  let rstats = Reactor.stats reactor in
  { r_config = config;
    r_mode = mode;
    r_clients = clients;
    r_requests = total;
    r_duration_ms = float_of_int duration /. 1e6;
    r_rps = float_of_int total *. 1e9 /. float_of_int duration;
    r_p50_us = pct 50;
    r_p99_us = pct 99;
    r_peak_active = st.Httpd.peak_active;
    (* minus the unmeasured warmup request *)
    r_accepted = st.Httpd.accepted - 1;
    r_responses = st.Httpd.responses - 1;
    r_shed = st.Httpd.shed;
    r_listen_overflow = listen_overflow ();
    r_protocol_errors = st.Httpd.protocol_errors;
    r_mismatches = !mismatches;
    r_reactor_sleeps = rstats.Reactor.sleeps;
    r_reactor_spurious = rstats.Reactor.spurious }
