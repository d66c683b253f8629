(* httpbench — the one HTTP load harness.  A single HTTP static-file server
   component (lib/httpd) runs, unchanged, in either serving shape against a
   swarm of FreeBSD-native clients, on any protocol stack and under any
   cost profile — the separability argument of Section 4.4, extended to
   the readiness path.

   The server speaks to its sockets only through the COM interfaces
   (oskit_socket + oskit_asyncio), so the same component serves from the
   FreeBSD stack (Freebsd_glue.socket_com), the Linux stack
   (Linux_sock_com.socket_com) or the paper's OSKit netcomputer shape.

   What differs between the experiments built on it — the asyncio
   concurrency sweep, the SMP scale-out, the keep-alive/sendfile content
   path and the Slowloris half of the overload bench — is data: a [desc]
   of the run (testbed, site, budgets, request shape, client schedule)
   and a [Cost.config] profile the run is installed under.  Every response
   is checked byte for byte against the served file. *)

type stack = Freebsd_com | Linux_com | Oskit_com

let stack_name = function
  | Freebsd_com -> "FreeBSD"
  | Linux_com -> "Linux"
  | Oskit_com -> "OSKit"

type shape = Reactor | Threads

let shape_name = function Reactor -> "reactor" | Threads -> "threads"

let ip, mask, ok = Netbench.(ip, mask, ok)
let server_ip = ip "10.0.0.2"
let server_port = 80

(* ---- the served site: each file has its own position-dependent bytes,
   so delivery is provably byte-exact end to end and responses cannot be
   confused ---- *)

type site = {
  disk_bytes : int; (* memfs device the site is formatted on *)
  names : string array;
  file_bytes : int;
}

let pattern ~file pos = ((pos * 131) + (file * 17)) land 0xff

(* One 1 KB page on a 1 MB disk. *)
let index_site = { disk_bytes = 1 lsl 20; names = [| "index.html" |]; file_bytes = 1024 }

(* A working set of [files] files.  16 MB, because ninodes scales with the
   device (nblocks/8) and 4 MB leaves only 125 usable inodes. *)
let file_site ~files ~file_bytes =
  { disk_bytes = 16 lsl 20;
    names = Array.init files (Printf.sprintf "f%d.bin");
    file_bytes }

(* A freshly formatted memfs holding the site — the FFS/blkio path the
   server reads through on every request. *)
let make_root site =
  let root = ok (Fs_glue.newfs (Mem_blkio.make ~bytes:site.disk_bytes ())) in
  let n = site.file_bytes in
  let bodies =
    Array.mapi
      (fun fi name ->
        let f = ok (root.Io_if.d_create name) in
        let body = Bytes.init n (fun i -> Char.chr (pattern ~file:fi i)) in
        let rec push off =
          if off < n then
            push (off + ok (f.Io_if.f_write ~buf:body ~pos:off ~offset:off ~amount:(n - off)))
        in
        push 0;
        Bytes.to_string body)
      site.names
  in
  root, bodies

(* ---- the equal-memory budget of the concurrency sweep ---- *)

(* A parked handler thread owns a 32KB kernel stack, a reactor connection
   a 2KB state record: one RAM budget caps thread-per-connection far below
   the event-driven server.  Beyond its cap the threaded server's accept
   queue backs up and the listen backlog drops SYNs — the drops surface in
   [listen_overflow] and in the clients' p99 (a dropped SYN costs a
   retransmit timeout). *)
let ram_budget = 512 * 1024
let max_threads = ram_budget / Httpd.thread_stack_bytes (* 16 *)
let max_conns = ram_budget / Httpd.conn_state_bytes (* 256 *)

(* ---- the description of one run ---- *)

type request =
  | Http10  (** HTTP/1.0, the whole request in one send, drain to EOF *)
  | Http10_dribble
      (** HTTP/1.0 from a slow client: the request line, [think_ns] of
          think time, then the terminator — the way a WAN client's
          request straggles in over a long RTT *)
  | Http11 of int
      (** one keep-alive connection per client, requests pipelined to
          this depth and framed by Content-Length *)

let think_ns = 5_000_000

type desc = {
  models : string * string; (* client and server NIC models *)
  bandwidth_bps : int option; (* None: the 100 Mbit testbed *)
  site : site;
  backlog : int;
  max_threads : int option; (* threaded-shape budget; None = unbounded *)
  max_conns : int option; (* reactor-shape budget; None = unbounded *)
  request : request;
  reqs_per_client : int;
  start_ns : int; (* client i starts at [start_ns + i * stagger_ns] *)
  stagger_ns : int;
  warmup : bool;
      (* one unmeasured pass over the site first: it resolves ARP on both
         machines, so the measured burst is a TCP burst and not a fight
         over the bounded ARP waiter queue, and faults the site into the
         buffer cache *)
  loris : int;
      (* Slowloris attackers, from 3 ms: each parks a request whose
         headers never finish *)
}

(* The asyncio concurrency sweep: slow HTTP/1.0 clients at equal memory.
   All clients start inside a ~200ns-per-client window, so the connect
   burst is near-simultaneous — the regime the reactor exists for, and
   every connection is open for at least [think_ns], which is what piles
   connections up at the server. *)
let concurrency =
  { models = ("3c905", "tulip");
    bandwidth_bps = None;
    site = index_site;
    backlog = 128;
    max_threads = Some max_threads;
    max_conns = Some max_conns;
    request = Http10_dribble;
    reqs_per_client = 2;
    start_ns = 6_000_000;
    stagger_ns = 200;
    warmup = true;
    loris = 0 }

(* What a thread costs to create (stack allocation + context setup),
   charged to the server machine per spawned handler — the concurrency
   sweep is exactly the workload where it matters. *)
let concurrency_profile = { (Cost.paper ()) with Cost.thread_spawn_cycles = 20_000 }

(* ---- one run ---- *)

type result = {
  r_stack : stack;
  r_shape : shape;
  r_desc : desc;
  r_profile : Cost.config;
  r_clients : int;
  r_requests : int;
  r_duration_ms : float;
  r_rps : float;
  r_p50_us : float; (* per request; per connection under Http11 *)
  r_p99_us : float;
  r_server : Httpd.stats; (* the server's own counts, warmup included *)
  r_accepted : int; (* measured: warmup excluded *)
  r_responses : int;
  r_listen_overflow : int; (* stack-level accept-queue SYN drops *)
  r_mismatches : int; (* failed connects and non-byte-exact responses *)
  r_reactor_sleeps : int;
  r_reactor_spurious : int;
  r_bufcache_hits : int; (* measured run only *)
  r_bufcache_misses : int;
  r_rss_steered : int; (* frames the NIC's hardware RSS queued to a home CPU *)
  r_netisr_queued : int; (* frames that crossed CPUs through the netisr *)
  r_netisr_drops : int;
  r_spin_contentions : int;
  r_rx_polls : int; (* batched RX deliveries through the glue *)
  r_rx_frames : int;
  r_cpu_share : float array; (* fraction of segment input per server CPU *)
}

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* Parse "Content-Length: N" out of a response header block. *)
let content_length hdr =
  match index_of (String.lowercase_ascii hdr) "content-length:" with
  | None -> None
  | Some i ->
      let rest = String.sub hdr (i + 15) (String.length hdr - i - 15) in
      let line =
        match String.index_opt rest '\r' with Some j -> String.sub rest 0 j | None -> rest
      in
      int_of_string_opt (String.trim line)

(* The one response check: a 200 in the request's HTTP version, carrying
   exactly [body]. *)
let is_200 v hdr = String.length hdr > 12 && String.sub hdr 0 12 = "HTTP/" ^ v ^ " 200"

let exact_200 resp body =
  is_200 "1.0" resp
  && match index_of resp "\r\n\r\n" with
     | Some i -> String.sub resp (i + 4) (String.length resp - i - 4) = body
     | None -> false

(* The server side: the httpd's listen socket on the chosen stack, its
   listen-overflow counter, and per-CPU segment input. *)
let build_server stack host =
  let bsd stack =
    ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
      (fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow),
      fun cpu -> (Tcp.stats_for stack.Bsd_socket.tcp ~cpu).Tcp.rcvpack )
  in
  match stack with
  | Freebsd_com -> bsd (Clientos.freebsd_host host ~ip:server_ip ~mask)
  | Linux_com ->
      let stack = Clientos.linux_host host ~ip:server_ip ~mask in
      ( Linux_sock_com.socket_com stack (Linux_inet.socket stack),
        (fun () -> stack.Linux_inet.listen_overflow),
        fun _ -> 0 )
  | Oskit_com ->
      (* The paper's netcomputer shape: the BSD stack over the Linux
         driver through fdev/COM — the only configuration whose receive
         frames cross the glue, so the only one the batched-RX counters
         can observe. *)
      bsd (snd (Clientos.oskit_host host ~ip:server_ip ~mask))

(* One run: [clients] blocking FreeBSD-native clients on host_a each issue
   [d.reqs_per_client] GETs, round-robin over the site, against the server
   on host_b, with [profile] installed for the whole run.  Both machines
   get [profile.ncpus] CPUs; the reactor shape runs one reactor per server
   CPU, each driven by a loop thread pinned there, and each accepted
   connection migrates to its RSS home — the same symmetric flow hash RX
   steering uses, so the reactor that parks a connection is the CPU its
   frames arrive on (the DragonFly shape; at 1 CPU exactly
   [Httpd.serve_reactor]). *)
let run ?(profile = Cost.paper ()) d ~stack ~shape ~clients () =
  Cost.with_config profile @@ fun () ->
  Clientos.reset_globals ();
  let ncpus = profile.Cost.ncpus in
  let tb = Clientos.make_testbed ~models:d.models ?bandwidth_bps:d.bandwidth_bps () in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let root, bodies = make_root d.site in
  let files = Array.length bodies in
  let sock, listen_overflow, rcvpack = build_server stack server in
  let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let server_stats = ref None in
  let reactors = Array.init ncpus (fun _ -> Reactor.create ()) in
  let home (peer : Io_if.sockaddr) =
    Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:server_ip ~port_a:server_port
      ~addr_b:peer.Io_if.sin_addr ~port_b:peer.Io_if.sin_port
  in
  Clientos.spawn server ~cpu:0 ~name:"httpd" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = server_port });
      ok (sock.Io_if.so_listen ~backlog:d.backlog);
      match shape with
      | Reactor ->
          server_stats :=
            Some
              (Httpd.serve_reactor_sharded ~reactors ~home ~root ~sock
                 ?max_conns:d.max_conns ());
          Reactor.run reactors.(0) ~until:all_done
      | Threads ->
          server_stats :=
            Some
              (Httpd.serve_threaded
                 ~spawn:(fun f -> Clientos.spawn server f)
                 ~root ~sock ?max_threads:d.max_threads ()));
  if shape = Reactor then
    for c = 1 to ncpus - 1 do
      Clientos.spawn server ~cpu:c
        ~name:(Printf.sprintf "httpd-cpu%d" c)
        (fun () -> Reactor.run reactors.(c) ~until:all_done)
    done;
  let samples = ref [] and mismatches = ref 0 in
  let t_start = ref max_int and t_end = ref 0 in
  let now () = Machine.now chost.Clientos.machine in
  let push s frag =
    let b = Bytes.of_string frag in
    let rec go off =
      if off < Bytes.length b then
        match Bsd_socket.so_send s ~buf:b ~pos:off ~len:(Bytes.length b - off) with
        | Ok n -> go (off + n)
        | Error _ -> ()
    in
    go 0
  in
  let get fi v = Printf.sprintf "GET /%s HTTP/%s\r\n" d.site.names.(fi) v in
  (* One connection: connect, [talk] over it, close; timed if recorded.
     A failed connect fails [n] requests. *)
  let connection ~record ~n talk =
    let t0 = now () in
    let s = Bsd_socket.tcp_socket cstack in
    (match Bsd_socket.so_connect s ~dst:server_ip ~dport:server_port with
    | Error _ -> mismatches := !mismatches + n
    | Ok () -> talk s);
    ignore (Bsd_socket.so_close s);
    let t1 = now () in
    if record then begin
      if t0 < !t_start then t_start := t0;
      if t1 > !t_end then t_end := t1;
      samples := (t1 - t0) :: !samples
    end
  in
  (* HTTP/1.0: one request, the response drained to EOF. *)
  let request_10 ~record fi =
    connection ~record ~n:1 (fun s ->
        (match d.request with
        | Http10_dribble ->
            push s (get fi "1.0");
            Kclock.sleep_ns think_ns;
            push s "\r\n"
        | Http10 | Http11 _ -> push s (get fi "1.0" ^ "\r\n"));
        let buf = Bytes.create 4096 in
        let acc = Buffer.create (d.site.file_bytes + 256) in
        let rec drain () =
          match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
          | Ok 0 | Error _ -> ()
          | Ok n ->
              Buffer.add_subbytes acc buf 0 n;
              drain ()
        in
        drain ();
        if not (exact_200 (Buffer.contents acc) bodies.(fi)) then incr mismatches)
  in
  (* HTTP/1.1: [n] requests from [first] on one connection, sent in
     bursts of [depth] (one send per burst: a pipelining client's
     requests ride a single segment instead of one apiece) and read back
     in order. *)
  let requests_11 ~record ~depth ~first n =
    connection ~record ~n (fun s ->
        let buf = Bytes.create 4096 in
        let acc = Buffer.create (d.site.file_bytes + 256) in
        let consumed = ref 0 in
        let rec fill need =
          Buffer.length acc - !consumed >= need
          ||
          match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
          | Ok 0 | Error _ -> false
          | Ok got ->
              Buffer.add_subbytes acc buf 0 got;
              fill need
        in
        let avail () =
          String.sub (Buffer.contents acc) !consumed (Buffer.length acc - !consumed)
        in
        let rec hdr_end () =
          match index_of (avail ()) "\r\n\r\n" with
          | Some i -> Some i
          | None -> if fill (Buffer.length acc - !consumed + 1) then hdr_end () else None
        in
        let read_resp fi =
          match hdr_end () with
          | None -> incr mismatches
          | Some he -> (
              let hdr = String.sub (avail ()) 0 he in
              match content_length hdr with
              | Some len when fill (he + 4 + len) ->
                  if not (is_200 "1.1" hdr && String.sub (avail ()) (he + 4) len = bodies.(fi)) then
                    incr mismatches;
                  consumed := !consumed + he + 4 + len;
                  if Buffer.length acc = !consumed then begin
                    Buffer.clear acc;
                    consumed := 0
                  end
              | _ -> incr mismatches)
        in
        let sent = ref 0 in
        while !sent < n do
          let burst = min depth (n - !sent) in
          let file k = (first + !sent + k) mod files in
          push s
            (String.concat ""
               (List.init burst (fun k -> get (file k) "1.1" ^ "Host: b\r\n\r\n")));
          for k = 0 to burst - 1 do
            read_resp (file k)
          done;
          sent := !sent + burst
        done)
  in
  (* Client [first]'s [n] requests (the warmup is client 0 over the site). *)
  let requests ~record ~first n =
    match d.request with
    | Http11 depth -> requests_11 ~record ~depth ~first n
    | Http10 | Http10_dribble ->
        for r = 0 to n - 1 do
          request_10 ~record ((first + r) mod files)
        done
  in
  let warm = ref (not d.warmup) in
  if d.warmup then
    Clientos.spawn chost ~cpu:0 ~name:"warmup" (fun () ->
        Kclock.sleep_ns 2_000_000;
        requests ~record:false ~first:0 files;
        warm := true);
  for i = 0 to d.loris - 1 do
    Clientos.spawn chost ~cpu:(i mod ncpus)
      ~name:(Printf.sprintf "loris%d" i)
      (fun () ->
        Kclock.sleep_ns (3_000_000 + (i * 100_000));
        connection ~record:false ~n:0 (fun s ->
            push s (get 0 "1.0" ^ "X-Slow: yes\r\n");
            (* Hold the connection; never finish the headers. *)
            ignore (Bsd_socket.so_recv s ~buf:(Bytes.create 256) ~pos:0 ~len:256)))
  done;
  (* Counter baseline: everything after the warmup is the measured run. *)
  let c0_hits = ref 0 and c0_misses = ref 0 in
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~cpu:(i mod ncpus)
      ~name:(Printf.sprintf "c%d" i)
      (fun () ->
        Kclock.sleep_ns (d.start_ns + (i * d.stagger_ns));
        while not !warm do
          Kclock.sleep_ns 200_000
        done;
        if !c0_hits = 0 && !c0_misses = 0 then begin
          c0_hits := Cost.counters.Cost.bufcache_hits;
          c0_misses := Cost.counters.Cost.bufcache_misses
        end;
        requests ~record:true ~first:i d.reqs_per_client;
        incr done_clients)
  done;
  Clientos.run tb ~until:all_done;
  let st = Option.get !server_stats in
  let pct = Percentile.us_of_ns (Array.of_list !samples) in
  let duration = max 1 (!t_end - !t_start) in
  let total = clients * d.reqs_per_client in
  let warm_reqs, warm_conns =
    match d.warmup, d.request with
    | false, _ -> 0, 0
    | true, Http11 _ -> files, 1
    | true, (Http10 | Http10_dribble) -> files, files
  in
  let sum f = Array.fold_left (fun a r -> a + f (Reactor.stats r)) 0 reactors in
  let per_cpu = Array.init ncpus rcvpack in
  let steered = max 1 (Array.fold_left ( + ) 0 per_cpu) in
  let c = Cost.counters in
  { r_stack = stack;
    r_shape = shape;
    r_desc = d;
    r_profile = profile;
    r_clients = clients;
    r_requests = total;
    r_duration_ms = float_of_int duration /. 1e6;
    r_rps = float_of_int total *. 1e9 /. float_of_int duration;
    r_p50_us = pct 50;
    r_p99_us = pct 99;
    r_server = st;
    r_accepted = st.Httpd.accepted - warm_conns;
    r_responses = st.Httpd.responses - warm_reqs;
    r_listen_overflow = listen_overflow ();
    r_mismatches = !mismatches;
    r_reactor_sleeps = sum (fun s -> s.Reactor.sleeps);
    r_reactor_spurious = sum (fun s -> s.Reactor.spurious);
    r_bufcache_hits = c.Cost.bufcache_hits - !c0_hits;
    r_bufcache_misses = c.Cost.bufcache_misses - !c0_misses;
    r_rss_steered = c.Cost.rss_steered;
    r_netisr_queued = c.Cost.netisr_queued;
    r_netisr_drops = c.Cost.netisr_drops;
    r_spin_contentions = c.Cost.spin_contentions;
    r_rx_polls = c.Cost.rx_polls;
    r_rx_frames = c.Cost.rx_batched_frames;
    r_cpu_share = Array.map (fun v -> float_of_int v /. float_of_int steered) per_cpu }

(* The verdicts every section applies to its rows. *)
let check ~what r =
  if r.r_mismatches > 0 then failwith (what ^ ": response was not byte-exact");
  if r.r_server.Httpd.protocol_errors > 0 then
    failwith (what ^ ": server saw protocol errors");
  if r.r_responses <> r.r_requests then failwith (what ^ ": not every request got a 200")
