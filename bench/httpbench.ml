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
   is checked byte for byte against the served file.

   A run is [serve] (the testbed, the site and the server) plus clients
   built from [connect], [send_string], [drain] and [reader].  The HTTP
   tests use the same parts with their own clients, so the code that
   decides the bench's byte-exact verdicts is the code the tests
   exercise. *)

type shape = Reactor | Threads

let shape_name = function Reactor -> "reactor" | Threads -> "threads"

let ip, ok = Endpoint.(ip, ok)
let server_ip = ip "10.0.0.2"
let server_port = 80

(* ---- the served site: each file has its own position-dependent bytes,
   so delivery is provably byte-exact end to end and responses cannot be
   confused ---- *)

type site = {
  disk_bytes : int; (* memfs device the site is formatted on *)
  files : (string * int) array; (* each file's name and size *)
}

let pattern ~file pos = ((pos * 131) + (file * 17)) land 0xff

(* One 1 KB page on a 1 MB disk. *)
let index_site = { disk_bytes = 1 lsl 20; files = [| ("index.html", 1024) |] }

(* Files f0.bin, f1.bin, ... of the given sizes.  16 MB, because ninodes
   scales with the device (nblocks/8) and 4 MB leaves only 125 usable
   inodes. *)
let file_site sizes =
  { disk_bytes = 16 lsl 20;
    files = Array.mapi (fun i n -> (Printf.sprintf "f%d.bin" i, n)) sizes }

(* A freshly formatted memfs holding the site — the FFS/blkio path the
   server reads through on every request — and its buffer cache. *)
let make_root site =
  let fs, root = ok (Fs_glue.newfs_fs (Mem_blkio.make ~bytes:site.disk_bytes ())) in
  let bodies =
    Array.mapi
      (fun fi (name, n) ->
        let f = ok (root.Io_if.d_create name) in
        let body = Bytes.init n (fun i -> Char.chr (pattern ~file:fi i)) in
        let rec push off =
          if off < n then
            push (off + ok (f.Io_if.f_write ~buf:body ~pos:off ~offset:off ~amount:(n - off)))
        in
        push 0;
        Bytes.to_string body)
      site.files
  in
  root, bodies, fs.Ffs.bc

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
  r_stack : Endpoint.config;
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
  r_glue_crossings : int; (* measured run only; both machines *)
  r_checksummed_bytes : int; (* measured run only; both machines *)
  r_server_ledger : Workload.ledger; (* measured run only *)
  r_rss_steered : int; (* frames the NIC's hardware RSS queued to a home CPU *)
  r_netisr_queued : int; (* frames that crossed CPUs through the netisr *)
  r_netisr_drops : int;
  r_spin_contentions : int;
  r_rx_polls : int; (* batched RX deliveries through the glue *)
  r_rx_frames : int;
  r_cpu_share : float array; (* fraction of segment input per server CPU *)
}

(* ---- responses ---- *)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* The line of [s] that starts at [i], without its CR LF. *)
let line_at s i =
  let rest = String.sub s i (String.length s - i) in
  match String.index_opt rest '\r' with Some j -> String.sub rest 0 j | None -> rest

(* The value of header [name] (lowercase) in a header block, if present. *)
let header_value hdr name =
  Option.map
    (fun i -> String.trim (line_at hdr (i + String.length name + 1)))
    (index_of (String.lowercase_ascii hdr) (name ^ ":"))

let content_length hdr = Option.bind (header_value hdr "content-length") int_of_string_opt

(* What follows the blank line that ends a response's header block. *)
let body_of resp =
  Option.map
    (fun i -> String.sub resp (i + 4) (String.length resp - i - 4))
    (index_of resp "\r\n\r\n")

(* The one response check: a 200 in the request's HTTP version, carrying
   exactly [body]. *)
let is_200 v hdr = String.length hdr > 12 && String.sub hdr 0 12 = "HTTP/" ^ v ^ " 200"
let exact_200 resp body = is_200 "1.0" resp && body_of resp = Some body

(* ---- the client side, over any stream connection ---- *)

(* Send [s] whole; an error ends it early. *)
let send_string (c : Endpoint.conn) s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match c.send ~buf:b ~pos:off ~len:(Bytes.length b - off) with
      | Ok n -> go (off + n)
      | Error _ -> ()
  in
  go 0

(* Everything [c] delivers until EOF or an error. *)
let drain ?(size_hint = 4096) (c : Endpoint.conn) =
  let buf = Bytes.create 4096 and acc = Buffer.create size_hint in
  let rec go () =
    match c.recv ~buf ~pos:0 ~len:4096 with
    | Ok 0 | Error _ -> Buffer.contents acc
    | Ok n ->
        Buffer.add_subbytes acc buf 0 n;
        go ()
  in
  go ()

(* A Content-Length framer over [c]: each call of the result reads the
   next response as (header block, body) — or None at EOF, on a header
   block with no Content-Length, or when the stream ends mid-body. *)
let reader (c : Endpoint.conn) =
  let buf = Bytes.create 4096 and acc = Buffer.create 4096 in
  let consumed = ref 0 in
  let rec fill need =
    Buffer.length acc - !consumed >= need
    ||
    match c.recv ~buf ~pos:0 ~len:4096 with
    | Ok 0 | Error _ -> false
    | Ok n ->
        Buffer.add_subbytes acc buf 0 n;
        fill need
  in
  let avail () = String.sub (Buffer.contents acc) !consumed (Buffer.length acc - !consumed) in
  let rec hdr_end () =
    match index_of (avail ()) "\r\n\r\n" with
    | Some i -> Some i
    | None -> if fill (Buffer.length acc - !consumed + 1) then hdr_end () else None
  in
  fun () ->
    Option.bind (hdr_end ()) (fun he ->
        let hdr = String.sub (avail ()) 0 he in
        match content_length hdr with
        | Some len when fill (he + 4 + len) ->
            let body = String.sub (avail ()) (he + 4) len in
            consumed := !consumed + he + 4 + len;
            if Buffer.length acc = !consumed then begin
              Buffer.clear acc;
              consumed := 0
            end;
            Some (hdr, body)
        | _ -> None)

(* ---- the server side ---- *)

type served = {
  testbed : Clientos.testbed;
  client : Endpoint.t; (* FreeBSD, host A at 10.0.0.1 *)
  server : Endpoint.t; (* host B at [server_ip], whose stack the httpd serves from *)
  bodies : string array; (* the site's files, in order *)
  root : Io_if.dir; (* the served file system's root *)
  bufcache : Buf.t; (* its buffer cache, whose blocks sendfile loans *)
  stats : unit -> Httpd.stats; (* the server's counts, once its thread has started *)
  reactors : Reactor.t array; (* one per server CPU *)
}

(* A fresh testbed serving [site] from the httpd in [shape] on [stack],
   listening at [server_ip]:[server_port], under the installed profile.
   Both machines get its [ncpus] CPUs; the reactor shape runs one reactor
   per server CPU, each driven by a loop thread pinned there until
   [until], and each accepted connection migrates to its RSS home — the
   same symmetric flow hash RX steering uses, so the reactor that parks a
   connection is the CPU its frames arrive on (the DragonFly shape; at 1
   CPU exactly [Httpd.serve_reactor]).  The caller spawns its clients on
   [client] and runs the testbed. *)
let serve ?models ?bandwidth_bps ?max_threads ?max_conns ~site ~backlog ~stack ~shape
    ~until () =
  let ncpus = Cost.config.Cost.ncpus in
  let tb = Clientos.make_testbed ?models ?bandwidth_bps () in
  let host = tb.Clientos.host_b in
  let root, bodies, bufcache = make_root site in
  let server = Endpoint.setup stack host ~addr:server_ip in
  let sock =
    match server.stack with
    | Endpoint.Bsd bsd -> Freebsd_glue.socket_com bsd (Bsd_socket.tcp_socket bsd)
    | Endpoint.Lx lx -> Linux_sock_com.socket_com lx (Linux_inet.socket lx)
  in
  let client = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let stats = ref None in
  let reactors = Array.init ncpus (fun _ -> Reactor.create ()) in
  let home (peer : Io_if.sockaddr) =
    Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:server_ip ~port_a:server_port
      ~addr_b:peer.Io_if.sin_addr ~port_b:peer.Io_if.sin_port
  in
  Clientos.spawn host ~cpu:0 ~name:"httpd" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = server_port });
      ok (sock.Io_if.so_listen ~backlog);
      match shape with
      | Reactor ->
          stats :=
            Some (Httpd.serve_reactor_sharded ~reactors ~home ~root ~sock ?max_conns ());
          Reactor.run reactors.(0) ~until
      | Threads ->
          stats :=
            Some
              (Httpd.serve_threaded
                 ~spawn:(fun f -> Clientos.spawn host f)
                 ~root ~sock ?max_threads ()));
  if shape = Reactor then
    for c = 1 to ncpus - 1 do
      Clientos.spawn host ~cpu:c
        ~name:(Printf.sprintf "httpd-cpu%d" c)
        (fun () -> Reactor.run reactors.(c) ~until)
    done;
  { testbed = tb;
    client;
    server;
    bodies;
    root;
    bufcache;
    stats = (fun () -> Option.get !stats);
    reactors }

(* A fresh connection from the client host to the server. *)
let connect s = s.client.connect ~dst:server_ip ~port:server_port

(* ---- one run ---- *)

(* One run: [clients] blocking FreeBSD-native clients on host A each issue
   [d.reqs_per_client] GETs, round-robin over the site, against the
   server on host B, with [profile] installed for the whole run.  [span]
   brackets the measured run ({!Workload.span}): it starts with the first
   measured client, after the warmup. *)
let run ?(profile = Cost.paper ()) ?(span = Workload.no_span) d ~stack ~shape ~clients () =
  Cost.with_config profile @@ fun () ->
  let ncpus = profile.Cost.ncpus in
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let s =
    serve ~models:d.models ?bandwidth_bps:d.bandwidth_bps ?max_threads:d.max_threads
      ?max_conns:d.max_conns ~site:d.site ~backlog:d.backlog ~stack ~shape ~until:all_done ()
  in
  let chost = s.client.host and bodies = s.bodies in
  let files = Array.length bodies in
  let samples = ref [] and mismatches = ref 0 in
  let t_start = ref max_int and t_end = ref 0 in
  let now () = Machine.now chost.Clientos.machine in
  let get fi v = Printf.sprintf "GET /%s HTTP/%s\r\n" (fst d.site.files.(fi)) v in
  (* One connection: connect, [talk] over it, close; timed if recorded.
     A failed connect fails [n] requests. *)
  let connection ~record ~n talk =
    let t0 = now () in
    (match connect s with
    | Error _ -> mismatches := !mismatches + n
    | Ok c ->
        talk c;
        c.close ());
    let t1 = now () in
    if record then begin
      if t0 < !t_start then t_start := t0;
      if t1 > !t_end then t_end := t1;
      samples := (t1 - t0) :: !samples
    end
  in
  (* HTTP/1.0: one request, the response drained to EOF. *)
  let request_10 ~record fi =
    connection ~record ~n:1 (fun c ->
        (match d.request with
        | Http10_dribble ->
            (* The terminator must not wait on the server's delayed ACK of
               the request line (Nagle): the think time alone piles
               connections up. *)
            c.Endpoint.nodelay ();
            send_string c (get fi "1.0");
            Kclock.sleep_ns think_ns;
            send_string c "\r\n"
        | Http10 | Http11 _ -> send_string c (get fi "1.0" ^ "\r\n"));
        let resp = drain ~size_hint:(String.length bodies.(fi) + 256) c in
        if not (exact_200 resp bodies.(fi)) then incr mismatches)
  in
  (* HTTP/1.1: [n] requests from [first] on one connection, sent in
     bursts of [depth] (one send per burst: a pipelining client's
     requests ride a single segment instead of one apiece) and read back
     in order. *)
  let requests_11 ~record ~depth ~first n =
    connection ~record ~n (fun c ->
        let next = reader c in
        let sent = ref 0 in
        while !sent < n do
          let burst = min depth (n - !sent) in
          let file k = (first + !sent + k) mod files in
          send_string c
            (String.concat ""
               (List.init burst (fun k -> get (file k) "1.1" ^ "Host: b\r\n\r\n")));
          for k = 0 to burst - 1 do
            match next () with
            | Some (hdr, body) when is_200 "1.1" hdr && body = bodies.(file k) -> ()
            | _ -> incr mismatches
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
        connection ~record:false ~n:0 (fun c ->
            send_string c (get 0 "1.0" ^ "X-Slow: yes\r\n");
            (* Hold the connection; never finish the headers. *)
            ignore (c.recv ~buf:(Bytes.create 256) ~pos:0 ~len:256)))
  done;
  (* Counter baseline, taken by the first measured client to start:
     everything after the warmup is the measured run. *)
  let baseline = ref false and c0_hits = ref 0 and c0_misses = ref 0 and c0_glue = ref 0
  and c0_cksum = ref 0 and c0_ledger = ref (Workload.ledger s.server.host) in
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~cpu:(i mod ncpus)
      ~name:(Printf.sprintf "c%d" i)
      (fun () ->
        Kclock.sleep_ns (d.start_ns + (i * d.stagger_ns));
        while not !warm do
          Kclock.sleep_ns 200_000
        done;
        if not !baseline then begin
          baseline := true;
          span.Workload.start ();
          c0_hits := Cost.counters.Cost.bufcache_hits;
          c0_misses := Cost.counters.Cost.bufcache_misses;
          c0_glue := Cost.counters.Cost.glue_crossings;
          c0_cksum := Cost.counters.Cost.checksummed_bytes;
          c0_ledger := Workload.ledger s.server.host
        end;
        requests ~record:true ~first:i d.reqs_per_client;
        incr done_clients)
  done;
  Clientos.run s.testbed ~until:all_done;
  span.Workload.stop ();
  let st = s.stats () in
  let pct = Percentile.us_of_ns (Array.of_list !samples) in
  let duration = max 1 (!t_end - !t_start) in
  let total = clients * d.reqs_per_client in
  let warm_reqs, warm_conns =
    match d.warmup, d.request with
    | false, _ -> 0, 0
    | true, Http11 _ -> files, 1
    | true, (Http10 | Http10_dribble) -> files, files
  in
  let sum f = Array.fold_left (fun a r -> a + f (Reactor.stats r)) 0 s.reactors in
  let listen_overflow, per_cpu =
    match s.server.stack with
    | Endpoint.Bsd bsd ->
        ( bsd.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow,
          Array.init ncpus (fun cpu -> (Tcp.stats_for bsd.Bsd_socket.tcp ~cpu).Tcp.rcvpack) )
    | Endpoint.Lx lx -> lx.Linux_inet.listen_overflow, Array.make ncpus 0
  in
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
    r_listen_overflow = listen_overflow;
    r_mismatches = !mismatches;
    r_reactor_sleeps = sum (fun s -> s.Reactor.sleeps);
    r_reactor_spurious = sum (fun s -> s.Reactor.spurious);
    r_bufcache_hits = c.Cost.bufcache_hits - !c0_hits;
    r_bufcache_misses = c.Cost.bufcache_misses - !c0_misses;
    r_glue_crossings = c.Cost.glue_crossings - !c0_glue;
    r_checksummed_bytes = c.Cost.checksummed_bytes - !c0_cksum;
    r_server_ledger = Workload.since !c0_ledger (Workload.ledger s.server.host);
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
