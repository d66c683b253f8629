(* overloadbench — survival under deliberate overload, measured.

   Three attacks, each against both protocol stacks (or the httpd built
   over them), each with its defense off and on, on the deterministic
   virtual-time testbed:

     flood   a 10x spoofed-source SYN flood against a depth-4 listener
             while legitimate clients download; the metric is the
             goodput the LEGITIMATE clients still see, and how many of
             them get served at all.
     alloc   a ttcp-style bulk transfer while the seeded allocation
             injector fails 0.1%-1% of pooled packet-buffer allocations
             (in bursts): the transfer must stay byte-exact and every
             failure must surface as a counted drop, never a crash.
     loris   Slowloris against the event-driven httpd: attackers park
             half-finished requests to exhaust the connection budget;
             with the guard on, the header deadline reclaims them and
             late legitimate clients are still served.

   Each run installs its own profile: the paper defaults with the
   overload fields it studies changed, so the calibrated Table 1/2/rtt
   baselines never see any of this machinery.  Its testbed re-seeds the
   allocation injector from that profile.  The servers are lib/ttcp's
   endpoints (Endpoint) and the soak is the stream harness's run; the
   Slowloris runs are the shared HTTP harness (Httpbench) under such a
   profile. *)

let ip, mask, ok, pattern = Endpoint.(ip, mask, ok, pattern)

let paper = Cost.paper ()

(* One crafted option-less TCP segment out of [cstack] with a spoofable
   source — the attacker's packet injector. *)
let send_raw_tcp cstack ~src ~sport ~dst ~dport ~seq ~flags =
  Ip.output cstack.Bsd_socket.ip ~proto:Ip.proto_tcp ~src ~dst
    (Tcp.raw_segment ~src ~dst ~sport ~dport ~seq ~ack:0 ~flags ~win:8192 ~mss:None)

(* ------------------------------------------------------------------ *)
(* flood: legitimate goodput through a spoofed SYN flood               *)

type flood_result = {
  fl_profile : Cost.config; (* the paper's, syn_defense as asked *)
  fl_served : int;  (* legitimate clients served byte-exact *)
  fl_bytes : int;   (* legitimate bytes delivered *)
  fl_goodput_mbit : float;
  fl_syncache_added : int;
  fl_completed : int; (* handshakes finished from cache or cookie *)
  fl_listen_overflow : int;
}

let flood_profile ~defense = { paper with Cost.syn_defense = defense }

(* [legit] clients each download [bytes_per_client] from the server while
   [flood] spoofed SYNs hammer the same listener.  The clients are plain
   blocking BSD sockets: a client whose connect fails (the undefended
   stack's backlog is full of embryonic corpses) counts as unserved. *)
let flood_run ~server ~defense ~flood ~legit ~bytes_per_client () =
  let profile = flood_profile ~defense in
  Cost.with_config profile (fun () ->
      let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
      let chost = tb.Clientos.host_a in
      let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
      let served = ref 0 and finished = ref 0 and bytes_got = ref 0 in
      let t_start = ref max_int and t_end = ref 0 in
      let block = Bytes.init 4096 (fun i -> Char.chr (pattern i)) in
      let serve (c : Endpoint.conn) =
        (* Push bytes_per_client of patterned data, then close. *)
        let rec push sent =
          if sent < bytes_per_client then begin
            let n = min 4096 (bytes_per_client - sent) in
            match c.send ~buf:block ~pos:0 ~len:n with
            | Ok k when k > 0 -> push (sent + k)
            | Ok _ -> push sent
            | Error _ -> ()
          end
        in
        push 0;
        c.close ()
      in
      let srv = Endpoint.setup server tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
      Clientos.spawn srv.host ~name:"srv" (fun () ->
          let accept = srv.listen ~port:7900 ~backlog:4 in
          for _ = 1 to legit do
            serve (ok (accept ()))
          done);
      let counters () =
        match srv.stack with
        | Endpoint.Lx sb ->
            let sc = sb.Linux_inet.syncache.Syncache.stats in
            ( sc.Syncache.added,
              sc.Syncache.completed + sc.Syncache.validated,
              sb.Linux_inet.listen_overflow )
        | Endpoint.Bsd sb ->
            let sc = sb.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
            ( sc.Syncache.added,
              sc.Syncache.completed + sc.Syncache.validated,
              sb.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
      in
      (* The flood: every SYN from a distinct spoofed same-subnet source,
         so the SYN-ACKs die waiting on ARP for hosts that do not exist.
         One warm-up SYN resolves the attacker's own ARP entry so the
         burst is not throttled by the bounded ARP waiter queue. *)
      Clientos.spawn chost ~name:"flood" (fun () ->
          Kclock.sleep_ns 1_000_000;
          send_raw_tcp cstack ~src:(ip "10.0.0.99") ~sport:1999 ~dst:(ip "10.0.0.2")
            ~dport:7900 ~seq:1 ~flags:Tcp.th_syn;
          Kclock.sleep_ns 500_000;
          for i = 0 to flood - 1 do
            send_raw_tcp cstack
              ~src:(ip (Printf.sprintf "10.0.1.%d" (1 + (i mod 250))))
              ~sport:(2000 + i) ~dst:(ip "10.0.0.2") ~dport:7900 ~seq:(7 * i)
              ~flags:Tcp.th_syn
          done);
      for i = 0 to legit - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 500_000));
            let t0 = Machine.now chost.Clientos.machine in
            if t0 < !t_start then t_start := t0;
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7900 with
            | Error _ -> ()
            | Ok () ->
                let buf = Bytes.create 4096 in
                let got = ref 0 and mism = ref 0 in
                let rec drain () =
                  match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
                  | Ok 0 | Error _ -> ()
                  | Ok n ->
                      for j = 0 to n - 1 do
                        if Char.code (Bytes.get buf j) <> pattern ((!got + j) mod 4096)
                        then incr mism
                      done;
                      got := !got + n;
                      drain ()
                in
                drain ();
                bytes_got := !bytes_got + !got;
                if !got = bytes_per_client && !mism = 0 then incr served);
            ignore (Bsd_socket.so_close s);
            let t1 = Machine.now chost.Clientos.machine in
            if t1 > !t_end then t_end := t1;
            incr finished)
      done;
      Clientos.run tb ~until:(fun () -> !finished >= legit);
      let dur = max 1 (!t_end - !t_start) in
      let added, completed, overflow = counters () in
      { fl_profile = profile; fl_served = !served; fl_bytes = !bytes_got;
        fl_goodput_mbit = 8.0 *. float_of_int !bytes_got /. float_of_int dur *. 1000.0;
        fl_syncache_added = added; fl_completed = completed;
        fl_listen_overflow = overflow })

(* ------------------------------------------------------------------ *)
(* alloc: bulk transfer under injected allocation failure              *)

type alloc_result = {
  al_profile : Cost.config; (* the injector's probability and seed *)
  al_byte_exact : bool;
  al_goodput_mbit : float;
  al_draws : int;
  al_failures : int;
  al_nomem_drops : int; (* stack-counted drops on the receiver+sender *)
}

let alloc_profile ~prob ~seed =
  { paper with Cost.alloc_fail_prob = prob; alloc_fail_seed = seed; alloc_fail_burst = 2 }

(* A backpressure-honest stream: the sender retries short sends, Nomem
   and a refused connect.  Goodput is on the sender's clock, connect to
   close. *)
let alloc_run ~server ~prob ~seed ~bytes () =
  let profile = alloc_profile ~prob ~seed in
  Cost.with_config profile (fun () ->
      let r =
        Netbench.stream ~retry:true
          { Workload.table1 with
            sender = server; receiver = server; bytes; recv_chunk = 4096; delay_ns = 1_000_000 }
      in
      { al_profile = profile;
        al_byte_exact = r.byte_exact;
        al_goodput_mbit =
          8.0 *. float_of_int r.received /. float_of_int (max 1 r.conn_ns) *. 1000.0;
        al_draws = Memfault.draws (); al_failures = Memfault.failures ();
        al_nomem_drops = r.nomem_drops })

(* ------------------------------------------------------------------ *)
(* loris: Slowloris vs the httpd header deadline                       *)

(* The guard is the httpd's two header bounds: a 50 ms deadline and 4 KB
   of header.  Unguarded is the paper profile, where both are 0 (off). *)
let loris_profile ~guard =
  if guard then
    { paper with Cost.httpd_header_deadline_ns = 50_000_000; httpd_max_header_bytes = 4096 }
  else paper

(* [loris] attackers each park a half-finished request.  The server's
   connection budget is exactly [loris] — without the guard the attackers
   own every slot when the [legit] clients arrive at t=100ms and each one
   is shed on accept; with the 50 ms header deadline the slots have
   already been reclaimed.  A legitimate client is served when its one
   HTTP/1.0 GET comes back a byte-exact 200. *)
let loris_run ~guard ~loris ~legit () =
  Httpbench.run ~profile:(loris_profile ~guard)
    { Httpbench.concurrency with
      Httpbench.backlog = 32;
      max_threads = None;
      max_conns = Some loris;
      request = Httpbench.Http10;
      reqs_per_client = 1;
      start_ns = 100_000_000;
      stagger_ns = 200_000;
      warmup = false;
      loris }
    ~stack:Endpoint.Freebsd ~shape:Httpbench.Reactor ~clients:legit ()

let loris_served r = r.Httpbench.r_requests - r.Httpbench.r_mismatches
