(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated testbed, plus the ablations
   DESIGN.md calls out.

   Sections (run all, or name them on the command line):
     table1     TCP bandwidth matrix (ttcp), sg column     — paper Table 1
     table2     TCP 1-byte round-trip latency (rtcp)      — paper Table 2
     table3     component source-size inventory           — paper Table 3
     footprint  static size of the netcomputer config     — paper §6.2.5
     vmnet      TCP throughput measured from the VM       — paper §6.2.6
     alloc      allocator micro-benchmarks (Bechamel)     — paper §6.2.10
     glue       glue-overhead ablation                    — DESIGN.md A
     copies     per-packet copy accounting                — DESIGN.md B
     chaos      ttcp goodput under injected faults        — netem
     rtt        rtcp latency percentiles, receive fast path on/off
     http       event-driven vs threaded HTTP serving     — oskit_asyncio
     longfat    ttcp over RTT x loss grid, wscale/NewReno/autotune
     overload   SYN flood x alloc failure x Slowloris, legit-client goodput
     smp        multi-CPU scale-out: netisr-sharded reactor httpd, RSS steering
     event      kqueue O(ready) dispatch + timing-wheel O(due) curves
     file       HTTP/1.1 keep-alive + sendfile content path

   Every section returns its measurements as records (Record): one cell
   each, keyed by what was run, cost profile included.  The driver prints
   them, checks them against the one bound table below, and under --json
   writes BENCH_<section>.json and regenerates the section's tables in
   EXPERIMENTS.md.  Run from the repository root.

   Network numbers come from the deterministic virtual-time simulation
   (they are not wall-clock); the allocator section uses Bechamel
   wall-clock measurement of the real data structures, so it commits no
   file. *)

open Record

(* Scale knob: OSKIT_BENCH_BLOCKS overrides the per-run block count (the
   paper used 131072 blocks of 4096; the default here keeps a full matrix
   run to a couple of minutes of wall clock with identical shapes).  The
   count is part of every cell it sizes. *)
let blocks =
  match Sys.getenv_opt "OSKIT_BENCH_BLOCKS" with
  | None -> 2048
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf "bench: OSKIT_BENCH_BLOCKS=%S is not a positive block count\n" v;
          exit 2)

let blocksize = 4096

(* ---------------- profiles ---------------- *)

(* Every run is installed under a cost profile ([Cost.with_config]); no
   section edits the live configuration.  [paper] is the paper's measured
   configuration, and each ablation is it with named fields changed; a
   cell names its profile by that difference, "" being the paper's. *)
let paper = Cost.paper ()

let profile_key p =
  Str (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (Cost.diff paper p)))

let profile p = "profile", profile_key p

(* Scatter-gather transmit at the mbuf->skbuff glue. *)
let sg_on = { paper with Cost.sg_tx = true }

(* Both receive-side fast-path fields at once (the hashed demux is always
   on): header prediction and batched RX. *)
let with_fastpath p = { p with Cost.tcp_fastpath = true; rx_batch = 8 }

let fast = with_fastpath paper
let http128_fast = with_fastpath Httpbench.concurrency_profile

(* The smp rows differ only in CPU count: header prediction is on
   throughout, and the per-CPU netisr queue is sized to the 2048-client
   connect burst. *)
let smp_profile ncpus = { paper with Cost.ncpus; tcp_fastpath = true; netisr_qmax = 4096 }

let http10 = paper
let keepalive = { paper with Cost.http_keepalive = true }
let ka_sendfile = { keepalive with Cost.sendfile = true; sg_tx = true }

(* ---------------- records ---------------- *)

let record section cell metrics = { section; cell; metrics }
let yes_no b = Str (if b then "yes" else "no")
let systems = [ Endpoint.Linux; Endpoint.Freebsd; Endpoint.Oskit ]
let system config = "system", Str (Endpoint.config_name config)

(* Host cost: the words the simulator allocates per operation of a cell,
   as Gc deltas around [f], returned with [f]'s result as a function of
   the cell's operation count.  [minor_words_per_op] counts the minor
   heap; [alloc_words_per_op] every word, minor or straight into the major
   heap (what [Gc.allocated_bytes] counts).  Promoted words are left out
   on purpose: which objects a minor collection finds alive depends on
   where the collections fall, so one extra small array per transfer
   moved Table 1's promoted-inclusive major words by 5%, and these two
   columns by at most 0.013%.  The minor heap is emptied on both sides,
   since the counts advance only at a minor collection, and a full major
   cycle goes first, so in a process that runs one section the columns
   repeat to the word (another minor heap size, through OCAMLRUNPARAM,
   moves them). *)
let host_words f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let alloc s = s.Gc.minor_words +. s.major_words -. s.promoted_words in
  let per ops w0 w1 = Float ((w1 -. w0) /. float_of_int ops) in
  ( r,
    fun ops ->
      [ "minor_words_per_op", per ops s0.minor_words s1.minor_words;
        "alloc_words_per_op", per ops (alloc s0) (alloc s1) ] )

(* ttcp from [sender] to [receiver], [blocks] 4 KB blocks, under [profile]. *)
let ttcp ?(profile = paper) ~sender ~receiver ~blocks () =
  let r =
    Cost.with_config profile @@ fun () ->
    Netbench.stream
      { Workload.table1 with sender; receiver; bytes = blocks * blocksize; send_chunk = blocksize }
  in
  if not r.completed then failwith "ttcp: the transfer ran out of fuel";
  r

let per_kpkt (t : Workload.result) n = Int (n * 1000 / max 1 t.wire_carried)

let transfer_counts (t : Workload.result) =
  let c = t.counters in
  [ "copies_per_kpkt", per_kpkt t c.Cost.copies;
    "crossings_per_kpkt", per_kpkt t c.Cost.glue_crossings;
    "sg_xmits", Int c.Cost.sg_xmits;
    "linearized_xmits", Int c.Cost.linearized_xmits;
    "checksummed_bytes", Int c.Cost.checksummed_bytes ]

let rtt_us ?(profile = paper) config ~trips =
  Percentile.mean_us (Cost.with_config profile (fun () -> Netbench.rtt config ~trips)).samples

(* ---------------- Table 1 ---------------- *)

(* Send: [config] transmits to a native FreeBSD sink; receive: a native
   FreeBSD source transmits to [config].  The sg rows repeat the send
   column with scatter-gather transmit on. *)
let table1 () =
  List.concat_map
    (fun p ->
      List.map
        (fun config ->
          let run sender receiver = ttcp ~profile:p ~sender ~receiver ~blocks () in
          (* A paper cell also runs the receive direction: two transfers. *)
          let transfers = if p == paper then 2 else 1 in
          let (send_mbit, counts, recv), words =
            host_words (fun () ->
                (* Only the send run's figures outlive it: its simulated
                   world is garbage before the receive run starts. *)
                let send = run config Endpoint.Freebsd in
                let send_mbit = send.mbit_sender and counts = transfer_counts send in
                ( send_mbit,
                  counts,
                  if transfers = 2 then
                    [ "recv_mbit", Float (run Endpoint.Freebsd config).mbit_receiver ]
                  else [] ))
          in
          record "table1"
            [ system config; profile p; "blocks", Int blocks; "blocksize", Int blocksize ]
            ((("send_mbit", Float send_mbit) :: recv) @ counts @ words (transfers * blocks)))
        systems)
    [ paper; sg_on ]

(* ---------------- Table 2 ---------------- *)

let table2 () =
  List.map
    (fun config ->
      record "table2"
        [ system config; profile paper; "trips", Int 200 ]
        [ "rtt_us", Float (rtt_us config ~trips:200) ])
    systems

(* ---------------- Table 3 ---------------- *)

let table3 () =
  let rows = Loc_table.component_rows ~lib_dir:"lib" in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let total =
    { Loc_table.component = "Total";
      description = "";
      interface = sum (fun r -> r.Loc_table.interface);
      native = sum (fun r -> r.Loc_table.native);
      encapsulated = sum (fun r -> r.Loc_table.encapsulated) }
  in
  List.map
    (fun (r : Loc_table.row) ->
      record "table3"
        [ "component", Str r.component ]
        [ "description", Str r.description;
          "interface", Int r.interface;
          "native", Int r.native;
          "encapsulated", Int r.encapsulated;
          "total", Int (r.interface + r.native + r.encapsulated) ])
    (rows @ [ total ])

(* ---------------- footprint (Section 6.2.5) ---------------- *)

let dir_object_bytes dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else begin
    let total = ref 0 in
    let rec walk d =
      Array.iter
        (fun entry ->
          let path = Filename.concat d entry in
          if Sys.is_directory path then walk path
          else if Filename.check_suffix entry ".o" || Filename.check_suffix entry ".cmx"
          then total := !total + (Unix.stat path).Unix.st_size)
        (Sys.readdir d)
    in
    (try walk dir with Sys_error _ -> ());
    !total
  end

(* Build objects per component group of the netcomputer configuration
   (cf. the paper's 412 KB, 121 KB of it networking), their total, and
   the file system a no-file-system build leaves out. *)
let footprint () =
  let groups =
    [ [ "linux_dev"; "fdev" ]; [ "freebsd_net" ]; [ "vm" ]; [ "libc" ];
      [ "kern"; "boot"; "machine" ]; [ "lmm"; "amm" ]; [ "com"; "core" ] ]
  in
  let row ?(name = String.concat "+") linked comps =
    let bytes =
      List.fold_left (fun a c -> a + dir_object_bytes ("_build/default/lib/" ^ c)) 0 comps
    in
    record "footprint"
      [ "components", Str (name comps); "linked", Str linked ]
      [ "kb", Float (float_of_int bytes /. 1024.0) ]
  in
  List.map (row "yes") groups
  @ [ row ~name:(fun _ -> "total") "yes" (List.concat groups); row "no" [ "netbsd_fs" ] ]

(* ---------------- vmnet (Section 6.2.6) ---------------- *)

(* Paper: 78 Mbit/s receive, 59 send ("lower due to the extra copy"). *)
let vmnet () =
  let bytes = blocks * blocksize in
  List.map
    (fun (name, direction) ->
      record "vmnet"
        [ "direction", Str name; "bytes", Int bytes ]
        [ "mbit", Float (Netbench.vm_throughput ~direction ~bytes) ])
    [ "receive", `Receive; "send", `Send ]

(* ---------------- alloc (Section 6.2.10, Bechamel) ---------------- *)

let fresh_lmm () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:(1 lsl 22) ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:(1 lsl 22);
  lmm

let alloc () =
  let open Bechamel in
  (* The deficiency the paper reports: the LMM is built for flexibility,
     not common-case speed; a conventional high-level allocator (the BSD
     bucket allocator here) is much faster for small hot-path blocks. *)
  let lmm_test =
    let lmm = fresh_lmm () in
    Test.make ~name:"lmm alloc+free 128B"
      (Staged.stage (fun () ->
           match Lmm.alloc lmm ~size:128 ~flags:0 with
           | Some addr -> Lmm.free lmm ~addr ~size:128
           | None -> assert false))
  in
  let pool_test =
    let lmm = fresh_lmm () in
    let pool =
      Bsd_malloc.create ~client_alloc:(fun size ->
          Lmm.alloc_aligned lmm ~size ~flags:0 ~align_bits:12 ~align_ofs:0)
    in
    Test.make ~name:"bsd bucket alloc+free 128B"
      (Staged.stage (fun () ->
           match Bsd_malloc.malloc pool 128 with
           | Some addr -> Bsd_malloc.free pool addr
           | None -> assert false))
  in
  let libc_test =
    Test.make ~name:"libc malloc+free 128B"
      (Staged.stage (fun () -> Malloc.free (Malloc.malloc 128)))
  in
  let amm_test =
    let amm = Amm.create ~lo:0 ~hi:(1 lsl 22) ~flags:Amm.free in
    Test.make ~name:"amm allocate+deallocate 128B"
      (Staged.stage (fun () ->
           match Amm.allocate amm ~size:128 () with
           | Some addr -> Amm.deallocate amm ~addr ~size:128
           | None -> assert false))
  in
  let kalloc_test =
    let k = Kalloc.create (fresh_lmm ()) in
    Test.make ~name:"kalloc alloc+free 128B"
      (Staged.stage (fun () ->
           match Kalloc.alloc k ~size:128 with
           | Some addr -> Kalloc.free k addr
           | None -> assert false))
  in
  let tests =
    Test.make_grouped ~name:"allocators"
      [ lmm_test; pool_test; libc_test; amm_test; kalloc_test ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let names = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) results []) in
  let round_trips =
    List.map
      (fun name ->
        let ns =
          match Analyze.OLS.estimates (Hashtbl.find results name) with
          | Some (t :: _) -> Float t
          | _ -> Str "no estimate"
        in
        record "alloc" [ "test", Str name ] [ "ns_per_op", ns ])
      names
  in
  (* Head-to-head on a fragmented heap — the state a long-running kernel
     reaches.  256 pinned 16-byte live blocks leave 256 non-coalescable
     16-byte holes at the front of the LMM's address-sorted free list;
     every first-fit alloc of anything larger walks all of them, and every
     free walks them again to find its insertion point.  The size-class
     pool serves the same requests O(1) from per-slab freelists. *)
  let holes = 256 in
  let iters = 50_000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let fragmented_lmm () =
    let lmm = fresh_lmm () in
    let addrs =
      Array.init (2 * holes) (fun _ ->
          match Lmm.alloc lmm ~size:16 ~flags:0 with Some a -> a | None -> assert false)
    in
    Array.iteri (fun i a -> if i land 1 = 0 then Lmm.free lmm ~addr:a ~size:16) addrs;
    lmm
  in
  let fragmented =
    List.map
      (fun size ->
        let lmm = fragmented_lmm () in
        let lmm_ns =
          time (fun () ->
              for _ = 1 to iters do
                match Lmm.alloc lmm ~size ~flags:0 with
                | Some a -> Lmm.free lmm ~addr:a ~size
                | None -> assert false
              done)
        in
        let k = Kalloc.create (fragmented_lmm ()) in
        let kalloc_ns =
          time (fun () ->
              for _ = 1 to iters do
                match Kalloc.alloc k ~size with
                | Some a -> Kalloc.free k a
                | None -> assert false
              done)
        in
        record "alloc"
          [ "heap", Str "fragmented"; "holes", Int holes; "size", Int size ]
          [ "lmm_ns", Float lmm_ns; "kalloc_ns", Float kalloc_ns;
            "speedup", Float (lmm_ns /. kalloc_ns) ])
      [ 32; 64; 128; 256 ]
  in
  (* One allocator's class stats after mixed-size churn: a kmem-cache
     report. *)
  let k = Kalloc.create (fresh_lmm ()) in
  let ws = Array.init holes (fun i ->
      match Kalloc.alloc k ~size:(16 lsl (i land 3)) with
      | Some a -> a
      | None -> assert false)
  in
  Array.iter (fun a -> Kalloc.free k a) ws;
  Format.printf "%a@." Kalloc.pp k;
  round_trips @ fragmented

(* ---------------- ablations ---------------- *)

(* A: glue-crossing cost vs OSKit send throughput and RTT.  Zero cycles
   isolates the copy cost; the rest is "the price we pay for modularity
   and separability" (Section 5). *)
let glue () =
  List.map
    (fun cycles ->
      let p = { paper with Cost.glue_crossing_cycles = cycles } in
      let t =
        ttcp ~profile:p ~sender:Endpoint.Oskit ~receiver:Endpoint.Freebsd ~blocks:(blocks / 2) ()
      in
      record "glue"
        [ system Endpoint.Oskit; profile p; "blocks", Int (blocks / 2); "trips", Int 100 ]
        [ "send_mbit", Float t.mbit_sender;
          "rtt_us", Float (rtt_us ~profile:p Endpoint.Oskit ~trips:100) ])
    [ 0; 500; 1500; 3000; 6000 ]

(* B: copies and glue crossings per 1000 wire packets: the send path
   shows the extra flattening copy, the receive path does not. *)
let copies () =
  List.map
    (fun (sender, receiver) ->
      let t = ttcp ~sender ~receiver ~blocks:(blocks / 2) () in
      record "copies"
        [ "sender", Str (Endpoint.config_name sender);
          "receiver", Str (Endpoint.config_name receiver);
          profile paper;
          "blocks", Int (blocks / 2) ]
        [ "copies_per_kpkt", per_kpkt t t.counters.Cost.copies;
          "crossings_per_kpkt", per_kpkt t t.counters.Cost.glue_crossings ])
    [ Endpoint.Freebsd, Endpoint.Freebsd;
      Endpoint.Oskit, Endpoint.Freebsd;
      Endpoint.Freebsd, Endpoint.Oskit;
      Endpoint.Linux, Endpoint.Linux ]

(* ---------------- chaos: goodput under injected loss ---------------- *)

(* ttcp to a native FreeBSD sink through netem (seed 42).  Byte-exact
   means every payload byte arrived once, in order, with the right value.
   The paper-profile sweep covers every sender; the scatter-gather and
   receive fast-path profiles rerun the senders they change. *)
let chaos () =
  let run p sender loss =
    let netem = Netem.create ~seed:42 ~policy:{ Netem.default_policy with loss } () in
    let r =
      Cost.with_config p @@ fun () ->
      Netbench.stream ~netem { Workload.table1 with sender; bytes = blocks * blocksize }
    in
    record "chaos"
      [ "sender", Str (Endpoint.config_name sender); profile p; "loss", Float loss;
        "seed", Int 42; "blocks", Int blocks; "blocksize", Int blocksize ]
      [ "goodput_mbit", Float r.mbit_receiver;
        "rexmits", Int r.rexmits;
        "wire_dropped", Int r.wire_dropped;
        "crossings_per_kpkt", per_kpkt r r.counters.Cost.glue_crossings;
        "byte_exact", yes_no r.byte_exact ]
  in
  let sweep p senders losses =
    List.concat_map (fun sender -> List.map (run p sender) losses) senders
  in
  sweep paper [ Endpoint.Freebsd; Endpoint.Oskit; Endpoint.Linux ]
    [ 0.0; 0.005; 0.01; 0.02; 0.05 ]
  @ sweep sg_on [ Endpoint.Oskit ] [ 0.0; 0.01; 0.05 ]
  @ sweep fast [ Endpoint.Oskit; Endpoint.Linux ] [ 0.0; 0.01 ]

(* ---------------- rtt: the Table 2 gap, attacked ---------------- *)

(* rtcp percentiles with the receive fast path off and on (flags off
   reproduces Table 2 exactly), plus the same flags under the 128-client
   concurrency workload on the OSKit configuration, where receive frames
   actually cross the glue and batching can coalesce them. *)
let rtt () =
  let rtcp config trips p =
    let { Workload.samples; counters = c; _ } =
      Cost.with_config p (fun () -> Netbench.rtt config ~trips)
    in
    let pct = Percentile.us_of_ns samples in
    record "rtt"
      [ "workload", Str "rtcp"; system config; profile p; "trips", Int trips ]
      [ "mean_us", Float (Percentile.mean_us samples);
        "p50_us", Float (pct 50);
        "p95_us", Float (pct 95);
        "p99_us", Float (pct 99);
        "fastpath_hits", Int c.Cost.fastpath_hits;
        "fastpath_fallbacks", Int c.Cost.fastpath_fallbacks;
        "pcb_cache_hits", Int c.Cost.pcb_cache_hits;
        "pcb_cache_misses", Int c.Cost.pcb_cache_misses;
        "rx_polls", Int c.Cost.rx_polls;
        "rx_frames", Int c.Cost.rx_batched_frames ]
  in
  let http p =
    let r =
      Httpbench.run ~profile:p Httpbench.concurrency ~stack:Endpoint.Oskit
        ~shape:Httpbench.Reactor ~clients:128 ()
    in
    Httpbench.check ~what:"rtt" r;
    record "rtt"
      [ "workload", Str "http"; system Endpoint.Oskit; profile p; "clients", Int 128 ]
      [ "p50_us", Float r.r_p50_us;
        "p99_us", Float r.r_p99_us;
        "rx_polls", Int r.r_rx_polls;
        "rx_frames", Int r.r_rx_frames ]
  in
  List.concat_map (fun config -> List.map (rtcp config 200) [ paper; fast ]) systems
  @ List.map (rtcp Endpoint.Oskit 100) [ paper; fast ]
  @ List.map http [ Httpbench.concurrency_profile; http128_fast ]

(* ---------------- HTTP runs ---------------- *)

(* Glue crossings per measured request: 0 on a native server, which has no
   glue; the fdev, socket and file glue of an OSKit one. *)
let crossings_per_req (r : Httpbench.result) =
  "crossings_per_req", Float (float_of_int r.r_glue_crossings /. float_of_int (max 1 r.r_requests))

let server_metrics (r : Httpbench.result) =
  let st = r.r_server in
  [ "requests", Int r.r_requests;
    "duration_ms", Float r.r_duration_ms;
    "rps", Float r.r_rps;
    "p50_us", Float r.r_p50_us;
    "p99_us", Float r.r_p99_us;
    "responses", Int r.r_responses;
    "accepted", Int r.r_accepted;
    "peak_active", Int st.Httpd.peak_active;
    "shed", Int st.Httpd.shed;
    "listen_overflow", Int r.r_listen_overflow;
    "protocol_errors", Int st.Httpd.protocol_errors;
    "mismatches", Int r.r_mismatches;
    crossings_per_req r ]

(* http: event-driven vs thread-per-connection at an equal RAM budget,
   the same server component on both stacks. *)
let http () =
  let d = Httpbench.concurrency in
  List.concat_map
    (fun stack ->
      List.concat_map
        (fun clients ->
          List.map
            (fun shape ->
              let r, words =
                host_words (fun () ->
                    Httpbench.run ~profile:Httpbench.concurrency_profile d ~stack ~shape
                      ~clients ())
              in
              Httpbench.check ~what:"http" r;
              record "http"
                [ "stack", Str (Endpoint.config_name stack);
                  "mode", Str (Httpbench.shape_name shape);
                  "clients", Int clients;
                  profile Httpbench.concurrency_profile;
                  "file_bytes", Int (snd d.site.files.(0));
                  "ram_budget", Int Httpbench.ram_budget;
                  "max_threads", Int Httpbench.max_threads;
                  "max_conns", Int Httpbench.max_conns;
                  "backlog", Int d.backlog ]
                (server_metrics r
                @ [ "reactor_sleeps", Int r.r_reactor_sleeps;
                    "reactor_spurious", Int r.r_reactor_spurious ]
                @ words r.r_requests))
            [ Httpbench.Threads; Httpbench.Reactor ])
        [ 1; 4; 16; 64; 256 ])
    [ Endpoint.Freebsd; Endpoint.Linux ]

(* smp: the reactor httpd sharded netisr-style across a multi-CPU server.
   NIC RX computes an RSS hash over each frame's 4-tuple and steers it to
   the flow's home CPU before any per-frame driver work; the listen socket
   accepts on CPU 0.  Clients run on an equally provisioned machine over
   a gigabit wire, so the bottleneck is the server CPUs at every width.
   The listen backlog is provisioned for the 2048-client connect burst,
   so no row's rate is set by a drop-and-retransmit tail. *)
let smp_desc =
  { Httpbench.concurrency with
    Httpbench.models = ("3c905", "fxp-sim");
    bandwidth_bps = Some 1_000_000_000;
    backlog = 4096;
    max_threads = None;
    max_conns = None;
    request = Httpbench.Http10 }

let smp () =
  List.concat_map
    (fun clients ->
      List.map
        (fun ncpus ->
          let p = smp_profile ncpus in
          let r =
            Httpbench.run ~profile:p smp_desc ~stack:Endpoint.Freebsd
              ~shape:Httpbench.Reactor ~clients ()
          in
          Httpbench.check ~what:"smp" r;
          record "smp"
            [ "clients", Int clients; profile p;
              "file_bytes", Int (snd smp_desc.site.files.(0)); "backlog", Int smp_desc.backlog ]
            (server_metrics r
            @ [ "rss_steered", Int r.r_rss_steered;
                "netisr_queued", Int r.r_netisr_queued;
                "netisr_drops", Int r.r_netisr_drops;
                "spin_contentions", Int r.r_spin_contentions ]
            @ List.mapi
                (fun i f -> Printf.sprintf "cpu%d_share" i, Float f)
                (Array.to_list r.r_cpu_share)))
        [ 1; 2; 4; 8 ])
    [ 256; 1024; 2048 ]

(* file: HTTP/1.1 keep-alive + pipelining and the sendfile-style
   zero-copy buffer-cache->wire path, against HTTP/1.0
   close-per-request.  The BSD-derived stack (native and under the OSKit
   glue) exports the sendv face — its mbufs alias foreign storage — while
   the Linux stack's contiguous sk_buffs cannot, so with sendfile on the
   Linux rows show the counted copy fallback: Section 5's copy asymmetry
   at the application layer.

   One cell: [clients] clients each issue [reqs] GETs round-robin over
   the working set, from 4 ms, after a warmup that faults the set into
   the 64-block buffer cache.  With keep-alive on, each client holds one
   connection, pipelined to [pipeline] (within [http_pipeline_max], so
   the server's parse-ahead bound never throttles the reader). *)
let file_cell ?(stack = Endpoint.Freebsd) ?(shape = Httpbench.Reactor) ?(clients = 16)
    ?(reqs = 125) ?(files = 16) ?(file_bytes = 4096) ?(pipeline = 1) p =
  let request = if p.Cost.http_keepalive then Httpbench.Http11 pipeline else Httpbench.Http10 in
  let r =
    Httpbench.run ~profile:p
      { Httpbench.concurrency with
        Httpbench.site = Httpbench.file_site (Array.make files file_bytes);
        max_threads = None;
        max_conns = None;
        request;
        reqs_per_client = reqs;
        start_ns = 4_000_000 }
      ~stack ~shape ~clients ()
  in
  Httpbench.check ~what:"file" r;
  let st = r.r_server in
  record "file"
    [ "stack", Str (Endpoint.config_name stack);
      "mode", Str (Httpbench.shape_name shape);
      profile p;
      "clients", Int clients;
      "pipeline", Int pipeline;
      "reqs", Int reqs;
      "files", Int files;
      "file_bytes", Int file_bytes;
      "bufcache_blocks", Int 64 ]
    [ "requests", Int r.r_requests;
      "duration_ms", Float r.r_duration_ms;
      "rps", Float r.r_rps;
      "responses", Int r.r_responses;
      "reused", Int st.Httpd.reused;
      "pipelined", Int st.Httpd.pipelined;
      "idle_closed", Int st.Httpd.idle_closed;
      "capped", Int st.Httpd.capped;
      "accepted", Int st.Httpd.accepted;
      "sendfile_bodies", Int st.Httpd.sendfile_bodies;
      "sendfile_fallbacks", Int st.Httpd.sendfile_fallbacks;
      "body_bytes_copied", Int st.Httpd.body_bytes_copied;
      "copied_per_req",
      Float (float_of_int st.Httpd.body_bytes_copied /. float_of_int (max 1 r.r_requests));
      "bufcache_hits", Int r.r_bufcache_hits;
      "bufcache_misses", Int r.r_bufcache_misses;
      "protocol_errors", Int st.Httpd.protocol_errors;
      "mismatches", Int r.r_mismatches;
      crossings_per_req r;
      (* Bytes checksummed on both machines per body byte served: the
         client verifies each body byte once, and the server sums it once
         more unless the block's checksum memo has it.  Testbed-wide until
         the counters are kept per machine. *)
      "cksum_per_body_byte",
      Float
        (float_of_int r.r_checksummed_bytes
        /. float_of_int (max 1 (r.r_requests * file_bytes))) ]

let file () =
  let profiles = [ http10; keepalive; ka_sendfile ] in
  (* Both stacks plus the OSKit glue shape, both serving shapes, all
     three profiles, on the small (in-cache) working set. *)
  List.concat_map
    (fun stack ->
      List.concat_map
        (fun shape -> List.map (file_cell ~stack ~shape) profiles)
        [ Httpbench.Reactor; Httpbench.Threads ])
    [ Endpoint.Freebsd; Endpoint.Linux; Endpoint.Oskit ]
  (* A working set twice the cache: eviction under load. *)
  @ List.map (file_cell ~files:128) [ keepalive; ka_sendfile ]
  (* Body sizes: the copy path scales with the body, warm sendfile stays
     at zero copied bytes. *)
  @ List.concat_map
      (fun file_bytes ->
        List.map (file_cell ~files:4 ~reqs:63 ~file_bytes) [ keepalive; ka_sendfile ])
      [ 1024; 4096; 16384; 65536 ]
  (* Headline scale: 10k 1 KB requests, fresh connections vs reused ones,
     serial and pipelined to depth 8 (the server's parse-ahead bound). *)
  @ (let big = file_cell ~reqs:625 ~file_bytes:1024 in
     big http10
     :: List.concat_map (fun p -> [ big p; big ~pipeline:8 p ]) [ keepalive; ka_sendfile ])
  (* A 64-client connect burst of 4 requests each, both shapes and both
     stacks on the sendfile profile. *)
  @ (let burst = file_cell ~clients:64 ~reqs:4 in
     List.map burst profiles
     @ [ burst ~shape:Httpbench.Threads ka_sendfile; burst ~stack:Endpoint.Linux ka_sendfile ])

(* ---------------- longfat: RTT x loss with scaled windows ---------------- *)

(* default = seed config (16-bit windows, fixed buffers); manual-bdp =
   wscale on, both ends hand-sized to 2x BDP, the operator's recipe;
   autotune = wscale on, the stacks grow their own buffers
   ([tcp_autotune]).  100 Mbps wire, netem seed 42. *)
let lf_manual = { paper with Cost.tcp_wscale = true }
let lf_autotune = { lf_manual with Cost.tcp_autotune = true }
(* Each mode: its name, its profile, and whether both ends are hand-sized. *)
let longfat_modes =
  [ "default", paper, false; "manual-bdp", lf_manual, true; "autotune", lf_autotune, false ]

let longfat_cell config ~rtt_ms ~loss ~bytes (mode_name, p, manual) =
  let rtt_ns = int_of_float (rtt_ms *. 1e6) in
  (* BDP at the wire's 100 Mbps: bytes = rate/8 * rtt.  Manual mode sizes
     to 2x BDP (headroom for ACK clocking), floored at the seed default. *)
  let buffers =
    if manual then Some (min p.Cost.tcp_sockbuf_max (max (64 * 1024) (2 * (rtt_ns / 80))))
    else None
  in
  let netem =
    if loss > 0.0 then Some (Netem.create ~seed:42 ~policy:{ Netem.default_policy with loss } ())
    else None
  in
  let r =
    Cost.with_config p @@ fun () ->
    Netbench.stream ~latency_ns:(max 1_000 (rtt_ns / 2)) ?netem ?buffers
      { Workload.table1 with sender = config; receiver = config; bytes; send_chunk = 16384 }
  in
  record "longfat"
    [ system config; "rtt_ms", Float rtt_ms; "loss", Float loss; "buffers", Str mode_name;
      "bytes", Int bytes; profile p; "seed", Int 42; "wire_mbit", Int 100 ]
    [ "mbit", Float r.mbit_receiver;
      "rexmits", Int r.sent_rexmits;
      "rcv_buf", Int r.final_rcv_buf;
      "byte_exact", yes_no r.byte_exact ]

(* Enough bytes to amortize slow start at the given BDP; lossy cells get a
   smaller transfer (loss holds both stacks far below line rate — about
   1 Mbit/s at 50 ms and 3% — so four BDPs already span dozens of loss
   recoveries, and more bytes only lengthen the run).
   After the grid, the 50 ms clean path again at a fixed 8 MB, and a
   forced zero-window stall on the Linux stack that only the persist
   timer talks through. *)
let longfat () =
  let stacks = [ Endpoint.Freebsd; Endpoint.Linux ] in
  let grid =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun rtt_ms ->
            List.concat_map
              (fun loss ->
                let bdp = int_of_float (rtt_ms *. 1e6) / 80 in
                let bytes =
                  if loss = 0.0 then max (2 * 1024 * 1024) (25 * bdp)
                  else max (1024 * 1024) (4 * bdp)
                in
                List.map (longfat_cell config ~rtt_ms ~loss ~bytes) longfat_modes)
              [ 0.0; 0.01; 0.03 ])
          [ 0.1; 1.0; 10.0; 50.0 ])
      stacks
  in
  let eight_mb =
    List.concat_map
      (fun config ->
        List.map (longfat_cell config ~rtt_ms:50.0 ~loss:0.0 ~bytes:(8 * 1024 * 1024))
          longfat_modes)
      stacks
  in
  let stall_ns = 3_000_000_000 and bytes = 256 * 1024 in
  let zw =
    Netbench.stream
      { Workload.table1 with
        sender = Endpoint.Linux; receiver = Endpoint.Linux; bytes; send_chunk = 16384;
        stall_ns }
  in
  grid @ eight_mb
  @ [ record "longfat"
        [ system Endpoint.Linux; profile paper; "bytes", Int bytes;
          "stall_ms", Int (stall_ns / 1_000_000) ]
        [ "persist_probes", Int zw.persist_probes; "byte_exact", yes_no zw.byte_exact ] ]

(* ---------------- overload: survival under deliberate abuse ---------------- *)

(* A 10x SYN flood (40 spoofed SYNs against a depth-4 backlog), an
   allocation-failure soak, and a Slowloris mix — each with its defense
   off and on.  The headline number is the goodput the LEGITIMATE
   clients still see. *)
let overload_legit = 4
let overload_bytes_per_client = 65536
let overload_soak_bytes = 262144

let overload () =
  let servers = [ Endpoint.Freebsd; Endpoint.Linux ] in
  let server s = "server", Str (Endpoint.config_name s) in
  let floods =
    List.concat_map
      (fun sv ->
        List.concat_map
          (fun defense ->
            List.map
              (fun flood ->
                let r =
                  Overloadbench.flood_run ~server:sv ~defense ~flood ~legit:overload_legit
                    ~bytes_per_client:overload_bytes_per_client ()
                in
                record "overload"
                  [ "kind", Str "flood"; server sv; profile r.fl_profile; "flood_syns", Int flood;
                    "legit", Int overload_legit;
                    "bytes_per_client", Int overload_bytes_per_client ]
                  [ "served", Int r.fl_served;
                    "bytes", Int r.fl_bytes;
                    "goodput_mbit", Float r.fl_goodput_mbit;
                    "syncache_added", Int r.fl_syncache_added;
                    "handshakes_completed", Int r.fl_completed;
                    "listen_overflow", Int r.fl_listen_overflow ])
              [ 0; 40 ])
          [ false; true ])
      servers
  in
  let allocs =
    List.concat_map
      (fun sv ->
        List.map
          (fun (prob, seed) ->
            let r = Overloadbench.alloc_run ~server:sv ~prob ~seed ~bytes:overload_soak_bytes () in
            record "overload"
              [ "kind", Str "alloc"; server sv; profile r.al_profile;
                "bytes", Int overload_soak_bytes ]
              [ "byte_exact", yes_no r.al_byte_exact;
                "goodput_mbit", Float r.al_goodput_mbit;
                "draws", Int r.al_draws;
                "failures", Int r.al_failures;
                "nomem_drops", Int r.al_nomem_drops ])
          [ (0.0, 42); (0.001, 42); (0.01, 43) ])
      servers
  in
  let lorises =
    List.map
      (fun guard ->
        let r = Overloadbench.loris_run ~guard ~loris:8 ~legit:4 () in
        let st = r.r_server in
        record "overload"
          [ "kind", Str "loris"; server Endpoint.Freebsd; profile r.r_profile;
            "loris", Int r.r_desc.loris; "legit", Int r.r_clients ]
          [ "served", Int (Overloadbench.loris_served r);
            "deadline_closed", Int st.Httpd.deadline_closed;
            "shed", Int st.Httpd.shed;
            "peak_active", Int st.Httpd.peak_active ])
      [ false; true ]
  in
  floods @ allocs @ lorises

(* ---------------- event: kqueue + timing-wheel complexity ---------------- *)

(* The event-core claim: per-pass dispatch work tracks the ready set and
   timer work tracks the due set, no matter how much idle state is
   registered.  Both sweeps hold the hot population fixed and grow the
   idle population three decades; the flat column is the result. *)
let event () =
  let hot = Eventbench.hot_set in
  List.map
    (fun idle ->
      let r = Eventbench.kq_sweep ~idle ~hot ~rounds:Eventbench.kq_rounds in
      record "event"
        [ "kind", Str "kqueue"; "idle", Int idle; "hot", Int hot;
          "kq_rounds", Int Eventbench.kq_rounds ]
        [ "scan_visits", Int r.kr_scan_visits;
          "kq_visits", Int r.kr_kq_visits;
          "dispatches", Int r.kr_dispatches ])
    Eventbench.idle_sweep
  @ List.map
      (fun idle ->
        let r = Eventbench.wheel_run ~idle ~hot in
        record "event"
          [ "kind", Str "wheel"; "idle", Int idle; "hot", Int hot;
            "wheel_ticks", Int Eventbench.wheel_window_ticks ]
          [ "work", Int r.wr_fires;
            "fires", Int r.wr_fires;
            "scan_visits", Int r.wr_scan_visits;
            "early", Int r.wr_early;
            "late", Int r.wr_late;
            "missed", Int r.wr_missed ])
      Eventbench.idle_sweep

(* ---------------- the bound table ---------------- *)

(* Every claim the bench gates, as data: (section, cell match, metric,
   op, rhs), checked over each section's records after it runs.  A
   [Times] right-hand side reads the related cell: this one with the
   named keys overridden.  Per-run checks that are not about a cell's
   numbers (every HTTP response byte-exact and answered) stay in
   [Httpbench.check]. *)
let bounds : bound list =
  let p x = profile_key x and zero = Const (Int 0) and yes = Const (Str "yes") in
  let profile_is x = [ "profile", p x ] in
  let rtcp x = [ "workload", Str "rtcp"; "profile", p x ] in
  let http128 = [ "workload", Str "http"; "profile", p http128_fast ] in
  let reactor clients = [ "mode", Str "reactor"; "clients", Int clients ] in
  let threads = [ "mode", Str "threads" ] in
  let lf_50ms mode = [ "rtt_ms", Float 50.0; "loss", Float 0.0; "buffers", Str mode ] in
  let lf_mode mode x = [ "buffers", Str mode; "profile", p x ] in
  let flooded =
    [ "kind", Str "flood"; "profile", p (Overloadbench.flood_profile ~defense:true);
      "flood_syns", Int 40 ]
  in
  let soak_1pct =
    [ "kind", Str "alloc"; "profile", p (Overloadbench.alloc_profile ~prob:0.01 ~seed:43) ]
  in
  let guarded = [ "kind", Str "loris"; "profile", p (Overloadbench.loris_profile ~guard:true) ] in
  let smp4 clients = [ "clients", Int clients; "profile", p (smp_profile 4) ] in
  let smp1 = profile_is (smp_profile 1) in
  let kq idle = [ "kind", Str "kqueue"; "idle", Int idle ] and wheel = [ "kind", Str "wheel" ] in
  let stack name = [ "stack", Str name ] in
  let warm_sf name = stack name @ [ "profile", p ka_sendfile ] in
  let scale x depth = [ "reqs", Int 625; "profile", p x; "pipeline", Int depth ] in
  [ (* scatter-gather sends no slower, and does remove the flatten copy *)
    "table1", profile_is sg_on, "send_mbit", Ge, Times (1.0, profile_is paper, "send_mbit");
    "table1", profile_is sg_on, "sg_xmits", Gt, zero;
    "table1", profile_is sg_on, "linearized_xmits", Eq, zero;
    "table1", [ "system", Str "OSKit"; "profile", p paper ], "linearized_xmits", Gt, zero;
    "chaos", [], "byte_exact", Eq, yes;
    (* the batched glue crosses once per transmit burst as well as once
       per receive poll: under 60% of the per-frame glue's crossings per
       wire frame on the clean OSKit transfer *)
    "chaos", [ "sender", Str "OSKit"; "profile", p fast; "loss", Float 0.0 ],
    "crossings_per_kpkt", Lt, Times (0.6, profile_is paper, "crossings_per_kpkt");
    (* the receive fast path: off never predicts; on, strictly lower RTT
       with every established segment predicted and the pcb cache hit;
       under http load, more than one frame per batched poll *)
    "rtt", rtcp paper, "fastpath_hits", Eq, zero;
    "rtt", rtcp fast, "mean_us", Lt, Times (1.0, profile_is paper, "mean_us");
    "rtt", rtcp fast, "fastpath_hits", Gt, zero;
    "rtt", rtcp fast, "fastpath_fallbacks", Eq, zero;
    "rtt", rtcp fast, "pcb_cache_hits", Gt, zero;
    "rtt", http128, "rx_polls", Gt, zero;
    "rtt", http128, "rx_frames", Gt, Times (1.0, [], "rx_polls");
    (* the reactor holds >= 4x the threaded concurrency at 256 clients and
       serves at least the threaded rate at 64 *)
    "http", reactor 256, "peak_active", Ge, Times (4.0, threads, "peak_active");
    "http", reactor 64, "rps", Ge, Times (1.0, threads, "rps");
    (* scaled windows: byte-exact, losses really retransmitted, >= 5x the
       seed at 50 ms, autotune >= 90% of manual with a buffer that grew *)
    "longfat", [], "byte_exact", Eq, yes;
    "longfat", [ "rtt_ms", Float 10.0; "loss", Float 0.01; "buffers", Str "autotune" ],
    "rexmits", Gt, zero;
    "longfat", lf_50ms "manual-bdp", "mbit", Ge,
    Times (5.0, lf_mode "default" paper, "mbit");
    "longfat", lf_50ms "autotune", "mbit", Ge,
    Times (0.9, lf_mode "manual-bdp" lf_manual, "mbit");
    "longfat", lf_50ms "autotune", "rcv_buf", Gt, Const (Int 65536);
    "longfat", [ "stall_ms", Int 3000 ], "persist_probes", Gt, zero;
    (* a defended 10x flood serves every legit client at >= 70% of clean
       goodput and reaches the syncache; every soak stays byte-exact, the
       1% one with the injector firing; the guard reclaims Slowloris slots *)
    "overload", flooded, "served", Ge, Times (1.0, [], "legit");
    "overload", flooded, "goodput_mbit", Ge, Times (0.7, [ "flood_syns", Int 0 ], "goodput_mbit");
    "overload", flooded, "syncache_added", Ge, Const (Int 40);
    "overload", [ "kind", Str "alloc" ], "byte_exact", Eq, yes;
    "overload", soak_1pct, "failures", Gt, zero;
    "overload", guarded, "served", Ge, Times (1.0, [], "legit");
    "overload", guarded, "deadline_closed", Gt, zero;
    (* sharding: no drop, no contention on the per-flow path, >= 3x at 4
       CPUs from 1024 clients, faster than 1 CPU at 256 with RSS steering *)
    "smp", [], "netisr_drops", Eq, zero;
    "smp", [], "spin_contentions", Eq, zero;
    "smp", smp4 1024, "rps", Ge, Times (3.0, smp1, "rps");
    "smp", smp4 2048, "rps", Ge, Times (3.0, smp1, "rps");
    "smp", smp4 256, "rps", Gt, Times (1.0, smp1, "rps");
    "smp", smp4 256, "rss_steered", Gt, zero;
    (* kq dispatch work flat in the idle population; the wheel fires
       nothing early, late or never, at under 1% of the scan's work *)
    "event", kq 10_000, "kq_visits", Eq, Times (1.0, [ "idle", Int 100 ], "kq_visits");
    "event", wheel, "early", Eq, zero;
    "event", wheel, "late", Eq, zero;
    "event", wheel, "missed", Eq, zero;
    "event", wheel, "work", Lt, Times (0.01, [], "scan_visits");
    (* keep-alive beats close-per-request; pipelined sendfile >= 3x it at
       10k requests; warm sendfile on the BSD stack copies no body byte
       and never falls back; Linux carries the counted fallback *)
    "file", [ "clients", Int 64; "profile", p keepalive ], "rps", Gt,
    Times (1.0, profile_is http10, "rps");
    "file", scale ka_sendfile 8, "rps", Ge, Times (3.0, scale http10 1, "rps");
    "file", warm_sf "FreeBSD", "body_bytes_copied", Eq, zero;
    "file", warm_sf "OSKit", "body_bytes_copied", Eq, zero;
    "file", warm_sf "FreeBSD", "sendfile_fallbacks", Eq, zero;
    "file", warm_sf "FreeBSD", "sendfile_bodies", Ge, Times (1.0, [], "requests");
    "file", warm_sf "Linux", "sendfile_fallbacks", Gt, zero;
    "file", warm_sf "Linux", "body_bytes_copied", Gt, zero;
    (* warm sendfile sums a cached block's body bytes once, through its
       checksum memo: under 1.5 bytes summed per body byte where every
       byte summed by the server and verified by the client gives 2; the
       Linux copy fallback has no memo.  Both machines' bytes, until the
       counters are kept per machine. *)
    "file", warm_sf "FreeBSD", "cksum_per_body_byte", Lt, Const (Float 1.5);
    "file", warm_sf "OSKit", "cksum_per_body_byte", Lt, Const (Float 1.5);
    "file", warm_sf "Linux", "cksum_per_body_byte", Ge, Const (Float 2.0);
    (* ... and a block's memo outlives its buffer: the 64 KB sweep cell's
       four files fill the 64-block cache, so blocks are evicted between
       their loans (1,691 misses), and still each is summed about once
       (1.19 when eviction dropped the memo) *)
    "file", [ "file_bytes", Int 65536; "profile", p ka_sendfile ], "cksum_per_body_byte", Lt,
    Const (Float 1.16);
    (* a native server crosses no glue; an OSKit one crosses it on every
       request *)
    "http", stack "FreeBSD", "crossings_per_req", Eq, zero;
    "http", stack "Linux", "crossings_per_req", Eq, zero;
    "smp", [], "crossings_per_req", Eq, zero;
    "file", stack "FreeBSD", "crossings_per_req", Eq, zero;
    "file", stack "Linux", "crossings_per_req", Eq, zero;
    "file", stack "OSKit", "crossings_per_req", Gt, zero ]

(* ---------------- driver ---------------- *)

(* name, title, run, whether --json commits the records *)
let sections =
  [ "table1", "Table 1: TCP bandwidth, ttcp (Mbit/s)", table1, true;
    "table2", "Table 2: TCP 1-byte round-trip time, rtcp (usec)", table2, true;
    "table3", "Table 3: filtered source sizes of the OSKit components", table3, true;
    "footprint", "Section 6.2.5: static footprint of the network computer (KB)", footprint, true;
    "vmnet", "Section 6.2.6: TCP throughput from the bytecode VM (Mbit/s)", vmnet, true;
    "alloc", "Section 6.2.10: allocators (wall clock, Bechamel)", alloc, false;
    "glue", "Ablation A: glue-crossing cost vs OSKit send and RTT", glue, true;
    "copies", "Ablation B: copies and crossings per 1000 packets", copies, true;
    "chaos", "Chaos: ttcp goodput vs injected loss (netem)", chaos, true;
    "rtt", "RTT: rtcp percentiles and http tails, receive fast path off/on", rtt, true;
    "http", "HTTP: event-driven vs thread-per-connection at equal memory", http, true;
    "longfat", "Longfat: ttcp over stretched wires (wscale, NewReno, autotune)", longfat, true;
    "overload", "Overload: SYN flood x alloc failure x Slowloris", overload, true;
    "smp", "SMP: netisr-sharded reactor httpd, RSS flow steering", smp, true;
    "event", "Event core: O(ready) dispatch, O(due) timers", event, true;
    "file", "File: HTTP/1.1 keep-alive + sendfile content path", file, true ]

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let names = List.filter (( <> ) "--json") args in
  let requested =
    match names with [] -> List.map (fun (n, _, _, _) -> n) sections | ns -> ns
  in
  let known n = List.exists (fun (n', _, _, _) -> n' = n) sections in
  (match List.filter (fun n -> not (known n)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown section%s %s (known: %s)\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (String.concat " " (List.map (fun (n, _, _, _) -> n) sections));
      exit 2);
  print_endline "Flux OSKit reproduction — benchmark harness";
  Printf.printf "(virtual testbed: 2x 200MHz PCs, 100 Mbps Ethernet; %d-block runs)\n" blocks;
  List.iter
    (fun name ->
      let _, title, run, commit = List.find (fun (n, _, _, _) -> n = name) sections in
      Printf.printf "\n=== %s ===\n%!" title;
      let records = run () in
      Record.print records;
      (match violations (List.filter (fun (s, _, _, _, _) -> s = name) bounds) records with
      | [] -> ()
      | vs ->
          List.iter (fun v -> prerr_endline ("bench: bound violated: " ^ v)) vs;
          exit 1);
      if json && commit then begin
        let file = Printf.sprintf "BENCH_%s.json" name in
        write_file file (to_json name records);
        Printf.printf "(wrote %s)\n%!" file;
        let doc = read_file "EXPERIMENTS.md" in
        let doc' = rewrite name records doc in
        if doc' <> doc then begin
          write_file "EXPERIMENTS.md" doc';
          print_endline "(regenerated its EXPERIMENTS.md tables)"
        end
      end)
    requested
