(* perfbench — one benchmark for the simulated kernel.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs iterations of one workload (paper_net, http_close, http_keepalive)
   until S host seconds have passed, each iteration on a fresh virtual
   testbed with inputs drawn from (N, iteration number).  Prints a report,
   then as its last line one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  With --trace 1 every
   iteration is run twice, untraced and with span-recording wrappers on the
   COM faces the benchmark hands to the system; the two runs must agree
   exactly in virtual time and in every Cost counter, and the spans are
   written as a Chrome trace under perfbench/_out/. *)

open Pb_util

type workload = {
  name : string;
  run : tr:Pb_trace.t option -> seed:int -> iter:int -> Pb_bed.iter;
  open_loop : bool;
  http : bool;
}

let workloads =
  [ { name = "paper_net"; run = Pb_paper_net.iteration; open_loop = false; http = false };
    { name = "http_close"; run = Pb_http.http_close; open_loop = true; http = true };
    { name = "http_keepalive"; run = Pb_http.http_keepalive; open_loop = false; http = true } ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (paper_net|http_close|http_keepalive) --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w when !trace = 0 || !trace = 1 -> w, !seed, !seconds, !trace = 1
  | _ -> usage ()

let rate (it : Pb_bed.iter) k = try List.assoc k it.Pb_bed.rates with Not_found -> 0, 0
let mbit (bytes, ns) = if ns = 0 then 0.0 else float_of_int bytes *. 8000.0 /. float_of_int ns
let per_s (n, ns) = if ns = 0 then 0.0 else float_of_int n *. 1e9 /. float_of_int ns

(* ---- the metrics, each with its unit ---- *)

let end_to_end (all : Pb_bed.iter) ~setup ~host ~heap_mb =
  [ "setup_s", setup, "s";
    "host_s", host, "s";
    "host_heap_mb", heap_mb, "MB";
    "ok_ratio", ratio all.Pb_bed.ok all.Pb_bed.attempted, "ratio";
    "rps", per_s (rate all "ops"), "1/s";
    "p50_ms", percentile all.Pb_bed.lat_ns 50.0 /. 1e6, "ms";
    "p99_ms", percentile all.Pb_bed.lat_ns 99.0 /. 1e6, "ms";
    "send_mbit", mbit (rate all "send"), "Mbit/s";
    "recv_mbit", mbit (rate all "recv"), "Mbit/s" ]

(* Per-layer metrics: (name, unit, the end-to-end metric it should move,
   value).  Layer prefixes are lib/ modules; cost.* are the global Cost
   counters, testbed-wide. *)
let per_layer (all : Pb_bed.iter) ~(tr : Pb_trace.t option) ~overhead_s =
  let c = all.Pb_bed.counts in
  let g = get c in
  let ops = all.Pb_bed.ops and payload = all.Pb_bed.payload in
  let per_op k = ratio (g k) ops in
  let share a b = ratio (g a) (g a + g b) in
  let secs = float_of_int (g "window_ns") /. 1e9 in
  let busy_share = ratio (g "srv.busy_ns") (g "srv.capacity_ns") in
  let t = "p99_ms on http_close" in
  let base =
    [ "machine.server_busy_share", "ratio", "rps/send_mbit/recv_mbit where ~1; " ^ t,
        busy_share;
      "machine.server_busy_ns_per_op", "ns", "rps/send_mbit; " ^ t,
        per_op "srv.busy_ns";
      "machine.cpu_busy_max_over_mean", "ratio", t,
        ratio (g "srv.busy_max_ns") (g "srv.busy_mean_ns");
      "machine.server_idle_share", "ratio", t,
        1.0 -. busy_share;
      "machine.wire_util", "ratio", "bound check: at ~1 no CPU change moves throughput",
        ratio (g "wire.busy_ns") (g "window_ns");
      "machine.frames_per_op", "count", "bound check",
        per_op "wire.frames";
      "machine.nic_rx_dropped", "count", "bound check",
        float_of_int (g "nic.rx_dropped");
      "machine.client_busy_share", "ratio", "generator health: must not be the bottleneck",
        ratio (g "cli.busy_ns") (g "cli.capacity_ns");
      "machine.gen_late_p99_us", "us", "generator health (http_close)",
        percentile all.Pb_bed.late_ns 99.0 /. 1e3;
      "fdev.glue_crossings_per_pkt", "count",
        "send/recv_mbit, p50_ms on paper_net; rps on http_keepalive",
        ratio (g "cost.glue_crossings") (g "wire.frames");
      "fdev.linearized_share", "ratio", "send_mbit on paper_net; rps on http_keepalive",
        ratio (g "cost.linearized_xmits") (g "wire.frames");
      "fdev.rx_frames_per_poll", "count", "recv_mbit on paper_net; rps on http_keepalive",
        ratio (g "cost.rx_batched_frames") (g "cost.rx_polls");
      "cost.copy_bytes_per_payload_byte", "ratio", "send_mbit on paper_net; rps on http_keepalive",
        ratio (g "cost.copied_bytes") payload;
      "cost.cksum_bytes_per_payload_byte", "ratio", "send_mbit on paper_net; rps on http_keepalive",
        ratio (g "cost.checksummed_bytes") payload;
      "com.calls_per_op", "count", "send_mbit on paper_net; rps on http_keepalive",
        per_op "cost.com_calls";
      "freebsd_net.fastpath_hit_ratio", "ratio", "p50_ms/recv_mbit on paper_net; " ^ t,
        share "bsd.pred_hits" "bsd.pred_fallbacks";
      "freebsd_net.pcb_cache_hit_ratio", "ratio", "p50_ms on paper_net; " ^ t,
        share "cost.pcb_cache_hits" "cost.pcb_cache_misses";
      "freebsd_net.rexmits", "count", "ok_ratio/p99_ms on http_close",
        float_of_int (g "bsd.rexmits");
      "freebsd_net.listen_overflow", "count", "ok_ratio/p99_ms on http_close",
        float_of_int (g "bsd.listen_overflow");
      "freebsd_net.tick_visits_per_s", "1/s", t,
        (if secs > 0.0 then float_of_int (g "cost.tick_visits") /. secs else 0.0);
      "linux_net.fastpath_hit_ratio", "ratio", "linux_recv_mbit on paper_net",
        share "linux.pred_hits" "linux.pred_fallbacks";
      "linux_net.rexmits", "count", "linux_send_mbit on paper_net",
        float_of_int (g "linux.rexmits");
      "linux_net.listen_overflow", "count", "ok_ratio on paper_net",
        float_of_int (g "linux.listen_overflow");
      "linux_net.send_mbit", "Mbit/s", "paper_net Table 1 Linux row (native Linux -> FreeBSD)",
        mbit (rate all "linux_send");
      "linux_net.recv_mbit", "Mbit/s", "paper_net Table 1 Linux row (FreeBSD -> native Linux)",
        mbit (rate all "linux_recv");
      "freebsd_net.rtt_us", "us", "paper_net Table 2: 1-byte OSKit<->OSKit round trip",
        (let n, ns = rate all "rtt1" in if n = 0 then 0.0 else float_of_int ns /. float_of_int n /. 1e3);
      "malloc.pool_hit_ratio", "ratio", "machine.server_busy_ns_per_op, all workloads",
        share "pool.hits" "pool.misses";
      "netbsd_fs.bufcache_hit_ratio", "ratio", "rps on http_keepalive",
        share "cost.bufcache_hits" "cost.bufcache_misses";
      "event.kq_posted_per_req", "count", t ^ "; rps on http_keepalive",
        per_op "cost.kq_posted";
      "event.kq_coalesced_ratio", "ratio", t ^ "; rps on http_keepalive",
        share "cost.kq_coalesced" "cost.kq_posted";
      "event.wheel_arms_per_conn", "count", t ^ "; rps on http_keepalive",
        ratio (g "cost.wheel_arms") (g "bsd.conns");
      "event.wheel_cancel_ratio", "ratio", t ^ "; rps on http_keepalive",
        ratio (g "cost.wheel_cancels") (g "cost.wheel_arms");
      "asyncio.dispatches_per_req", "count", t ^ "; rps on http_keepalive",
        per_op "reactor.dispatches";
      "asyncio.visits_per_dispatch", "count", t ^ "; rps on http_keepalive",
        ratio (g "reactor.visits") (g "reactor.dispatches");
      "asyncio.spurious_ratio", "ratio", t ^ "; rps on http_keepalive",
        share "reactor.spurious" "reactor.dispatches";
      "asyncio.sleeps_per_req", "count", t ^ "; rps on http_keepalive",
        per_op "reactor.sleeps";
      "httpd.reused_ratio", "ratio", "rps/p99_ms on http_keepalive",
        ratio (g "httpd.reused") (g "httpd.requests");
      "httpd.pipelined_ratio", "ratio", "rps/p99_ms on http_keepalive",
        ratio (g "httpd.pipelined") (g "httpd.requests");
      "httpd.sendfile_ratio", "ratio", "rps/p99_ms on http_keepalive",
        ratio (g "httpd.sendfile_bodies") (g "httpd.responses");
      "httpd.copied_bytes_per_req", "bytes", "rps/p99_ms on http_keepalive",
        ratio (g "httpd.body_bytes_copied") (g "httpd.requests");
      "httpd.peak_active", "count", "p99_ms on both http workloads",
        float_of_int all.Pb_bed.peak_active;
      "smp.netisr_queued_per_req", "count", t,
        per_op "cost.netisr_queued";
      "smp.netisr_drops", "count", t,
        float_of_int (g "cost.netisr_drops");
      "smp.spin_contentions", "count", t,
        float_of_int (g "cost.spin_contentions");
      "smp.rss_steered_per_req", "count", t,
        per_op "cost.rss_steered";
      "kern.thread_failures", "count", "ok_ratio, all workloads",
        float_of_int (g "kern.thread_failures") ]
  in
  let traced =
    match tr with
    | None -> []
    | Some tr ->
        let is_client name = String.length name > 7 && String.sub name 0 7 = "client." in
        let not_client name = not (is_client name) in
        let f v = ratio v ops in
        let sum = Pb_trace.sum_calls tr in
        [ "trace.server_calls_per_op", "count", "com.calls_per_op",
            f (sum not_client (fun a -> a.Pb_trace.calls));
          "trace.server_busy_ns_per_op", "ns", "rps on http workloads",
            f (sum not_client (fun a -> a.Pb_trace.busy_ns));
          "trace.server_wait_ns_per_op", "ns", "p50_ms",
            f (sum not_client (fun a -> a.Pb_trace.wait_ns));
          "trace.client_calls_per_op", "count", "generator health",
            f (sum is_client (fun a -> a.Pb_trace.calls));
          "trace.client_wait_ns_per_op", "ns", "p50_ms",
            f (sum is_client (fun a -> a.Pb_trace.wait_ns));
          "trace.host_ns_per_op", "ns", "host_s",
            f (sum (fun _ -> true) (fun a -> a.Pb_trace.host_ns));
          "machine.residual_busy_ns_per_op", "ns",
            "rps/send_mbit: irq, driver, glue, protocol input",
            f (g "srv.busy_ns" - tr.Pb_trace.server_busy);
          "trace.overhead_s", "s", "tracing cost in host_s (traced minus untraced)",
            overhead_s;
          "trace.unwrapped_faces", "count", "faces the wrappers could not see",
            float_of_int (List.length tr.Pb_trace.unseen) ]
  in
  base @ traced

(* ---- the run ---- *)

(* Every field the trace-neutrality check compares: all virtual. *)
let virtual_view (it : Pb_bed.iter) =
  ( (it.Pb_bed.attempted, it.Pb_bed.ok, it.Pb_bed.mismatches, it.Pb_bed.lat_ns, it.Pb_bed.late_ns),
    (it.Pb_bed.rates, it.Pb_bed.counts, it.Pb_bed.cost_end, it.Pb_bed.peak_active) )

(* What the run keeps of its iterations: their merged results, without the
   per-iteration counter snapshots, so the heap holds the simulation and
   little else. *)
type tally = {
  all : Pb_bed.iter;
  iterations : int;
  setups : float list;
  hosts : float list;
  neutral : bool;  (* every traced iteration replayed its untraced twin *)
  overheads : float list;  (* traced minus untraced host_s *)
}

let () =
  let w, seed, seconds, traced = parse_args () in
  let tr = if traced then Some (Pb_trace.create ()) else None in
  let t_start = host_now () and cpu_start = host_cpu () in
  let rec loop i t =
    if i > 0 && host_now () -. t_start >= seconds then t
    else begin
      let it = w.run ~tr:None ~seed ~iter:i in
      let it =
        if i = 0 then { it with Pb_bed.setup_s = it.Pb_bed.setup_s +. cpu_start } else it
      in
      let neutral, overheads =
        match tr with
        | None -> t.neutral, t.overheads
        | Some _ ->
            let tt = w.run ~tr ~seed ~iter:i in
            ( t.neutral && virtual_view tt = virtual_view it,
              (tt.Pb_bed.host_s -. it.Pb_bed.host_s) :: t.overheads )
      in
      loop (i + 1)
        { all = Pb_bed.merge t.all { it with Pb_bed.cost_end = [] };
          iterations = i + 1;
          setups = it.Pb_bed.setup_s :: t.setups;
          hosts = it.Pb_bed.host_s :: t.hosts;
          neutral;
          overheads }
    end
  in
  let t =
    loop 0
      { all = Pb_bed.empty; iterations = 0; setups = []; hosts = []; neutral = true; overheads = [] }
  in
  let all = t.all and neutral = t.neutral in
  let setup = median_float t.setups and host = median_float t.hosts in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let e2e = end_to_end all ~setup ~host ~heap_mb in
  let overhead_s = median_float t.overheads in
  let layers = per_layer all ~tr ~overhead_s in
  let lv name = List.find_map (fun (n, _, _, v) -> if n = name then Some v else None) layers |> Option.get in
  (* Generator health: the load generator must not be what sets the pace. *)
  let gen_problems =
    if not w.http then []
    else
      (if lv "machine.client_busy_share" >= 0.85 then
         [ Printf.sprintf "generator busy share %.3f >= 0.85: the client, not the server, is the bottleneck"
             (lv "machine.client_busy_share") ]
       else [])
      @
      if w.open_loop && lv "machine.gen_late_p99_us" >= 1000.0 then
        [ Printf.sprintf "generator lateness p99 %.1f us >= 1 ms" (lv "machine.gen_late_p99_us") ]
      else []
  in
  let problems =
    all.Pb_bed.problems @ gen_problems
    @ (if all.Pb_bed.mismatches = 0 then []
       else [ Printf.sprintf "%d responses or transfers were not byte-exact" all.Pb_bed.mismatches ])
    @
    if neutral then []
    else [ "traced run differs from the untraced run in virtual time or Cost counters" ]
  in
  (* ---- the report ---- *)
  Printf.printf "perfbench %s  seed %d  iterations %d  (%.1f host s)\n" w.name seed
    t.iterations (host_now () -. t_start);
  Printf.printf "\nend-to-end (virtual time unless marked host):\n";
  List.iter
    (fun (n, v, u) ->
      let note =
        match n with
        | "setup_s" | "host_s" | "host_heap_mb" -> "  [host]"
        | "p50_ms" | "p99_ms" ->
            Printf.sprintf "  [n=%d, %d above]" (Array.length all.Pb_bed.lat_ns)
              (beyond all.Pb_bed.lat_ns (if n = "p50_ms" then 50.0 else 99.0))
        | "ok_ratio" -> Printf.sprintf "  [%d of %d attempted]" all.Pb_bed.ok all.Pb_bed.attempted
        | _ -> ""
      in
      Printf.printf "  %-16s %14.6f %-7s%s\n" n v u note)
    e2e;
  if w.name = "paper_net" then
    List.iter
      (fun (n, v) -> Printf.printf "  %-16s %14.6f %s\n" n v (if n = "rtt_us" then "us" else "Mbit/s"))
      [ "linux_send_mbit", lv "linux_net.send_mbit"; "linux_recv_mbit", lv "linux_net.recv_mbit";
        "rtt_us", lv "freebsd_net.rtt_us" ];
  if traced then begin
    Printf.printf "\nper-layer (traced run; target = the end-to-end metric it should move):\n";
    List.iter (fun (n, u, target, v) -> Printf.printf "  %-36s %14.4f %-7s %s\n" n v u target) layers;
    match tr with
    | Some tr ->
        Printf.printf "\nspans per call (per op = per %s):\n"
          (if w.http then "request" else "application send");
        Printf.printf "  %-26s %-12s %10s %12s %12s %12s\n" "call" "layer" "per op" "busy ns"
          "wait ns" "host ns";
        List.iter
          (fun (name, (a : Pb_trace.agg)) ->
            Printf.printf "  %-26s %-12s %10.3f %12.1f %12.1f %12.1f\n" name a.Pb_trace.layer
              (ratio a.Pb_trace.calls all.Pb_bed.ops)
              (ratio a.Pb_trace.busy_ns a.Pb_trace.calls)
              (ratio a.Pb_trace.wait_ns a.Pb_trace.calls)
              (ratio a.Pb_trace.host_ns a.Pb_trace.calls))
          (Pb_trace.table tr);
        Printf.printf "  faces passed through unwrapped: %s\n"
          (match tr.Pb_trace.unseen with [] -> "none" | l -> String.concat ", " l);
        Printf.printf
          "  listener objects the reactor passes in are its own: notifications are not spanned\n";
        Printf.printf "  trace neutrality (virtual metrics and every Cost counter): %s\n"
          (if neutral then "identical" else "DIFFERENT");
        (try
           if not (Sys.file_exists "perfbench/_out") then Sys.mkdir "perfbench/_out" 0o755;
           let path = Printf.sprintf "perfbench/_out/trace-%s.json" w.name in
           Pb_trace.write_chrome tr path;
           Printf.printf "  chrome trace: %s (%d spans)\n" path tr.Pb_trace.kept
         with Sys_error e -> Printf.printf "  chrome trace not written: %s\n" e)
    | None -> ()
  end;
  List.iter (fun s -> Printf.printf "incident (counted as failed operations): %s\n" s) all.Pb_bed.incidents;
  List.iter (fun s -> Printf.printf "FAILED CHECK: %s\n" s) problems;
  (* ---- the result line ---- *)
  let metrics =
    if traced then List.map (fun (n, u, _, v) -> n, v, u) layers else e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (problems = []) all.Pb_bed.attempted
    (all.Pb_bed.attempted - all.Pb_bed.ok)
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          metrics))
