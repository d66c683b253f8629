type config = {
  mutable cpu_hz : int;
  mutable copy_cycles_per_byte : int;
  mutable checksum_cycles_per_byte : int;
  mutable com_call_cycles : int;
  mutable glue_crossing_cycles : int;
  mutable irq_entry_cycles : int;
  mutable alloc_cycles : int;
  mutable pool_alloc_cycles : int;
  mutable linux_driver_pkt_cycles : int;
  mutable bsd_tcp_pkt_cycles : int;
  mutable linux_tcp_pkt_cycles : int;
  mutable socket_op_cycles : int;
  mutable thread_spawn_cycles : int;
  mutable sg_tx : bool;
  mutable tcp_fastpath : bool;
  mutable tcp_fastpath_cycles : int;
  mutable pcb_hash : bool;
  mutable rx_batch : int;
  mutable tcp_wscale : bool;
  mutable tcp_autotune : bool;
  mutable tcp_mss : int;
  mutable tcp_sockbuf_max : int;
  mutable syn_defense : bool;
  mutable syncache_size : int;
  mutable tw_max : int;
  mutable icmp_ratelimit : int;
  mutable alloc_fail_prob : float;
  mutable alloc_fail_seed : int;
  mutable alloc_fail_burst : int;
  mutable httpd_guard : bool;
  mutable httpd_header_deadline_ns : int;
  mutable httpd_max_header_bytes : int;
  mutable httpd_shed_hiwat : int;
  mutable ncpus : int;
  mutable netisr_qmax : int;
  mutable kq : bool;
  mutable timer_wheel : bool;
  mutable http_keepalive : bool; (* off = HTTP/1.0 close-per-request, same engine *)
  mutable http_idle_timeout_ns : int;
  mutable http_max_reqs_per_conn : int; (* 0 = unlimited *)
  mutable http_pipeline_max : int; (* parse-ahead bound per connection *)
  mutable sendfile : bool; (* zero-copy bodies, with or without keep-alive *)
}

let max_cpus = 16

let paper () =
  { cpu_hz = 200_000_000;
    copy_cycles_per_byte = 4;
    checksum_cycles_per_byte = 2;
    com_call_cycles = 40;
    glue_crossing_cycles = 1500;
    irq_entry_cycles = 400;
    alloc_cycles = 150;
    pool_alloc_cycles = 30;
    linux_driver_pkt_cycles = 2500;
    bsd_tcp_pkt_cycles = 4000;
    linux_tcp_pkt_cycles = 6000;
    socket_op_cycles = 500;
    thread_spawn_cycles = 0;
    sg_tx = false;
    tcp_fastpath = false;
    tcp_fastpath_cycles = 850;
    pcb_hash = false;
    rx_batch = 1;
    tcp_wscale = false;
    tcp_autotune = false;
    tcp_mss = 1460;
    tcp_sockbuf_max = 2 * 1024 * 1024;
    syn_defense = false;
    syncache_size = 64;
    tw_max = 0;
    icmp_ratelimit = 0;
    alloc_fail_prob = 0.0;
    alloc_fail_seed = 1;
    alloc_fail_burst = 1;
    httpd_guard = false;
    httpd_header_deadline_ns = 1_000_000_000;
    httpd_max_header_bytes = 4096;
    httpd_shed_hiwat = 0;
    ncpus = 1;
    netisr_qmax = 512;
    kq = false;
    timer_wheel = false;
    http_keepalive = false;
    http_idle_timeout_ns = 5_000_000_000;
    http_max_reqs_per_conn = 0;
    http_pipeline_max = 8;
    sendfile = false }

let config = paper ()

(* One line per profile field: its name, how to read and to write it, and
   how to print it.  [copy_into] (behind [reset_config] and [with_config])
   and [diff] are derived from this table, so a new field takes one line
   here.  It leaves out [kq], [timer_wheel] and [pcb_hash]: nothing reads
   them, and only perfbench still writes them. *)
type field =
  | F : string * (config -> 'a) * (config -> 'a -> unit) * ('a -> string) -> field

let int name get set = F (name, get, set, string_of_int)
let bool name get set = F (name, get, set, string_of_bool)
let float name get set = F (name, get, set, Printf.sprintf "%g")

let fields =
  [ int "cpu_hz" (fun c -> c.cpu_hz) (fun c v -> c.cpu_hz <- v);
    int "copy_cycles_per_byte" (fun c -> c.copy_cycles_per_byte)
      (fun c v -> c.copy_cycles_per_byte <- v);
    int "checksum_cycles_per_byte" (fun c -> c.checksum_cycles_per_byte)
      (fun c v -> c.checksum_cycles_per_byte <- v);
    int "com_call_cycles" (fun c -> c.com_call_cycles)
      (fun c v -> c.com_call_cycles <- v);
    int "glue_crossing_cycles" (fun c -> c.glue_crossing_cycles)
      (fun c v -> c.glue_crossing_cycles <- v);
    int "irq_entry_cycles" (fun c -> c.irq_entry_cycles)
      (fun c v -> c.irq_entry_cycles <- v);
    int "alloc_cycles" (fun c -> c.alloc_cycles) (fun c v -> c.alloc_cycles <- v);
    int "pool_alloc_cycles" (fun c -> c.pool_alloc_cycles)
      (fun c v -> c.pool_alloc_cycles <- v);
    int "linux_driver_pkt_cycles" (fun c -> c.linux_driver_pkt_cycles)
      (fun c v -> c.linux_driver_pkt_cycles <- v);
    int "bsd_tcp_pkt_cycles" (fun c -> c.bsd_tcp_pkt_cycles)
      (fun c v -> c.bsd_tcp_pkt_cycles <- v);
    int "linux_tcp_pkt_cycles" (fun c -> c.linux_tcp_pkt_cycles)
      (fun c v -> c.linux_tcp_pkt_cycles <- v);
    int "socket_op_cycles" (fun c -> c.socket_op_cycles)
      (fun c v -> c.socket_op_cycles <- v);
    int "thread_spawn_cycles" (fun c -> c.thread_spawn_cycles)
      (fun c v -> c.thread_spawn_cycles <- v);
    bool "sg_tx" (fun c -> c.sg_tx) (fun c v -> c.sg_tx <- v);
    bool "tcp_fastpath" (fun c -> c.tcp_fastpath) (fun c v -> c.tcp_fastpath <- v);
    int "tcp_fastpath_cycles" (fun c -> c.tcp_fastpath_cycles)
      (fun c v -> c.tcp_fastpath_cycles <- v);
    int "rx_batch" (fun c -> c.rx_batch) (fun c v -> c.rx_batch <- v);
    bool "tcp_wscale" (fun c -> c.tcp_wscale) (fun c v -> c.tcp_wscale <- v);
    bool "tcp_autotune" (fun c -> c.tcp_autotune) (fun c v -> c.tcp_autotune <- v);
    int "tcp_mss" (fun c -> c.tcp_mss) (fun c v -> c.tcp_mss <- v);
    int "tcp_sockbuf_max" (fun c -> c.tcp_sockbuf_max)
      (fun c v -> c.tcp_sockbuf_max <- v);
    bool "syn_defense" (fun c -> c.syn_defense) (fun c v -> c.syn_defense <- v);
    int "syncache_size" (fun c -> c.syncache_size) (fun c v -> c.syncache_size <- v);
    int "tw_max" (fun c -> c.tw_max) (fun c v -> c.tw_max <- v);
    int "icmp_ratelimit" (fun c -> c.icmp_ratelimit) (fun c v -> c.icmp_ratelimit <- v);
    float "alloc_fail_prob" (fun c -> c.alloc_fail_prob)
      (fun c v -> c.alloc_fail_prob <- v);
    int "alloc_fail_seed" (fun c -> c.alloc_fail_seed)
      (fun c v -> c.alloc_fail_seed <- v);
    int "alloc_fail_burst" (fun c -> c.alloc_fail_burst)
      (fun c v -> c.alloc_fail_burst <- v);
    bool "httpd_guard" (fun c -> c.httpd_guard) (fun c v -> c.httpd_guard <- v);
    int "httpd_header_deadline_ns" (fun c -> c.httpd_header_deadline_ns)
      (fun c v -> c.httpd_header_deadline_ns <- v);
    int "httpd_max_header_bytes" (fun c -> c.httpd_max_header_bytes)
      (fun c v -> c.httpd_max_header_bytes <- v);
    int "httpd_shed_hiwat" (fun c -> c.httpd_shed_hiwat)
      (fun c v -> c.httpd_shed_hiwat <- v);
    int "ncpus" (fun c -> c.ncpus) (fun c v -> c.ncpus <- v);
    int "netisr_qmax" (fun c -> c.netisr_qmax) (fun c v -> c.netisr_qmax <- v);
    bool "http_keepalive" (fun c -> c.http_keepalive) (fun c v -> c.http_keepalive <- v);
    int "http_idle_timeout_ns" (fun c -> c.http_idle_timeout_ns)
      (fun c v -> c.http_idle_timeout_ns <- v);
    int "http_max_reqs_per_conn" (fun c -> c.http_max_reqs_per_conn)
      (fun c v -> c.http_max_reqs_per_conn <- v);
    int "http_pipeline_max" (fun c -> c.http_pipeline_max)
      (fun c v -> c.http_pipeline_max <- v);
    bool "sendfile" (fun c -> c.sendfile) (fun c v -> c.sendfile <- v) ]

let copy_into ~src dst = List.iter (fun (F (_, get, set, _)) -> set dst (get src)) fields

let diff a b =
  List.filter_map
    (fun (F (name, get, _, show)) ->
      if get a = get b then None else Some (name, show (get b)))
    fields

let reset_config () = copy_into ~src:(paper ()) config

let with_config p f =
  let saved = paper () in
  copy_into ~src:config saved;
  copy_into ~src:p config;
  Fun.protect ~finally:(fun () -> copy_into ~src:saved config) f

type counters = {
  mutable copies : int;
  mutable copied_bytes : int;
  mutable glue_crossings : int;
  mutable com_calls : int;
  mutable checksummed_bytes : int;
  mutable sg_xmits : int;
  mutable linearized_xmits : int;
  mutable fastpath_hits : int;
  mutable fastpath_fallbacks : int;
  mutable pcb_cache_hits : int;
  mutable pcb_cache_misses : int;
  mutable rx_polls : int;
  mutable rx_batched_frames : int;
  mutable spin_contentions : int;
  mutable netisr_queued : int;
  mutable netisr_drops : int;
  mutable rss_steered : int;
  mutable kq_posted : int;
  mutable kq_coalesced : int;
  mutable wheel_arms : int;
  mutable wheel_cancels : int;
  mutable wheel_cascades : int;
  mutable wheel_fires : int;
  mutable tick_visits : int;
  (* content path (PR 10): buffer-cache traffic and httpd body accounting *)
  mutable bufcache_hits : int;
  mutable bufcache_misses : int;
  mutable sendfile_bodies : int; (* response bodies served from mapped cache blocks *)
  mutable sendfile_fallbacks : int; (* sendfile wanted but fs/socket could not map: copied *)
  mutable http_body_copies : int; (* httpd 200 bodies built via the copy path *)
  mutable http_body_copied_bytes : int;
}

let make_counters () =
  { copies = 0; copied_bytes = 0; glue_crossings = 0; com_calls = 0;
    checksummed_bytes = 0; sg_xmits = 0; linearized_xmits = 0;
    fastpath_hits = 0; fastpath_fallbacks = 0;
    pcb_cache_hits = 0; pcb_cache_misses = 0;
    rx_polls = 0; rx_batched_frames = 0;
    spin_contentions = 0; netisr_queued = 0; netisr_drops = 0; rss_steered = 0;
    kq_posted = 0; kq_coalesced = 0;
    wheel_arms = 0; wheel_cancels = 0; wheel_cascades = 0; wheel_fires = 0;
    tick_visits = 0;
    bufcache_hits = 0; bufcache_misses = 0;
    sendfile_bodies = 0; sendfile_fallbacks = 0;
    http_body_copies = 0; http_body_copied_bytes = 0 }

(* [counters] is the aggregation view every existing test and bench reads;
   [shards.(cpu)] is the per-CPU split.  Every bump updates both, so the
   totals are identical at any ncpus and the shards always sum to them. *)
let counters = make_counters ()
let shards = Array.init max_cpus (fun _ -> make_counters ())

let clear_counters c =
  c.copies <- 0;
  c.copied_bytes <- 0;
  c.glue_crossings <- 0;
  c.com_calls <- 0;
  c.checksummed_bytes <- 0;
  c.sg_xmits <- 0;
  c.linearized_xmits <- 0;
  c.fastpath_hits <- 0;
  c.fastpath_fallbacks <- 0;
  c.pcb_cache_hits <- 0;
  c.pcb_cache_misses <- 0;
  c.rx_polls <- 0;
  c.rx_batched_frames <- 0;
  c.spin_contentions <- 0;
  c.netisr_queued <- 0;
  c.netisr_drops <- 0;
  c.rss_steered <- 0;
  c.kq_posted <- 0;
  c.kq_coalesced <- 0;
  c.wheel_arms <- 0;
  c.wheel_cancels <- 0;
  c.wheel_cascades <- 0;
  c.wheel_fires <- 0;
  c.tick_visits <- 0;
  c.bufcache_hits <- 0;
  c.bufcache_misses <- 0;
  c.sendfile_bodies <- 0;
  c.sendfile_fallbacks <- 0;
  c.http_body_copies <- 0;
  c.http_body_copied_bytes <- 0

let reset_counters () =
  clear_counters counters;
  Array.iter clear_counters shards

let sink : (int -> unit) option ref = ref None
let set_sink f = sink := f
let get_sink () = !sink
let has_sink () = Option.is_some !sink

(* Which CPU is executing, for counter attribution.  Installed by Machine
   alongside the charge sink; outside any machine context CPU 0 absorbs the
   bump (mirroring how charges outside a machine are dropped — the shard is
   still counted so the aggregation invariant holds). *)
let cpu_source : (unit -> int) option ref = ref None
let set_cpu_source f = cpu_source := f
let current_cpu () = match !cpu_source with Some f -> f () | None -> 0
let counters_for ~cpu = shards.(cpu)
let shard () = shards.(current_cpu ())

(* Whether the executing machine runs a native kernel, which has no
   component glue to cross.  Installed by Machine like the CPU source;
   outside any machine context every crossing is charged. *)
let native_source : (unit -> bool) option ref = ref None
let set_native_source f = native_source := f
let executing_native () = match !native_source with Some f -> f () | None -> false

let charge_ns ns = match !sink with Some f -> f ns | None -> ()

(* 200 MHz = 5 ns per cycle; compute exactly to stay calibratable. *)
let cycles_to_ns c = c * 1_000_000_000 / config.cpu_hz
let charge_cycles c = charge_ns (cycles_to_ns c)

(* [bump f] applies the same increment to the aggregate record and to the
   executing CPU's shard. *)
let bump f =
  f counters;
  f (shard ())

let charge_copy n =
  bump (fun c ->
      c.copies <- c.copies + 1;
      c.copied_bytes <- c.copied_bytes + n);
  charge_cycles (n * config.copy_cycles_per_byte)

let charge_checksum n =
  bump (fun c -> c.checksummed_bytes <- c.checksummed_bytes + n);
  charge_cycles (n * config.checksum_cycles_per_byte)

let count_com_call () = bump (fun c -> c.com_calls <- c.com_calls + 1)
let count_sg_xmit () = bump (fun c -> c.sg_xmits <- c.sg_xmits + 1)
let count_linearized_xmit () =
  bump (fun c -> c.linearized_xmits <- c.linearized_xmits + 1)
let count_fastpath_hit () = bump (fun c -> c.fastpath_hits <- c.fastpath_hits + 1)
let count_fastpath_fallback () =
  bump (fun c -> c.fastpath_fallbacks <- c.fastpath_fallbacks + 1)
let count_pcb_cache_hit () = bump (fun c -> c.pcb_cache_hits <- c.pcb_cache_hits + 1)
let count_pcb_cache_miss () =
  bump (fun c -> c.pcb_cache_misses <- c.pcb_cache_misses + 1)
let count_rx_poll ~frames =
  bump (fun c ->
      c.rx_polls <- c.rx_polls + 1;
      c.rx_batched_frames <- c.rx_batched_frames + frames)

let count_spin_contention () =
  bump (fun c -> c.spin_contentions <- c.spin_contentions + 1)
let count_netisr_queued () = bump (fun c -> c.netisr_queued <- c.netisr_queued + 1)
let count_netisr_drop () = bump (fun c -> c.netisr_drops <- c.netisr_drops + 1)
let count_rss_steered () = bump (fun c -> c.rss_steered <- c.rss_steered + 1)
let count_kq_posted () = bump (fun c -> c.kq_posted <- c.kq_posted + 1)
let count_kq_coalesced () = bump (fun c -> c.kq_coalesced <- c.kq_coalesced + 1)
let count_wheel_arm () = bump (fun c -> c.wheel_arms <- c.wheel_arms + 1)
let count_wheel_cancel () = bump (fun c -> c.wheel_cancels <- c.wheel_cancels + 1)
let count_wheel_fire () = bump (fun c -> c.wheel_fires <- c.wheel_fires + 1)
let count_bufcache_hit () = bump (fun c -> c.bufcache_hits <- c.bufcache_hits + 1)
let count_bufcache_miss () = bump (fun c -> c.bufcache_misses <- c.bufcache_misses + 1)
let count_sendfile_body () = bump (fun c -> c.sendfile_bodies <- c.sendfile_bodies + 1)
let count_sendfile_fallback () =
  bump (fun c -> c.sendfile_fallbacks <- c.sendfile_fallbacks + 1)

(* An httpd body went through the copy path: counted (not charged — the
   copy itself is charged where it happens) so benches can draw the
   bytes-copied-per-request curve. *)
let count_http_body_copy n =
  bump (fun c ->
      c.http_body_copies <- c.http_body_copies + 1;
      c.http_body_copied_bytes <- c.http_body_copied_bytes + n)

let charge_com_call () =
  bump (fun c -> c.com_calls <- c.com_calls + 1);
  charge_cycles config.com_call_cycles

(* A native kernel links its stack, drivers and file system directly, so
   a call that crosses the glue on an OSKit machine costs there exactly
   what the direct call costs: nothing is charged or counted. *)
let charge_glue_crossing () =
  if not (executing_native ()) then begin
    bump (fun c -> c.glue_crossings <- c.glue_crossings + 1);
    charge_cycles config.glue_crossing_cycles
  end

let charge_alloc () = charge_cycles config.alloc_cycles

let charge_pool_alloc () = charge_cycles config.pool_alloc_cycles
