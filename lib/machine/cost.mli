(** The CPU cost model for the simulated testbed.

    The paper's evaluation ran on two Pentium Pro 200 MHz PCs connected by
    100 Mbps Ethernet.  We reproduce the *shape* of its results by charging
    virtual cycles for the operations that dominated on that hardware:
    memory copies, checksums, per-packet protocol and driver work, interrupt
    entry, and — the quantity the paper isolates — the glue-code overhead at
    each component boundary (Section 5: "the price we pay for modularity and
    separability").

    All charges accrue to the machine currently executing (see
    {!Machine.run_in}).  Outside any machine context charges are dropped:
    the same component code runs unchanged in "user mode" (Section 3.2
    notes most libraries are useful there too), where virtual time has no
    meaning. *)

type config = {
  mutable cpu_hz : int;  (** CPU frequency; default 200 MHz *)
  mutable copy_cycles_per_byte : int;  (** memcpy, cache-cold; default 4 *)
  mutable checksum_cycles_per_byte : int;  (** IP/TCP checksum; default 2 *)
  mutable com_call_cycles : int;
      (** one COM method dispatch (vtable indirection); default 40 *)
  mutable glue_crossing_cycles : int;
      (** one crossing of an encapsulation boundary: argument conversion,
          curproc manufacture, buffer re-wrapping; default 1500 *)
  mutable irq_entry_cycles : int;  (** interrupt entry+exit; default 400 *)
  mutable alloc_cycles : int;
      (** one general-purpose allocator round trip (LMM walk or malloc);
          default 150 *)
  mutable pool_alloc_cycles : int;
      (** one pooled (freelist-hit) allocation: a size-class or buffer-pool
          pop, no allocator walk; default 30 *)
  mutable linux_driver_pkt_cycles : int;
      (** Linux driver per-packet work (ring handling, device programming);
          default 2500 *)
  mutable bsd_tcp_pkt_cycles : int;
      (** FreeBSD TCP/IP per-segment protocol work; default 4000 *)
  mutable linux_tcp_pkt_cycles : int;
      (** Linux inet per-segment protocol work; default 6000 *)
  mutable socket_op_cycles : int;
      (** socket-layer entry (sosend/soreceive bookkeeping); default 500 *)
  mutable thread_spawn_cycles : int;
      (** creating a kernel thread (stack carve-out, queue insertion).
          Default 0 — free, so calibrated Table 1/2 runs are untouched;
          the httpd concurrency bench raises it to make thread-per-
          connection pay its real per-accept price. *)
  mutable sg_tx : bool;
      (** scatter-gather transmit across the mbuf->skbuff glue: when on, a
          discontiguous chain crosses the boundary as an iovec instead of
          being flattened into a fresh contiguous sk_buff.  Default [false]
          so the Table 1/2 shapes stay paper-faithful (OSKit send pays the
          flatten copy, as measured on the 1997 testbed). *)
  mutable tcp_fastpath : bool;
      (** Van Jacobson header prediction on the TCP receive side (both
          stacks): an in-order segment from the expected peer that carries
          no surprises pays {!field:tcp_fastpath_cycles} instead of the full
          per-segment protocol charge; anything else pays the difference.
          A charge, not a code path: every segment runs the one general
          input path either way.  Default [false] so
          the Table 2 RTT stays paper-faithful (the 1997 snapshot in the
          OSKit predates the prediction fast path). *)
  mutable tcp_fastpath_cycles : int;
      (** Protocol cycles for a header-predicted segment: the one compare,
          the trivial ACK/append work, no general-case machinery.
          Default 850. *)
  mutable pcb_hash : bool;
      (** Ignored, and scheduled for deletion.  Inbound demux has one
          engine — the 4-tuple hash with its one-entry last-PCB cache
          (BSD's [tcp_last_inpcb]) in [lib/inet/demux.ml], in TCP and UDP
          of both stacks — so nothing reads this field; it survives only
          because [perfbench/pb_http.ml] still assigns it.  Default
          [false]. *)
  mutable rx_batch : int;
      (** [> 1] selects the batched glue in both directions; the value
          is the receive poll budget.  Receive: how many pending frames
          one interrupt may carry from the driver to the stack through a
          single glue crossing.  Transmit: the frames one BSD
          [tcp_output] call emits cross to the driver as one burst
          ([Netif.with_burst]).  [<= 1]: every frame crosses alone, in
          both directions.  Default 1. *)
  mutable tcp_wscale : bool;
      (** RFC 1323 window scaling in both stacks: offer a wscale option on
          SYN/SYN-ACK, and when both ends offer, interpret window fields
          shifted by the negotiated scale, letting windows grow past the
          16-bit 65535-byte ceiling that caps long-fat-pipe throughput.
          Changes SYN wire bytes, so default [false] to keep the committed
          Table 1/2 baselines bit-identical. *)
  mutable tcp_autotune : bool;
      (** BDP-driven socket-buffer autotuning: grow a connection's send and
          receive buffers (doubling, capped at {!field:tcp_sockbuf_max})
          whenever the window — not the application or the path — is what
          is limiting transfer; both stacks share [lib/inet/autotune.ml].
          Only useful with {!field:tcp_wscale}; default [false]. *)
  mutable tcp_mss : int;
      (** The local maximum segment size both stacks advertise and clamp
          to; raise alongside {!Netif.t.if_mtu} for jumbo frames
          (9000-byte MTU => 8960 MSS).  Default 1460 (1500-byte
          Ethernet MTU minus 40 bytes of IP+TCP header). *)
  mutable tcp_sockbuf_max : int;
      (** Ceiling for autotuned socket buffers and the basis for the wscale
          each stack requests ([scale] is the smallest shift making this
          representable in a 16-bit window field).  Default 2 MB — covers
          the 100 Mbit x 50 ms = 625 KB bandwidth-delay product of the
          longfat bench's worst path with room for jumbo-frame rounding. *)
  mutable syn_defense : bool;
      (** SYN-flood defense in both stacks: half-open handshakes live in a
          compact per-listener syncache instead of full PCBs/socks, so
          embryonic connections stop counting against the accept backlog;
          when the cache overflows, completion falls back to stateless SYN
          cookies (the ISS encodes a 4-tuple hash + MSS class, validated on
          the completing ACK).  One implementation for both stacks, in
          [lib/inet/syncache.ml]; each keeps its own cookie secret.
          Changes the ISS the listener emits, so default [false] to keep
          the committed baselines bit-identical. *)
  mutable syncache_size : int;
      (** Per-listener syncache capacity; beyond it the oldest entry is
          evicted (its handshake can still finish via the cookie); see
          [lib/inet/syncache.ml].  Default 64. *)
  mutable tw_max : int;
      (** Cap on simultaneously held TIME_WAIT connections per stack;
          crossing it reclaims the oldest immediately instead of waiting
          2xMSL; the oldest-first queue is [lib/inet/tw_queue.ml].  [0]
          (default) = unbounded, the donor behavior. *)
  mutable icmp_ratelimit : int;
      (** Token-bucket limit, in errors per second, on generated network
          errors (ICMP port unreachable and the no-connection RST in the BSD
          stack, the no-socket RST in the Linux stack); bucket depth equals
          the rate, one [lib/inet/token_bucket.ml] bucket per error kind
          per stack.  [0] (default) = unlimited, the donor behavior. *)
  mutable alloc_fail_prob : float;
      (** Memfault: probability that one pooled packet-buffer allocation
          ({!Bpool.get}) fails with [Memfault.Nomem].  Deterministic given
          {!field:alloc_fail_seed} and the allocation sequence.  Default 0.0
          = never. *)
  mutable alloc_fail_seed : int;  (** Memfault PRNG seed; default 1. *)
  mutable alloc_fail_burst : int;
      (** How many consecutive allocations fail once a failure triggers
          (kmem shortages come in runs, not singletons).  Default 1. *)
  mutable httpd_guard : bool;
      (** Slow-client hardening in the httpd: per-connection header
          deadlines ({!field:httpd_header_deadline_ns}), a bounded request
          header buffer ({!field:httpd_max_header_bytes}), and early 503
          shedding ({!field:httpd_shed_hiwat}).  Default [false] so the
          committed http/rtt baselines regenerate bit-identically. *)
  mutable httpd_header_deadline_ns : int;
      (** With {!field:httpd_guard}: how long a reactor connection may
          take to deliver its first full request header before being
          closed without a response — with or without keep-alive, so
          dripping bytes cannot hold a connection.  Default 1 s. *)
  mutable httpd_max_header_bytes : int;
      (** With {!field:httpd_guard}: unframed request-header bytes
          accepted before the connection is closed without a response.
          Default 4096. *)
  mutable httpd_shed_hiwat : int;
      (** With {!field:httpd_guard}: active-connection high-water mark above
          which new connections are answered [503 Retry-After] and closed
          instead of admitted.  [0] = no shedding below [max_conns].
          Default 0. *)
  mutable ncpus : int;
      (** How many CPUs a {!Machine.create}d machine gets (each with its
          own cycle clock and run queue, advanced in lockstep virtual
          time), and therefore how many netisr protocol shards the network
          stacks run.  Default 1 — single-CPU, so every committed baseline
          regenerates bit-identically; the smp bench raises it. *)
  mutable netisr_qmax : int;
      (** Bound on each per-CPU netisr message queue (frames steered to a
          CPU but not yet processed); beyond it frames are dropped and
          counted ({!field:counters.netisr_drops}), like a software-interrupt
          queue overflow.  Default 512. *)
  mutable kq : bool;
      (** Ignored, and scheduled for deletion.  The reactor has one
          engine — every {!Reactor.create} is a {!Kqueue.t} client — so
          nothing reads this field; it survives only because
          [perfbench/pb_http.ml] still assigns it.  Default [false]. *)
  mutable timer_wheel : bool;
      (** Ignored, and scheduled for deletion.  Kernel timers have one
          engine each — BSD TCP's four per-pcb timers are entries on
          its two tick-indexed {!Timewheel}s, and the Linux stack and
          the httpd arm events at exact deadlines — so nothing reads
          this field; it survives only because [perfbench/pb_http.ml]
          still assigns it.  Default [false]. *)
  mutable http_keepalive : bool;
      (** A parameter of the httpd's one protocol engine (per serving
          shape), not a choice between engines.  On: HTTP/1.1 persistent
          connections — per-request [Connection]/version parsing, bounded
          pipelining with strictly in-order responses, keep-alive idle
          timeouts and the [http_max_reqs_per_conn] guard.  Off (default):
          the paper-era server — one request per connection, answered
          HTTP/1.0 with [Connection: close] whatever the client spoke, no
          idle reaper, and blocking sockets in the thread-per-connection
          shape (no nonblock option, no asyncio COM calls). *)
  mutable http_idle_timeout_ns : int;
      (** With {!field:http_keepalive}: how long a persistent connection
          may sit idle between requests before the server closes it.
          Default 5 s. *)
  mutable http_max_reqs_per_conn : int;
      (** With {!field:http_keepalive}: requests served on one connection
          before the server answers [Connection: close] (a fairness /
          state-turnover guard).  [0] (default) = unlimited. *)
  mutable http_pipeline_max : int;
      (** With {!field:http_keepalive}: how many pipelined requests one
          connection may have parsed-ahead but not yet answered; beyond it
          the server stops parsing until responses drain (socket-buffer
          backpressure does the rest).  Default 8. *)
  mutable sendfile : bool;
      (** Zero-copy content path: the httpd maps response bodies straight
          from the file system's buffer-cache blocks ({!Io_if.filemap})
          into the socket's scatter send face ({!Io_if.sendv}), so body
          bytes are never copied between the cache and the wire on a
          stack that can alias loaned pages (FreeBSD mbufs; the OSKit
          config additionally needs {!field:sg_tx} to avoid the glue
          flatten).  When the fs cannot map (hole) or the socket has no
          sendv face (the Linux stack's contiguous sk_buffs — §5's copy),
          the httpd falls back to the counted copy path.  Independent of
          {!field:http_keepalive}: it applies to close-per-request
          connections too.  Default [false]. *)
}

(** Hard ceiling on {!field:config.ncpus} (shard arrays are sized to it). *)
val max_cpus : int

(** The live configuration.  Benches do not mutate it: they run under a
    profile ({!with_config}). *)
val config : config

(** [paper ()] is a fresh copy of the documented defaults — the paper's
    1997 testbed, every opt-in mechanism off.  An ablation is this
    profile with one named field changed:
    [{ (Cost.paper ()) with Cost.sg_tx = true }]. *)
val paper : unit -> config

(** Restore every field to its documented default ({!paper}). *)
val reset_config : unit -> unit

(** [with_config p f] installs profile [p] as the live configuration while
    [f] runs, then restores the caller's configuration, on return or on
    exception; uses nest.  Like {!reset_config} it leaves [kq],
    [timer_wheel] and [pcb_hash] alone. *)
val with_config : config -> (unit -> 'a) -> 'a

(** [diff a b] names the fields where [b] differs from [a], in declaration
    order, each with [b]'s value printed: [diff (paper ()) p] is how a
    bench record names profile [p], and [diff p p = []].  It covers the
    fields {!with_config} installs, so it too skips [kq], [timer_wheel]
    and [pcb_hash]. *)
val diff : config -> config -> (string * string) list

(** {2 Charging}

    Each function advances the current machine's clock. *)

val charge_cycles : int -> unit
val charge_ns : int -> unit

(** [charge_copy n] charges copying [n] bytes. *)
val charge_copy : int -> unit

(** [charge_checksum n] charges checksumming [n] bytes. *)
val charge_checksum : int -> unit

val charge_com_call : unit -> unit

(** [charge_glue_crossing ()] charges one crossing of the OSKit glue
    ([glue_crossing_cycles], counted in [glue_crossings]) — unless the
    executing machine runs a native kernel ({!Machine.bind_kernel}), which
    has no glue: there it charges and counts nothing. *)
val charge_glue_crossing : unit -> unit
val charge_alloc : unit -> unit

(** Pooled fast-path allocation (freelist hit). *)
val charge_pool_alloc : unit -> unit

val cycles_to_ns : int -> int

(** {2 Accounting}

    Benches also count events, to report e.g. copies-per-packet
    (Ablation B). *)

type counters = {
  mutable copies : int;
  mutable copied_bytes : int;
  mutable glue_crossings : int;
  mutable com_calls : int;
  mutable checksummed_bytes : int;  (** bytes passed through [charge_checksum] *)
  mutable sg_xmits : int;  (** frames DMA-gathered from an iovec (no CPU flatten) *)
  mutable linearized_xmits : int;  (** frames the glue had to flatten into one buffer *)
  mutable fastpath_hits : int;  (** segments taken by header prediction *)
  mutable fastpath_fallbacks : int;
      (** established-state segments that missed the prediction and paid
          the general input path (handshake/teardown segments are not
          counted: they are inherently slow-path) *)
  mutable pcb_cache_hits : int;  (** demux resolved by the one-entry PCB cache *)
  mutable pcb_cache_misses : int;  (** demux that fell to the hash (or scan) *)
  mutable rx_polls : int;  (** batched RX deliveries (one glue crossing each) *)
  mutable rx_batched_frames : int;
      (** frames carried by those deliveries; mean burst =
          rx_batched_frames / rx_polls *)
  mutable spin_contentions : int;
      (** spinlock acquisitions that found the lock held (cross-CPU
          contended spins and failed trylocks) *)
  mutable netisr_queued : int;  (** frames steered to another CPU's netisr queue *)
  mutable netisr_drops : int;  (** frames dropped because that queue was full *)
  mutable rss_steered : int;
      (** frames the NIC's hardware RSS classified into a multi-queue RX
          ring (each queue's MSI-X vector interrupts the flow's home CPU) *)
  mutable kq_posted : int;
      (** knote activations that enqueued onto a kqueue ready queue *)
  mutable kq_coalesced : int;
      (** knote activations absorbed by an already-queued entry *)
  mutable wheel_arms : int;  (** timing-wheel entries armed *)
  mutable wheel_cancels : int;  (** timing-wheel entries cancelled before firing *)
  mutable wheel_cascades : int;
      (** Always 0: the timing wheel has one level and re-files nothing.
          Kept because perfbench reads it. *)
  mutable wheel_fires : int;  (** timing-wheel entries fired *)
  mutable tick_visits : int;
      (** Always 0: no timer walks the PCB list any more.  Kept because
          perfbench reads it. *)
  mutable bufcache_hits : int;  (** buffer-cache lookups served without device I/O *)
  mutable bufcache_misses : int;  (** buffer-cache lookups that faulted a block in *)
  mutable sendfile_bodies : int;
      (** response bodies served zero-copy from mapped cache blocks *)
  mutable sendfile_fallbacks : int;
      (** bodies that wanted sendfile but had to copy (unmappable file or
          no socket sendv face) *)
  mutable http_body_copies : int;
      (** httpd 200 bodies built via the copy path (every mode) *)
  mutable http_body_copied_bytes : int;  (** bytes those copies moved *)
}

(** The aggregation view: totals across all CPUs.  Every bump lands here
    {e and} in the executing CPU's shard, so tests written against these
    totals read the same numbers at any [ncpus]. *)
val counters : counters

(** [counters_for ~cpu] — the events attributed to one CPU.  Shards sum to
    {!counters} field-by-field. *)
val counters_for : cpu:int -> counters

val reset_counters : unit -> unit

(** {2 Event counting without a cycle charge}

    These bump the audit counters but advance no clock: the dispatch or
    gather they record is either already folded into another charge (glue
    crossings subsume the COM vtable hop) or costed elsewhere at DMA rate
    ({!Nic.transmit}).  Counter-only, so enabling the accounting cannot
    perturb a calibrated run. *)

val count_com_call : unit -> unit
val count_sg_xmit : unit -> unit
val count_linearized_xmit : unit -> unit
val count_fastpath_hit : unit -> unit
val count_fastpath_fallback : unit -> unit
val count_pcb_cache_hit : unit -> unit
val count_pcb_cache_miss : unit -> unit

(** [count_rx_poll ~frames] records one batched RX delivery of [frames]
    frames. *)
val count_rx_poll : frames:int -> unit

val count_spin_contention : unit -> unit
val count_netisr_queued : unit -> unit
val count_netisr_drop : unit -> unit
val count_rss_steered : unit -> unit
val count_kq_posted : unit -> unit
val count_kq_coalesced : unit -> unit
val count_wheel_arm : unit -> unit
val count_wheel_cancel : unit -> unit
val count_wheel_fire : unit -> unit
val count_bufcache_hit : unit -> unit
val count_bufcache_miss : unit -> unit
val count_sendfile_body : unit -> unit
val count_sendfile_fallback : unit -> unit

(** [count_http_body_copy n] records one copied response body of [n]
    bytes (the copy itself is charged where it happens). *)
val count_http_body_copy : int -> unit

(** {2 Context plumbing} *)

(** [set_sink f] installs the receiver of charged nanoseconds ([None] =
    no machine running).  Installed by {!Machine.run_in}; not for client
    use. *)
val set_sink : (int -> unit) option -> unit

(** The installed sink, so a test that temporarily replaces it can restore
    the machine attribution instead of clobbering it process-wide. *)
val get_sink : unit -> (int -> unit) option

(** Whether a machine context is installed. *)
val has_sink : unit -> bool

(** [set_cpu_source f] installs the reader of the executing CPU number, for
    per-CPU counter attribution.  Installed by {!Machine}; not for client
    use. *)
val set_cpu_source : (unit -> int) option -> unit

(** The executing CPU per the installed source; 0 outside any machine. *)
val current_cpu : unit -> int

(** [set_native_source f] installs the reader of whether the executing
    machine runs a native kernel, which {!charge_glue_crossing} consults.
    Installed by {!Machine}; not for client use. *)
val set_native_source : (unit -> bool) option -> unit
