(* The virtual testbed one measured experiment runs on, and everything the
   benchmark reads from it from outside: counter snapshots, the accounting
   sanity checks, and the result record one iteration of a workload
   returns. *)

open Pb_util

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let addr_a = ip "10.0.0.1"
let addr_b = ip "10.0.0.2"

(* Cross-simulation state lives in a few globals; clearing all of it before
   every experiment makes an experiment a pure function of its inputs, which
   the trace-neutrality check relies on.  [Kwheel.registry] keeps every
   machine that ever armed a wheel timer and is searched linearly on every
   arm, so it is cleared too. *)
let reset_world () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  Rss.reboot ();
  Kwheel.registry := []

(* Two PCs on one segment.  Unlike [Clientos.make_testbed] the two
   machines may have different CPU counts (so a multi-CPU load generator
   can drive a one-CPU server), the MACs are fixed per testbed, and a
   gigabit segment gets gigabit-class NICs: 256 receive descriptors
   instead of the 32 of the 100 Mbit cards.  The card models are the ones
   the Linux drivers probe for, as in [Clientos.make_testbed]. *)
let make_testbed ~a_cpus ~b_cpus ~bandwidth_bps =
  let rx_ring = if bandwidth_bps >= 1_000_000_000 then 256 else 32 in
  let world = World.create () in
  let wire = Wire.create ~bandwidth_bps world in
  let host name ncpus model last =
    let machine = Machine.create ~name ~ram_bytes:(8 * 1024 * 1024) ~ncpus world in
    let kernel = Kernel.create machine in
    let mac = "\x02\x00\x00\x00\x00" ^ String.make 1 (Char.chr last) in
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 ~rx_ring () in
    Bus.clear machine;
    Bus.register_hw machine (Bus.Hw_nic { model; nic });
    { Clientos.machine; kernel; nic }
  in
  { Clientos.world; wire;
    host_a = host "pc-a" a_cpus "3c905" 1;
    host_b = host "pc-b" b_cpus "tulip" 2 }

(* What one measured window is read from. *)
type probe = {
  tb : Clientos.testbed;
  bw : int;  (* wire bits per second *)
  server : Clientos.host;  (* the system under test *)
  client : Clientos.host;  (* the load generator or peer *)
  mutable bsd : Bsd_socket.stack list;
  mutable linux : Linux_inet.stack list;
  mutable reactors : Reactor.t list;
  mutable httpd : Httpd.stats option;
}

let probe tb ~bw ~server ~client =
  { tb; bw; server; client; bsd = []; linux = []; reactors = []; httpd = None }

let busy (h : Clientos.host) =
  let m = h.Clientos.machine in
  Array.init (Machine.ncpus m) (fun cpu -> Machine.cpu_busy_ns m ~cpu)

let failures (h : Clientos.host) = List.length (Thread.failures (Kernel.sched h.Clientos.kernel))

(* A virtual-time limit on every experiment: a stalled connection ends as
   failed operations, not as a hung benchmark.  A crashed simulated thread
   ends the experiment too. *)
let deadline_ns = 60_000_000_000

let stalled p () =
  World.now p.tb.Clientos.world > deadline_ns || failures p.server + failures p.client > 0

exception Sock_error of string

let ok what = function
  | Ok v -> v
  | Error e -> raise (Sock_error (what ^ ": " ^ Error.to_string e))

let bpools = [ Mbuf.small_pool; Mbuf.clust_pool ] @ Array.to_list Skbuff.pools

let snapshot p : counts =
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let tcp (s : Bsd_socket.stack) = s.Bsd_socket.tcp.Tcp.stats in
  let rs f = sum (fun r -> f (Reactor.stats r)) p.reactors in
  let hs f = match p.httpd with Some st -> f st | None -> 0 in
  let sb = busy p.server in
  List.map (fun (k, v) -> "cost." ^ k, v) (cost_fields Cost.counters)
  @ [ "srv.busy_ns", Array.fold_left ( + ) 0 sb;
      "cli.busy_ns", Array.fold_left ( + ) 0 (busy p.client);
      "wire.frames", Wire.frames_carried p.tb.Clientos.wire;
      "wire.bytes", Wire.bytes_carried p.tb.Clientos.wire;
      "nic.rx_dropped",
      Nic.rx_dropped p.server.Clientos.nic + Nic.rx_dropped p.client.Clientos.nic;
      "bsd.rexmits", sum (fun s -> (tcp s).Tcp.sndrexmitpack + (tcp s).Tcp.fastrexmit) p.bsd;
      "bsd.listen_overflow", sum (fun s -> (tcp s).Tcp.listen_overflow) p.bsd;
      "bsd.pred_hits", sum (fun s -> (tcp s).Tcp.predack + (tcp s).Tcp.preddat) p.bsd;
      "bsd.pred_fallbacks", sum (fun s -> (tcp s).Tcp.predfallback) p.bsd;
      "bsd.conns", sum (fun s -> (tcp s).Tcp.connects) p.bsd;
      "linux.rexmits", sum (fun s -> s.Linux_inet.rexmits) p.linux;
      "linux.listen_overflow", sum (fun s -> s.Linux_inet.listen_overflow) p.linux;
      "linux.pred_hits", sum (fun s -> s.Linux_inet.predack + s.Linux_inet.preddat) p.linux;
      "linux.pred_fallbacks", sum (fun s -> s.Linux_inet.predfallback) p.linux;
      "pool.hits", sum Bpool.hits bpools;
      "pool.misses", sum Bpool.misses bpools;
      "reactor.polls", rs (fun s -> s.Reactor.polls);
      "reactor.dispatches", rs (fun s -> s.Reactor.dispatches);
      "reactor.sleeps", rs (fun s -> s.Reactor.sleeps);
      "reactor.spurious", rs (fun s -> s.Reactor.spurious);
      "reactor.visits", rs (fun s -> s.Reactor.visits);
      "httpd.accepted", hs (fun s -> s.Httpd.accepted);
      "httpd.requests", hs (fun s -> s.Httpd.requests);
      "httpd.responses", hs (fun s -> s.Httpd.responses);
      "httpd.protocol_errors", hs (fun s -> s.Httpd.protocol_errors);
      "httpd.reused", hs (fun s -> s.Httpd.reused);
      "httpd.pipelined", hs (fun s -> s.Httpd.pipelined);
      "httpd.sendfile_bodies", hs (fun s -> s.Httpd.sendfile_bodies);
      "httpd.body_bytes_copied", hs (fun s -> s.Httpd.body_bytes_copied);
      "kern.thread_failures", failures p.server + failures p.client ]

(* A measured window: snapshot at its first simulated event, difference at
   its last.  Per-CPU busy is kept beside the counts for the imbalance and
   share metrics. *)
type window = {
  w_t0 : int;  (* virtual ns *)
  w_c0 : counts;
  w_b0 : int array;
  w_h0 : float;  (* host CPU seconds *)
}

let open_window p ~t0 =
  { w_t0 = t0;
    w_c0 = snapshot p; w_b0 = busy p.server; w_h0 = host_cpu () }

(* Close [w] at virtual time [t1]; returns the window's counts, with the
   machine shares folded in as sums that stay additive across windows. *)
let close_window p w ~t1 =
  let c = diff (snapshot p) w.w_c0 in
  let b1 = busy p.server in
  let per_cpu = Array.mapi (fun i v -> v - w.w_b0.(i)) b1 in
  let n = Array.length per_cpu in
  let dur = max 1 (t1 - w.w_t0) in
  (* Time the shared segment was busy, both directions: each frame also
     occupies 24 bytes of preamble, FCS and inter-frame gap, as in Wire. *)
  let wire_ns = (get c "wire.bytes" + (24 * get c "wire.frames")) * 8 * 1000 / (p.bw / 1_000_000) in
  c
  @ [ "window_ns", dur;
      "wire.busy_ns", wire_ns;
      "srv.capacity_ns", n * dur;
      "cli.capacity_ns", Machine.ncpus p.client.Clientos.machine * dur;
      "srv.busy_max_ns", Array.fold_left max 0 per_cpu;
      "srv.busy_mean_ns", Array.fold_left ( + ) 0 per_cpu / n ]

(* ---- accounting sanity checks, from outside ----
   The layer table is only trustworthy if these hold; any violation fails
   the run. *)

let check_shards () =
  let total = cost_fields Cost.counters in
  let shards =
    List.init Cost.max_cpus (fun cpu -> cost_fields (Cost.counters_for ~cpu))
    |> List.fold_left add []
  in
  List.filter_map
    (fun (k, v) ->
      let s = get shards k in
      if s <> v then Some (Printf.sprintf "Cost.counters_for shards sum %s=%d, total %d" k s v)
      else None)
    total

let check_busy (h : Clientos.host) =
  let m = h.Clientos.machine in
  let n = Machine.ncpus m in
  let elapsed = List.fold_left max 0 (List.init n (fun cpu -> Machine.cpu_now m ~cpu)) in
  let total = Array.fold_left ( + ) 0 (busy h) in
  if total > n * elapsed then
    [ Printf.sprintf "%s: sum of per-CPU busy %d ns > %d CPUs x %d ns" (Machine.name m) total n
        elapsed ]
  else []

let check_end p =
  check_shards () @ check_busy p.server @ check_busy p.client

let check_wire (c : counts) ~payload =
  if get c "wire.bytes" < payload then
    [ Printf.sprintf "wire carried %d bytes < %d payload bytes" (get c "wire.bytes") payload ]
  else []

(* ---- what one iteration of a workload returns ---- *)

type iter = {
  attempted : int;
  ok : int;  (* completed byte-exact *)
  mismatches : int;  (* wrong bytes: fails the run *)
  lat_ns : int array;  (* per-op latency, virtual *)
  late_ns : int array;  (* open-loop generator lateness *)
  rates : (string * (int * int)) list;  (* name -> (payload bytes, virtual ns) *)
  counts : counts;  (* summed measured windows *)
  ops : int;  (* the per-op denominator *)
  payload : int;  (* application bytes that crossed the wire in the windows *)
  peak_active : int;
  cost_end : counts;  (* Cost.counters at the end, for the neutrality check *)
  problems : string list;  (* sanity violations: fail the run *)
  incidents : string list;  (* counted as failed operations, reported *)
  setup_s : float;
  host_s : float;
}

let empty =
  { attempted = 0; ok = 0; mismatches = 0; lat_ns = [||]; late_ns = [||]; rates = [];
    counts = []; ops = 0; payload = 0; peak_active = 0; cost_end = []; problems = [];
    incidents = []; setup_s = 0.0; host_s = 0.0 }

let merge a b =
  { attempted = a.attempted + b.attempted;
    ok = a.ok + b.ok;
    mismatches = a.mismatches + b.mismatches;
    lat_ns = Array.append a.lat_ns b.lat_ns;
    late_ns = Array.append a.late_ns b.late_ns;
    rates =
      List.map
        (fun k ->
          let g l = try List.assoc k l with Not_found -> 0, 0 in
          let b1, n1 = g a.rates and b2, n2 = g b.rates in
          k, (b1 + b2, n1 + n2))
        (List.sort_uniq compare (List.map fst a.rates @ List.map fst b.rates));
    counts = add a.counts b.counts;
    ops = a.ops + b.ops;
    payload = a.payload + b.payload;
    peak_active = max a.peak_active b.peak_active;
    cost_end = a.cost_end @ b.cost_end;
    problems = a.problems @ b.problems;
    incidents = a.incidents @ b.incidents;
    setup_s = a.setup_s +. b.setup_s;
    host_s = a.host_s +. b.host_s }

(* An experiment that never reached its measured window: every operation
   it would have attempted counts as failed. *)
let no_window ~attempted ~incidents =
  { empty with attempted; ops = attempted; incidents = incidents @ [ "measured window never opened" ] }

(* Run the world until [until], converting the simulator's livelock
   valve into a counted failure instead of an escaped exception. *)
let run tb ~until =
  match Clientos.run tb ~until with
  | () -> []
  | exception World.Out_of_fuel -> [ "World.Out_of_fuel" ]
