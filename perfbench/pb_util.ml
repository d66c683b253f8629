(* Small helpers shared by the perfbench workloads: a seeded PRNG, host
   clocks, percentiles, and the flat counter maps the per-layer table is
   built from. *)

let host_now () = Unix.gettimeofday ()

(* Host CPU seconds of this process.  setup_s and host_s are measured in
   it rather than in wall time: on a shared machine wall time also counts
   the other tenants' load, CPU time mostly does not. *)
let host_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* splitmix64: every input the benchmark generates comes from one of
   these, seeded from --seed and the iteration number, so a seed names the
   exact inputs of every iteration. *)
type rng = { mutable s : int64 }

let rng seed iter =
  { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int ((iter * 7919) + 1))) }

let next64 r =
  let open Int64 in
  r.s <- add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform in [0, bound). *)
let int r bound = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int bound))

(* Uniform in [0, 1). *)
let float r = Int64.to_float (Int64.shift_right_logical (next64 r) 11) /. 9007199254740992.0

(* Exponential inter-arrival with the given mean (Poisson arrivals). *)
let exp_ns r ~mean_ns = int_of_float (-.Float.log (1.0 -. float r) *. float_of_int mean_ns)

let random_bytes r n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let v = next64 r in
    for k = 0 to min 7 (n - !i - 1) do
      Bytes.set b (!i + k) (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff))
    done;
    i := !i + 8
  done;
  b

(* The [p]th percentile of an unsorted sample, interpolating linearly
   between order statistics. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let x = float_of_int (n - 1) *. p /. 100.0 in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 >= n then float_of_int a.(n - 1)
    else (float_of_int a.(i) *. (1.0 -. f)) +. (float_of_int a.(i + 1) *. f)
  end

(* How many samples lie above the [p]th percentile: the report prints it
   beside each percentile so the reader can judge its support. *)
let beyond samples p =
  let v = percentile samples p in
  Array.fold_left (fun acc x -> if float_of_int x > v then acc + 1 else acc) 0 samples

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* ---- flat counter maps ----

   Every counter the benchmark reads from outside the system lands in one
   [(name, int)] list; a measured window is the difference of two
   snapshots, and windows of successive iterations add up. *)

type counts = (string * int) list

let diff (b : counts) (a : counts) : counts =
  List.map (fun (k, v) -> k, v - (try List.assoc k a with Not_found -> 0)) b

let add (a : counts) (b : counts) : counts =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      let get l = try List.assoc k l with Not_found -> 0 in
      k, get a + get b)
    keys

let get (c : counts) k = try List.assoc k c with Not_found -> 0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Every field of Cost.counters, by name: the trace-neutrality check
   compares all of them and the shard check sums them per CPU. *)
let cost_fields (c : Cost.counters) : counts =
  let open Cost in
  [ "copies", c.copies; "copied_bytes", c.copied_bytes; "glue_crossings", c.glue_crossings;
    "com_calls", c.com_calls; "checksummed_bytes", c.checksummed_bytes;
    "sg_xmits", c.sg_xmits; "linearized_xmits", c.linearized_xmits;
    "fastpath_hits", c.fastpath_hits; "fastpath_fallbacks", c.fastpath_fallbacks;
    "pcb_cache_hits", c.pcb_cache_hits; "pcb_cache_misses", c.pcb_cache_misses;
    "rx_polls", c.rx_polls; "rx_batched_frames", c.rx_batched_frames;
    "spin_contentions", c.spin_contentions; "netisr_queued", c.netisr_queued;
    "netisr_drops", c.netisr_drops; "rss_steered", c.rss_steered;
    "kq_posted", c.kq_posted; "kq_coalesced", c.kq_coalesced;
    "wheel_arms", c.wheel_arms; "wheel_cancels", c.wheel_cancels;
    "wheel_cascades", c.wheel_cascades; "wheel_fires", c.wheel_fires;
    "tick_visits", c.tick_visits; "bufcache_hits", c.bufcache_hits;
    "bufcache_misses", c.bufcache_misses; "sendfile_bodies", c.sendfile_bodies;
    "sendfile_fallbacks", c.sendfile_fallbacks; "http_body_copies", c.http_body_copies;
    "http_body_copied_bytes", c.http_body_copied_bytes ]

(* Numbers on the JSON result line carry every digit measured: rounding
   could make two different runs read alike. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v
