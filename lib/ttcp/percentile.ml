(* Nearest-rank percentiles and the mean of latency samples taken in
   virtual nanoseconds, reported in microseconds — the one pair of helpers
   rtcp, the bench sections and the HTTP harness use.  No samples reads
   as 0. *)

let us_of_ns samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  fun p -> if n = 0 then 0.0 else float_of_int sorted.((n - 1) * p / 100) /. 1e3

(* rtcp's figure, Table 2's cell. *)
let mean_us samples =
  if samples = [||] then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 samples) /. float_of_int (Array.length samples) /. 1e3
