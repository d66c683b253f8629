(* Nearest-rank percentiles of latency samples taken in virtual
   nanoseconds, reported in microseconds — the one helper every bench
   section uses.  No samples reads as 0. *)

let us_of_ns samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  fun p -> if n = 0 then 0.0 else float_of_int sorted.((n - 1) * p / 100) /. 1e3
