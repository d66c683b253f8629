(* No timer rides a per-CPU wheel any more: BSD TCP owns its tick wheels,
   and the Linux stack and the httpd arm exact-deadline events.  This ref
   exists only because the benchmark's testbed reset
   (perfbench/pb_bed.ml) still clears it; delete the file together with
   that line. *)
let registry : Machine.t list ref = ref []
