(* rtcp — the latency benchmark of Section 5 / Table 2.

   Measures the time for a 1-byte TCP round trip (client sends one byte,
   server echoes it back) over N trips, both hosts in one of the three
   configurations ttcp runs (oskit, freebsd, linux).  The kernel is a
   recipe: two lib/ttcp endpoints and its rtcp workload on a plain
   testbed, the run the bench's Table 2 makes.  It reports the mean (the
   paper's number; with the default 200 trips, the committed Table 2
   cell) plus the p50/p95/p99 tail — in virtual time the distribution is
   tight, so a fat tail is itself a finding.

   Usage: rtcp [config] [round_trips]   (defaults: oskit 200) *)

let () =
  let config =
    Endpoint.config_of_string (if Array.length Sys.argv > 1 then Sys.argv.(1) else "oskit")
  in
  let trips = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 200 in
  Printf.printf "rtcp: %s, %d one-byte round trips\n%!" (Endpoint.config_name config) trips;
  Clientos.reset_globals ();
  let samples, _ = Workload.rtcp (Clientos.make_testbed ()) config ~trips in
  let pct = Percentile.us_of_ns samples in
  Printf.printf "  round-trip time: %.4f usec mean\n" (Percentile.mean_us samples);
  Printf.printf "  p50 %.1f   p95 %.1f   p99 %.1f usec\n" (pct 50) (pct 95) (pct 99)
