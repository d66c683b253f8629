(* The deterministic network emulator and the robustness it exists to
   exercise: seeded fault replay, partition windows, burst loss, targeted
   segment drops against all three stack configurations, checksum and
   duplicate-segment accounting, and the bounded/backoff ARP queues on
   both stacks. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

(* ------------------------------------------------------------------ *)
(* The emulator in isolation.                                          *)

let chaos_policy =
  { Netem.default_policy with
    loss = 0.1; corrupt = 0.1; duplicate = 0.1; reorder = 0.1;
    reorder_delay_ns = 40_000;
    ge =
      Some { Netem.p_good_bad = 0.2; p_bad_good = 0.4; loss_good = 0.0; loss_bad = 0.8 } }

let mk_frames n =
  List.init n (fun i ->
      Bytes.init (20 + ((i * 37) mod 1400)) (fun j -> Char.chr ((i + (3 * j)) land 0xff)))

let test_replay_determinism () =
  let run seed =
    let em = Netem.create ~seed ~policy:chaos_policy () in
    Netem.add_partition em ~from_ns:50_000 ~until_ns:60_000;
    let verdicts =
      List.mapi (fun i f -> Netem.judge em ~now:(i * 1_000) ~port:(i land 1) f)
        (mk_frames 300)
    in
    verdicts, Netem.counters em
  in
  let va, ca = run 123 in
  let vb, cb = run 123 in
  Alcotest.(check bool) "same seed: identical fault schedule" true (va = vb);
  Alcotest.(check bool) "same seed: identical counters" true (ca = cb);
  let vc, _ = run 124 in
  Alcotest.(check bool) "different seed: different schedule" true (va <> vc);
  (* The replayed schedule is non-trivial: every knob fired. *)
  Alcotest.(check bool) "loss happened" true (ca.Netem.lost > 0);
  Alcotest.(check bool) "burst loss happened" true (ca.Netem.burst_lost > 0);
  Alcotest.(check bool) "corruption happened" true (ca.Netem.corrupted > 0);
  Alcotest.(check bool) "duplication happened" true (ca.Netem.duplicated > 0);
  Alcotest.(check bool) "reordering happened" true (ca.Netem.reordered > 0);
  Alcotest.(check bool) "partition happened" true (ca.Netem.partitioned > 0)

let test_passthrough () =
  let em = Netem.create () in
  let frames = mk_frames 50 in
  List.iteri
    (fun i f ->
      match Netem.judge em ~now:(i * 10) ~port:0 f with
      | [ (f', 0) ] -> if not (f' == f) then Alcotest.fail "frame copied on clean path"
      | _ -> Alcotest.fail "clean frame not delivered exactly once, undelayed")
    frames;
  let c = Netem.counters em in
  Alcotest.(check int) "offered" 50 c.Netem.offered;
  Alcotest.(check int) "delivered" 50 c.Netem.delivered;
  Alcotest.(check int) "no faults on the clean path" 0
    (c.Netem.lost + c.Netem.burst_lost + c.Netem.filtered + c.Netem.partitioned
    + c.Netem.corrupted + c.Netem.duplicated + c.Netem.reordered)

let test_partition_window () =
  let em = Netem.create () in
  Netem.add_partition em ~from_ns:100 ~until_ns:200;
  let f = Bytes.make 60 'p' in
  Alcotest.(check bool) "before window: delivered" true
    (Netem.judge em ~now:50 ~port:0 f <> []);
  Alcotest.(check bool) "inside window: blackholed" true
    (Netem.judge em ~now:150 ~port:0 f = []);
  Alcotest.(check bool) "window end is exclusive" true
    (Netem.judge em ~now:200 ~port:0 f <> []);
  Alcotest.(check int) "partition counted" 1 (Netem.counters em).Netem.partitioned

let test_ge_burst_loss () =
  let em =
    Netem.create ~seed:9
      ~policy:
        { Netem.default_policy with
          ge =
            Some
              { Netem.p_good_bad = 0.2; p_bad_good = 0.5; loss_good = 0.0; loss_bad = 1.0 } }
      ()
  in
  let f = Bytes.make 100 'g' in
  for i = 0 to 399 do
    ignore (Netem.judge em ~now:i ~port:0 f)
  done;
  let c = Netem.counters em in
  Alcotest.(check bool) "bad state lost frames" true (c.Netem.burst_lost > 0);
  Alcotest.(check bool) "good state delivered frames" true (c.Netem.delivered > 0);
  Alcotest.(check int) "independent loss stayed off" 0 c.Netem.lost

let test_per_port_policy () =
  let em = Netem.create () in
  Netem.set_policy em ~port:1 { Netem.default_policy with loss = 1.0 };
  let f = Bytes.make 60 'd' in
  for i = 0 to 9 do
    Alcotest.(check bool) "port 0 stays clean" true (Netem.judge em ~now:i ~port:0 f <> []);
    Alcotest.(check bool) "port 1 loses everything" true
      (Netem.judge em ~now:i ~port:1 f = [])
  done

(* ------------------------------------------------------------------ *)
(* End-to-end: ttcp through the emulator, all three configurations,
   each run the stream harness's: 4 KB blocks from a [sender]-config
   host to a FreeBSD-native receiver, under a fault plan.               *)

(* Drop exactly one mid-flow data segment and one mid-flow ACK: the
   retransmission path must repair both without corrupting the stream. *)
let targeted_drop_test sender () =
  let big = ref 0 and small = ref 0 in
  let fault f =
    if Bytes.length f >= 1000 then begin
      incr big;
      !big = 8
    end
    else begin
      incr small;
      !small = 12
    end
  in
  let r = Netbench.stream ~fault { Workload.table1 with sender; bytes = 32 * 4096 } in
  let wire = r.testbed.Clientos.wire in
  Alcotest.(check bool) "delivery is byte-exact" true r.byte_exact;
  Alcotest.(check int) "exactly two frames dropped" 2 r.wire_dropped;
  Alcotest.(check bool) "the lost data segment was retransmitted" true (r.rexmits >= 1);
  Alcotest.(check int) "wire accounting: carried = delivered + dropped" r.wire_carried
    (Wire.frames_delivered wire + r.wire_dropped)

let test_corruption_detected () =
  let em =
    Netem.create ~seed:11
      ~policy:{ Netem.default_policy with corrupt = 0.05; corrupt_min_len = 1000 }
      ()
  in
  let r =
    Netbench.stream ~netem:em { Workload.table1 with sender = Endpoint.Freebsd; bytes = 32 * 4096 }
  in
  let c = Netem.counters em in
  Alcotest.(check bool) "frames were corrupted" true (c.Netem.corrupted >= 1);
  Alcotest.(check int) "every damaged frame caught by a checksum" c.Netem.corrupted
    (Endpoint.stats r.rx.stack).badsum;
  Alcotest.(check bool) "stream survived byte-exact" true r.byte_exact

let test_duplicate_segments () =
  let em = Netem.create ~seed:5 ~policy:{ Netem.default_policy with duplicate = 0.1 } () in
  let r =
    Netbench.stream ~netem:em { Workload.table1 with sender = Endpoint.Freebsd; bytes = 16 * 4096 }
  in
  let c = Netem.counters em in
  Alcotest.(check bool) "duplicates injected" true (c.Netem.duplicated >= 1);
  Alcotest.(check bool) "receiver discarded repeated segments" true
    ((Endpoint.stats r.rx.stack).dups >= 1);
  Alcotest.(check bool) "stream survived byte-exact" true r.byte_exact;
  Alcotest.(check int) "wire accounting includes duplicate deliveries"
    (r.wire_carried + c.Netem.duplicated)
    (Wire.frames_delivered r.testbed.Clientos.wire + r.wire_dropped)

(* The chaos section's stream at 0.5% loss (netem seed 42, 64 x 4 KB)
   from a Linux sender, to a FreeBSD sink and to a Linux one.  Both
   complete byte-exact, but the paper-profile Linux receiver keeps no
   out-of-order segments, so the Linux pair recovers go-back-N, one frame
   per RTO: 1,884 retransmissions and 1,128 s of virtual time, against
   the FreeBSD sink's 3 retransmissions and 0.033 s. *)
let test_lossy_linux_sender () =
  List.iter
    (fun receiver ->
      let netem = Netem.create ~seed:42 ~policy:{ Netem.default_policy with loss = 0.005 } () in
      let r =
        Netbench.stream ~netem
          { Workload.table1 with sender = Endpoint.Linux; receiver; bytes = 64 * 4096 }
      in
      let name = "linux to " ^ Endpoint.config_name receiver in
      Alcotest.(check bool) (name ^ ": completed") true r.completed;
      Alcotest.(check bool) (name ^ ": byte-exact") true r.byte_exact)
    [ Endpoint.Freebsd; Endpoint.Linux ]

(* ------------------------------------------------------------------ *)
(* ARP hardening.                                                      *)

(* Twenty packets for a host that does not exist: the pending queue holds
   16 (drop-head beyond that), requests back off 0.5 s -> 8 s, and when the
   retries are exhausted every queued waiter is failed so nothing leaks.
   The resolver is shared, so both stacks must give the same account. *)
let test_arp_bounded_queue_and_give_up config () =
  Clientos.reset_globals ();
  let models = if config = Endpoint.Linux then "3c59x", "lance" else "3c905", "tulip" in
  let tb = Clientos.make_testbed ~models () in
  let host = tb.Clientos.host_a and addr = ip "10.0.0.1" in
  let a =
    match config with
    | Endpoint.Linux -> (Clientos.linux_host host ~ip:addr ~mask).Linux_inet.arp
    | Endpoint.Freebsd | Endpoint.Oskit ->
        (Clientos.freebsd_host host ~ip:addr ~mask).Bsd_socket.arp
  in
  let drops = ref 0 and resolved = ref 0 in
  Clientos.spawn host (fun () ->
      for _ = 1 to 20 do
        Arp_resolver.resolve a (ip "10.0.0.99")
          ~on_drop:(fun () -> incr drops)
          (fun _ -> incr resolved)
      done);
  Clientos.run tb ~until:(fun () -> !drops >= 20);
  Alcotest.(check int) "every waiter was failed, none leaked" 20 !drops;
  Alcotest.(check int) "none resolved" 0 !resolved;
  Alcotest.(check int) "queue overflow dropped the oldest four" 4 a.Arp_resolver.waiters_dropped;
  Alcotest.(check int) "one terminal resolution failure" 1 a.Arp_resolver.abandoned;
  Alcotest.(check int) "five requests: initial + four backoff retries" 5 a.Arp_resolver.requests;
  Alcotest.(check bool) "gave up only after the full backoff schedule" true
    (World.now tb.Clientos.world >= 15_000_000_000)

(* A partition that swallows the first two ARP requests: the third (after
   0.5 s + 1 s of backoff) resolves, and the connection proceeds. *)
let test_arp_retry_recovers_after_partition () =
  let em = Netem.create ~seed:3 () in
  Netem.add_partition em ~from_ns:0 ~until_ns:1_200_000_000;
  let r =
    Netbench.stream ~netem:em
      { Workload.table1 with sender = Endpoint.Freebsd; bytes = 4 * 1024; send_chunk = 1024 }
  in
  Alcotest.(check bool) "transfer completed byte-exact" true r.byte_exact;
  let c = Netem.counters em in
  Alcotest.(check bool) "the partition really ate frames" true (c.Netem.partitioned >= 2);
  (* The client ARPs for the server: request at ~2 ms and the 0.5 s retry
     both land in the partition; the 1.5 s retry gets through. *)
  Alcotest.(check bool) "resolution needed the backoff retries" true (r.wire_dropped >= 2)

(* The Linux stack's backstop: connecting to a host ARP can never resolve
   must end in Timedout — not an infinite retransmit loop — with the ARP
   give-up and the retransmit give-up both accounted. *)
let test_linux_unreachable_times_out () =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c59x", "lance") () in
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let result = ref None in
  Clientos.spawn tb.Clientos.host_a (fun () ->
      let s = Linux_inet.socket sa in
      result := Some (Linux_inet.connect sa s ~dst:(ip "10.0.0.77") ~dport:9));
  Clientos.run tb ~until:(fun () -> !result <> None);
  (match !result with
  | Some (Error Error.Timedout) -> ()
  | Some (Ok ()) -> Alcotest.fail "connect to unreachable host succeeded?"
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | None -> Alcotest.fail "no outcome");
  Alcotest.(check int) "arp abandoned the resolution" 1 sa.Linux_inet.arp.Arp_resolver.abandoned;
  Alcotest.(check int) "rexmt backstop reset the connection" 1 sa.Linux_inet.rexmt_give_ups

let suite =
  [ Alcotest.test_case "seeded replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "clean passthrough" `Quick test_passthrough;
    Alcotest.test_case "partition window" `Quick test_partition_window;
    Alcotest.test_case "gilbert-elliott burst loss" `Quick test_ge_burst_loss;
    Alcotest.test_case "per-port asymmetric policy" `Quick test_per_port_policy;
    Alcotest.test_case "targeted drop: freebsd sender" `Quick
      (targeted_drop_test Endpoint.Freebsd);
    Alcotest.test_case "targeted drop: oskit sender" `Quick (targeted_drop_test Endpoint.Oskit);
    Alcotest.test_case "targeted drop: linux sender" `Quick (targeted_drop_test Endpoint.Linux);
    Alcotest.test_case "corruption caught by checksums" `Quick test_corruption_detected;
    Alcotest.test_case "duplicate segments discarded" `Quick test_duplicate_segments;
    Alcotest.test_case "0.5% loss: linux sender, both sinks" `Quick test_lossy_linux_sender;
    Alcotest.test_case "arp bounded queue and give-up" `Quick
      (test_arp_bounded_queue_and_give_up Endpoint.Freebsd);
    Alcotest.test_case "arp bounded queue and give-up: linux" `Quick
      (test_arp_bounded_queue_and_give_up Endpoint.Linux);
    Alcotest.test_case "arp retry recovers after partition" `Quick
      test_arp_retry_recovers_after_partition;
    Alcotest.test_case "linux unreachable host times out" `Quick
      test_linux_unreachable_times_out ]
