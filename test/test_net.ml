(* Integration tests: TCP transfers across the three network
   configurations of the paper's evaluation, on the simulated testbed,
   through the stream harness (Netbench.stream): every ordered pair of
   configurations must carry a patterned stream byte-exact. *)

(* [bytes] from [sender] to [receiver] in [send_chunk]-byte sends. *)
let transfer ?(models = "3c905", "tulip") ?(recv_chunk = 8192) ?send_chunk sender receiver
    ~bytes =
  let send_chunk = Option.value send_chunk ~default:bytes in
  let r =
    Netbench.stream ~models { Workload.table1 with sender; receiver; bytes; send_chunk; recv_chunk }
  in
  Alcotest.(check bool) "transfer completed" true r.completed;
  Alcotest.(check int) "received size" bytes r.received;
  Alcotest.(check bool) "payload integrity" true r.byte_exact

(* The 3x3 matrix: sizes that are a multiple of neither the send chunk,
   the receive chunk nor the MSS. *)
let matrix sender receiver () =
  transfer sender receiver ~send_chunk:1000 ~bytes:(37 * 1000);
  transfer sender receiver ~send_chunk:65_537 ~bytes:(3 * 65_537)

let configs = Endpoint.[ Oskit; Freebsd; Linux ]

(* Two testbeds built before either runs share nothing, though both name
   their hosts "pc-a" and "pc-b": each host probes its own NIC, so each
   transfer is byte-exact and rides its own wire only. *)
let two_testbeds config () =
  let tb1 = Clientos.make_testbed () in
  let tb2 = Clientos.make_testbed () in
  let frames tb = Wire.frames_carried tb.Clientos.wire in
  let run tb =
    Workload.ttcp tb
      { Workload.table1 with sender = config; receiver = config; bytes = 64 * 4096 }
  in
  let r1 = run tb1 in
  Alcotest.(check bool) "first transfer byte-exact" true r1.byte_exact;
  Alcotest.(check bool) "on the first wire" true (r1.wire_carried > 0);
  Alcotest.(check int) "the second wire idle" 0 (frames tb2);
  let r2 = run tb2 in
  Alcotest.(check bool) "second transfer byte-exact" true r2.byte_exact;
  Alcotest.(check bool) "on the second wire" true (r2.wire_carried > 0);
  Alcotest.(check int) "the first wire untouched by it" r1.wire_carried (frames tb1)

(* A receiver that sleeps past the workloads' time limit: the run stops at
   the limit, reporting itself not completed, instead of running on until
   the receiver wakes. *)
let stalled_past_limit () =
  let r =
    Netbench.stream
      { Workload.table1 with
        sender = Endpoint.Freebsd;
        bytes = 64 * 4096;
        stall_ns = Workload.time_limit_ns + 1_000_000_000 }
  in
  Alcotest.(check bool) "transfer not completed" false r.completed;
  Alcotest.(check bool) "stopped at the limit" true
    (World.now r.testbed.Clientos.world <= Workload.time_limit_ns)

let suite =
  [ Alcotest.test_case "freebsd-native 256KB transfer" `Quick (fun () ->
        transfer Endpoint.Freebsd Endpoint.Freebsd ~bytes:(256 * 1024));
    Alcotest.test_case "oskit-config 256KB transfer" `Quick (fun () ->
        transfer ~models:("NE2000", "tulip") Endpoint.Oskit Endpoint.Oskit ~bytes:(256 * 1024));
    Alcotest.test_case "linux-native 256KB transfer" `Quick (fun () ->
        transfer ~models:("3c59x", "lance") Endpoint.Linux Endpoint.Linux ~bytes:(256 * 1024));
    Alcotest.test_case "oskit->freebsd interop 64KB" `Quick (fun () ->
        transfer ~models:("eepro100", "tulip") ~recv_chunk:4096 Endpoint.Oskit Endpoint.Freebsd
          ~bytes:(64 * 1024));
    Alcotest.test_case "freebsd tiny (1 byte)" `Quick (fun () ->
        transfer Endpoint.Freebsd Endpoint.Freebsd ~bytes:1);
    Alcotest.test_case "oskit odd size (12345)" `Quick (fun () ->
        transfer ~models:("NE2000", "tulip") Endpoint.Oskit Endpoint.Oskit ~bytes:12345);
    Alcotest.test_case "a receiver stalled past the time limit ends the run" `Quick
      stalled_past_limit ]
  @ List.concat_map
      (fun s ->
        List.map
          (fun r ->
            Alcotest.test_case
              (Printf.sprintf "interop matrix: %s->%s byte-exact" (Endpoint.config_name s)
                 (Endpoint.config_name r))
              `Quick (matrix s r))
          configs)
      configs
  @ List.map
      (fun c ->
        Alcotest.test_case
          (Printf.sprintf "two live testbeds: %s transfers stay apart" (Endpoint.config_name c))
          `Quick (two_testbeds c))
      configs
