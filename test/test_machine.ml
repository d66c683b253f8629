(* The simulated testbed itself: event world, cost charging, physical
   memory, interrupt controller, wire serialization, NIC/disk/serial/timer
   device models. *)

let test_world_ordering () =
  let w = World.create () in
  let log = ref [] in
  ignore (World.at w 300 (fun () -> log := 3 :: !log));
  ignore (World.at w 100 (fun () -> log := 1 :: !log));
  ignore (World.at w 200 (fun () -> log := 2 :: !log));
  World.run w;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 300 (World.now w)

let test_world_same_time_fifo () =
  let w = World.create () in
  let log = ref [] in
  ignore (World.at w 100 (fun () -> log := 'a' :: !log));
  ignore (World.at w 100 (fun () -> log := 'b' :: !log));
  World.run w;
  Alcotest.(check (list char)) "FIFO at equal times" [ 'a'; 'b' ] (List.rev !log)

let test_world_cancel () =
  let w = World.create () in
  let fired = ref false in
  let ev = World.at w 50 (fun () -> fired := true) in
  World.cancel ev;
  World.run w;
  Alcotest.(check bool) "cancelled event silent" false !fired

let test_world_fuel () =
  let w = World.create () in
  World.set_fuel w 10;
  let rec rearm () = ignore (World.after w 1 rearm) in
  rearm ();
  Alcotest.check_raises "runaway detected" World.Out_of_fuel (fun () -> World.run w)

let test_cost_charging () =
  let w = World.create () in
  let m = Machine.create ~name:"cost-pc" w in
  Machine.run_in m (fun () ->
      let t0 = Machine.now m in
      Cost.charge_cycles 200 (* 200 cycles @ 200MHz = 1000 ns *);
      Alcotest.(check int) "cycles to ns" (t0 + 1000) (Machine.now m));
  (* Outside a machine, charges are dropped (user-mode use). *)
  Cost.charge_cycles 1

let test_cost_counters () =
  let w = World.create () in
  let m = Machine.create ~name:"ctr-pc" w in
  Cost.reset_counters ();
  Machine.run_in m (fun () ->
      Cost.charge_copy 100;
      Cost.charge_copy 50;
      Cost.charge_glue_crossing ());
  Alcotest.(check int) "copies" 2 Cost.counters.Cost.copies;
  Alcotest.(check int) "bytes" 150 Cost.counters.Cost.copied_bytes;
  Alcotest.(check int) "crossings" 1 Cost.counters.Cost.glue_crossings;
  Cost.reset_counters ()

let test_physmem () =
  let ram = Physmem.create ~bytes:8192 in
  Physmem.set32 ram 100 0xdeadbeefl;
  Alcotest.(check int32) "32-bit roundtrip" 0xdeadbeefl (Physmem.get32 ram 100);
  Physmem.set16 ram 200 0xabcd;
  Alcotest.(check int) "16-bit roundtrip" 0xabcd (Physmem.get16 ram 200);
  Alcotest.(check bool) "fault below" true
    (try
       ignore (Physmem.get8 ram (-1));
       false
     with Physmem.Fault _ -> true);
  Alcotest.(check bool) "fault above" true
    (try
       Physmem.set8 ram 8192 1;
       false
     with Physmem.Fault _ -> true);
  let src = Bytes.of_string "hello" in
  Physmem.blit_from_bytes ram ~src ~src_pos:0 ~dst_addr:4000 ~len:5;
  let dst = Bytes.create 5 in
  Physmem.blit_to_bytes ram ~src_addr:4000 ~dst ~dst_pos:0 ~len:5;
  Alcotest.(check string) "blit roundtrip" "hello" (Bytes.to_string dst)

let test_irq_mask_and_pending () =
  let w = World.create () in
  let m = Machine.create ~name:"irq-pc" w in
  let hits = ref 0 in
  Machine.set_irq_handler m ~irq:5 (fun () -> incr hits);
  Machine.mask_irq m ~irq:5;
  Machine.raise_irq m ~irq:5;
  Alcotest.(check int) "masked: latched, not delivered" 0 !hits;
  Machine.run_in m (fun () -> Machine.unmask_irq m ~irq:5);
  Alcotest.(check int) "delivered on unmask" 1 !hits

let test_irq_disable_enable () =
  let w = World.create () in
  let m = Machine.create ~name:"cli-pc" w in
  let hits = ref 0 in
  Machine.set_irq_handler m ~irq:3 (fun () -> incr hits);
  Machine.run_in m (fun () ->
      Machine.with_interrupts_disabled m (fun () ->
          Machine.raise_irq m ~irq:3;
          Alcotest.(check int) "held while disabled" 0 !hits);
      Alcotest.(check int) "delivered at enable" 1 !hits)

let test_irq_priority () =
  let w = World.create () in
  let m = Machine.create ~name:"pri-pc" w in
  let order = ref [] in
  Machine.set_irq_handler m ~irq:7 (fun () -> order := 7 :: !order);
  Machine.set_irq_handler m ~irq:2 (fun () -> order := 2 :: !order);
  Machine.run_in m (fun () ->
      Machine.with_interrupts_disabled m (fun () ->
          Machine.raise_irq m ~irq:7;
          Machine.raise_irq m ~irq:2));
  Alcotest.(check (list int)) "lowest line first" [ 2; 7 ] (List.rev !order)

let test_wire_serialization () =
  let w = World.create () in
  let wire = Wire.create ~bandwidth_bps:100_000_000 ~latency_ns:1000 w in
  let got = ref [] in
  let _p1 = Wire.attach wire ~rx:(fun f -> got := Bytes.length f :: !got) in
  let p2 = Wire.attach wire ~rx:(fun _ -> ()) in
  (* A 1500-byte frame at 100 Mb/s: (1500+24 framing) * 80ns = 121920ns +
     1000ns propagation. *)
  let arrival = Wire.send wire p2 (Bytes.create 1500) ~at:0 in
  Alcotest.(check int) "serialization + latency" (((1500 + 24) * 80) + 1000) arrival;
  World.run w;
  Alcotest.(check (list int)) "delivered to the other station" [ 1500 ] !got

let test_wire_busy_queueing () =
  let w = World.create () in
  let wire = Wire.create w in
  let p = Wire.attach wire ~rx:(fun _ -> ()) in
  let a1 = Wire.send wire p (Bytes.create 1000) ~at:0 in
  let a2 = Wire.send wire p (Bytes.create 1000) ~at:0 in
  Alcotest.(check bool) "second frame waits for the medium" true (a2 > a1)

let test_nic_filtering () =
  let w = World.create () in
  let wire = Wire.create w in
  let ma = Machine.create ~name:"nic-a" w and mb = Machine.create ~name:"nic-b" w in
  let na = Nic.create ~machine:ma ~wire ~mac:"\x02\x00\x00\x00\x00\x01" ~irq:9 () in
  let nb = Nic.create ~machine:mb ~wire ~mac:"\x02\x00\x00\x00\x00\x02" ~irq:9 () in
  let frame_to dst =
    let f = Bytes.make 64 '\000' in
    Bytes.blit_string dst 0 f 0 6;
    f
  in
  Machine.run_in ma (fun () -> Nic.transmit na (frame_to "\x02\x00\x00\x00\x00\x02"));
  Machine.run_in ma (fun () -> Nic.transmit na (frame_to "\x02\x00\x00\x00\x00\x99"));
  Machine.run_in ma (fun () -> Nic.transmit na (frame_to Nic.broadcast));
  World.run w;
  Alcotest.(check int) "unicast + broadcast accepted, foreign dropped" 2 (Nic.rx_count nb)

let test_disk_rw () =
  let w = World.create () in
  let m = Machine.create ~name:"disk-pc" w in
  let disk = Disk.create ~machine:m ~sectors:128 ~irq:14 () in
  let completions = ref [] in
  Machine.set_irq_handler m ~irq:14 (fun () ->
      let rec drain () =
        match Disk.take_completion disk with
        | Some c ->
            completions := c :: !completions;
            drain ()
        | None -> ()
      in
      drain ());
  let data = Bytes.make 1024 'D' in
  Machine.run_in m (fun () -> ignore (Disk.submit disk (Disk.Write { start = 4; data })));
  World.run w;
  Machine.run_in m (fun () -> ignore (Disk.submit disk (Disk.Read { start = 4; count = 2 })));
  World.run w;
  (match !completions with
  | [ { Disk.result = Ok read_back; _ }; { Disk.result = Ok _; _ } ] ->
      Alcotest.(check string) "read back what was written" (Bytes.to_string data)
        (Bytes.to_string read_back)
  | l -> Alcotest.failf "expected 2 completions, got %d" (List.length l));
  Alcotest.(check bool) "mechanics took time" true (World.now w > 8_000_000)

let test_disk_invalid () =
  let w = World.create () in
  let m = Machine.create ~name:"disk2-pc" w in
  let disk = Disk.create ~machine:m ~sectors:16 ~irq:14 () in
  Machine.run_in m (fun () ->
      ignore (Disk.submit disk (Disk.Read { start = 14; count = 10 })));
  World.run w;
  match Disk.take_completion disk with
  | Some { Disk.result = Error Error.Inval; _ } -> ()
  | _ -> Alcotest.fail "expected EINVAL completion"

let test_serial_loopback () =
  let w = World.create () in
  let ma = Machine.create ~name:"ser-a" w and mb = Machine.create ~name:"ser-b" w in
  let sa = Serial.create ~machine:ma ~irq:4 () in
  let sb = Serial.create ~machine:mb ~irq:4 () in
  Serial.connect sa sb;
  Machine.run_in ma (fun () -> Serial.write_string sa "ping");
  World.run w;
  let buf = Buffer.create 4 in
  let rec drain () =
    match Serial.read_byte sb with
    | Some c ->
        Buffer.add_char buf (Char.chr c);
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check string) "bytes crossed the line in order" "ping" (Buffer.contents buf)

let test_serial_capture () =
  let w = World.create () in
  let m = Machine.create ~name:"con-pc" w in
  let s = Serial.create ~machine:m ~irq:4 () in
  Machine.run_in m (fun () -> Serial.write_string s "console text");
  Alcotest.(check string) "unconnected port captures" "console text" (Serial.captured_output s)

let test_timer_periodic () =
  let w = World.create () in
  let m = Machine.create ~name:"tmr-pc" w in
  let t = Timer_dev.create ~machine:m ~irq:0 in
  let ticks = ref 0 in
  Machine.set_irq_handler m ~irq:0 (fun () ->
      incr ticks;
      if !ticks >= 5 then Timer_dev.stop t);
  Machine.run_in m (fun () -> Timer_dev.set_periodic t ~interval_ns:1_000_000);
  World.run w;
  Alcotest.(check int) "five ticks then stop" 5 !ticks;
  Alcotest.(check bool) "at 1ms intervals" true (World.now w >= 5_000_000)

let test_timer_oneshot () =
  let w = World.create () in
  let m = Machine.create ~name:"tmr2-pc" w in
  let t = Timer_dev.create ~machine:m ~irq:0 in
  let ticks = ref 0 in
  Machine.set_irq_handler m ~irq:0 (fun () -> incr ticks);
  Machine.run_in m (fun () -> Timer_dev.set_oneshot t ~delay_ns:500);
  World.run w;
  Alcotest.(check int) "exactly one tick" 1 !ticks

(* Profiles: [with_config] installs a profile around one run and hands
   the caller's configuration back however the run ends. *)
let test_with_config_restores () =
  Cost.reset_config ();
  let before = Cost.paper () in
  let inside =
    Cost.with_config { (Cost.paper ()) with Cost.sg_tx = true; ncpus = 4 } (fun () ->
        Cost.config.Cost.sg_tx, Cost.config.Cost.ncpus)
  in
  Alcotest.(check (pair bool int)) "profile live inside" (true, 4) inside;
  Alcotest.(check bool) "restored on return" true (Cost.config = before);
  (match
     Cost.with_config { (Cost.paper ()) with Cost.glue_crossing_cycles = 0 } (fun () ->
         failwith "run raised")
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "restored on exception" true (Cost.config = before)

let test_with_config_nests () =
  Cost.reset_config ();
  let outer = { (Cost.paper ()) with Cost.tcp_fastpath = true } in
  let inner = { (Cost.paper ()) with Cost.rx_batch = 8 } in
  let seen =
    Cost.with_config outer (fun () ->
        let i =
          Cost.with_config inner (fun () ->
              Cost.config.Cost.tcp_fastpath, Cost.config.Cost.rx_batch)
        in
        (* the inner profile replaces the whole configuration, and
           leaving it brings the outer one back, not the defaults *)
        i, (Cost.config.Cost.tcp_fastpath, Cost.config.Cost.rx_batch))
  in
  Alcotest.(check (pair (pair bool int) (pair bool int)))
    "inner then outer" ((false, 8), (true, 1)) seen;
  Alcotest.(check bool) "defaults after both" true (Cost.config = Cost.paper ())

let test_paper_is_reset_config () =
  Cost.with_config { (Cost.paper ()) with Cost.cpu_hz = 1 } (fun () ->
      Cost.reset_config ();
      Alcotest.(check bool) "paper () = config after reset_config" true
        (Cost.paper () = Cost.config));
  Alcotest.(check bool) "fresh copies" false (Cost.paper () == Cost.paper ())

(* Every profile field [with_config] installs and [diff] names, each in a
   profile that changes it alone.  Written out by hand, independently of
   Cost's field table, so a field missing from that table shows up. *)
let one_field_profiles () =
  let p = Cost.paper () in
  Cost.[
    "cpu_hz", { p with cpu_hz = p.cpu_hz + 1 };
    "copy_cycles_per_byte", { p with copy_cycles_per_byte = p.copy_cycles_per_byte + 1 };
    "checksum_cycles_per_byte",
    { p with checksum_cycles_per_byte = p.checksum_cycles_per_byte + 1 };
    "com_call_cycles", { p with com_call_cycles = p.com_call_cycles + 1 };
    "glue_crossing_cycles", { p with glue_crossing_cycles = p.glue_crossing_cycles + 1 };
    "irq_entry_cycles", { p with irq_entry_cycles = p.irq_entry_cycles + 1 };
    "alloc_cycles", { p with alloc_cycles = p.alloc_cycles + 1 };
    "pool_alloc_cycles", { p with pool_alloc_cycles = p.pool_alloc_cycles + 1 };
    "linux_driver_pkt_cycles",
    { p with linux_driver_pkt_cycles = p.linux_driver_pkt_cycles + 1 };
    "bsd_tcp_pkt_cycles", { p with bsd_tcp_pkt_cycles = p.bsd_tcp_pkt_cycles + 1 };
    "linux_tcp_pkt_cycles", { p with linux_tcp_pkt_cycles = p.linux_tcp_pkt_cycles + 1 };
    "socket_op_cycles", { p with socket_op_cycles = p.socket_op_cycles + 1 };
    "thread_spawn_cycles", { p with thread_spawn_cycles = p.thread_spawn_cycles + 1 };
    "sg_tx", { p with sg_tx = not p.sg_tx };
    "tcp_fastpath", { p with tcp_fastpath = not p.tcp_fastpath };
    "tcp_fastpath_cycles", { p with tcp_fastpath_cycles = p.tcp_fastpath_cycles + 1 };
    "rx_batch", { p with rx_batch = p.rx_batch + 1 };
    "tcp_wscale", { p with tcp_wscale = not p.tcp_wscale };
    "tcp_autotune", { p with tcp_autotune = not p.tcp_autotune };
    "tcp_mss", { p with tcp_mss = p.tcp_mss + 1 };
    "tcp_sockbuf_max", { p with tcp_sockbuf_max = p.tcp_sockbuf_max + 1 };
    "syn_defense", { p with syn_defense = not p.syn_defense };
    "syncache_size", { p with syncache_size = p.syncache_size + 1 };
    "tw_max", { p with tw_max = p.tw_max + 1 };
    "icmp_ratelimit", { p with icmp_ratelimit = p.icmp_ratelimit + 1 };
    "alloc_fail_prob", { p with alloc_fail_prob = p.alloc_fail_prob +. 0.5 };
    "alloc_fail_seed", { p with alloc_fail_seed = p.alloc_fail_seed + 1 };
    "alloc_fail_burst", { p with alloc_fail_burst = p.alloc_fail_burst + 1 };
    "httpd_guard", { p with httpd_guard = not p.httpd_guard };
    "httpd_header_deadline_ns",
    { p with httpd_header_deadline_ns = p.httpd_header_deadline_ns + 1 };
    "httpd_max_header_bytes",
    { p with httpd_max_header_bytes = p.httpd_max_header_bytes + 1 };
    "httpd_shed_hiwat", { p with httpd_shed_hiwat = p.httpd_shed_hiwat + 1 };
    "ncpus", { p with ncpus = p.ncpus + 1 };
    "netisr_qmax", { p with netisr_qmax = p.netisr_qmax + 1 };
    "http_keepalive", { p with http_keepalive = not p.http_keepalive };
    "http_idle_timeout_ns", { p with http_idle_timeout_ns = p.http_idle_timeout_ns + 1 };
    "http_max_reqs_per_conn",
    { p with http_max_reqs_per_conn = p.http_max_reqs_per_conn + 1 };
    "http_pipeline_max", { p with http_pipeline_max = p.http_pipeline_max + 1 };
    "sendfile", { p with sendfile = not p.sendfile } ]

let test_diff_same () =
  Alcotest.(check (list (pair string string)))
    "diff p p" [] (Cost.diff (Cost.paper ()) (Cost.paper ()))

let test_diff_one_field () =
  List.iter
    (fun (name, q) ->
      Alcotest.(check (list string))
        name [ name ] (List.map fst (Cost.diff (Cost.paper ()) q)))
    (one_field_profiles ())

let test_with_config_installs_every_field () =
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) name true (Cost.with_config q (fun () -> Cost.config = q)))
    (one_field_profiles ())

let suite =
  [ Alcotest.test_case "world ordering" `Quick test_world_ordering;
    Alcotest.test_case "world same-time FIFO" `Quick test_world_same_time_fifo;
    Alcotest.test_case "world cancel" `Quick test_world_cancel;
    Alcotest.test_case "world fuel" `Quick test_world_fuel;
    Alcotest.test_case "cost charging" `Quick test_cost_charging;
    Alcotest.test_case "cost counters" `Quick test_cost_counters;
    Alcotest.test_case "with_config restores" `Quick test_with_config_restores;
    Alcotest.test_case "with_config nests" `Quick test_with_config_nests;
    Alcotest.test_case "paper profile" `Quick test_paper_is_reset_config;
    Alcotest.test_case "diff p p is empty" `Quick test_diff_same;
    Alcotest.test_case "diff names one changed field" `Quick test_diff_one_field;
    Alcotest.test_case "with_config installs every field" `Quick
      test_with_config_installs_every_field;
    Alcotest.test_case "physmem" `Quick test_physmem;
    Alcotest.test_case "irq mask/pending" `Quick test_irq_mask_and_pending;
    Alcotest.test_case "irq disable/enable" `Quick test_irq_disable_enable;
    Alcotest.test_case "irq priority order" `Quick test_irq_priority;
    Alcotest.test_case "wire serialization" `Quick test_wire_serialization;
    Alcotest.test_case "wire busy queueing" `Quick test_wire_busy_queueing;
    Alcotest.test_case "nic filtering" `Quick test_nic_filtering;
    Alcotest.test_case "disk read/write" `Quick test_disk_rw;
    Alcotest.test_case "disk invalid op" `Quick test_disk_invalid;
    Alcotest.test_case "serial loopback" `Quick test_serial_loopback;
    Alcotest.test_case "serial capture" `Quick test_serial_capture;
    Alcotest.test_case "timer periodic" `Quick test_timer_periodic;
    Alcotest.test_case "timer oneshot" `Quick test_timer_oneshot ]
