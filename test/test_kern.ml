(* Kernel support: cooperative threads, sleep records, component locks,
   page tables, trap dispatch + debug registers, the GDB stub. *)

let with_machine f =
  let w = World.create () in
  let m = Machine.create ~name:"kern-pc" w in
  let k = Kernel.create m in
  f w m k

(* ---- threads ---- *)

let test_spawn_and_run () =
  with_machine (fun w _ k ->
      let log = ref [] in
      Kernel.spawn k ~name:"t1" (fun () -> log := 1 :: !log);
      Kernel.spawn k ~name:"t2" (fun () -> log := 2 :: !log);
      World.run w;
      Alcotest.(check (list int)) "both ran, spawn order" [ 1; 2 ] (List.rev !log))

let test_yield_interleaves () =
  with_machine (fun w _ k ->
      let log = Buffer.create 8 in
      Kernel.spawn k (fun () ->
          Buffer.add_char log 'a';
          Thread.yield ();
          Buffer.add_char log 'c');
      Kernel.spawn k (fun () ->
          Buffer.add_char log 'b';
          Thread.yield ();
          Buffer.add_char log 'd');
      World.run w;
      Alcotest.(check string) "round robin at yields" "abcd" (Buffer.contents log))

let test_thread_exception_isolated () =
  with_machine (fun w _ k ->
      let survived = ref false in
      Kernel.spawn k ~name:"dying" (fun () -> failwith "thread bug");
      Kernel.spawn k (fun () -> survived := true);
      World.run w;
      Alcotest.(check bool) "other thread unaffected" true !survived;
      match Thread.failures (Kernel.sched k) with
      | [ ("dying", Failure msg) ] -> Alcotest.(check string) "message" "thread bug" msg
      | l -> Alcotest.failf "expected 1 recorded failure, got %d" (List.length l))

let test_sleep_wakeup_from_interrupt () =
  with_machine (fun w m k ->
      let sr = Sleep_record.create ~name:"io-done" () in
      let woke_at = ref 0 in
      Kernel.spawn k (fun () ->
          Sleep_record.sleep sr;
          woke_at := Machine.now m);
      ignore (Machine.at m 5000 (fun () -> Sleep_record.wakeup sr));
      World.run w;
      Alcotest.(check bool) "woke after the interrupt" true (!woke_at >= 5000))

let test_sleep_latched_wakeup () =
  with_machine (fun w _ k ->
      let sr = Sleep_record.create () in
      (* Wakeup first, sleep second: must not block. *)
      Sleep_record.wakeup sr;
      let passed = ref false in
      Kernel.spawn k (fun () ->
          Sleep_record.sleep sr;
          passed := true);
      World.run w;
      Alcotest.(check bool) "latched wakeup consumed" true !passed)

let test_sleep_single_waiter () =
  with_machine (fun w _ k ->
      let sr = Sleep_record.create ~name:"one" () in
      let second_failed = ref false in
      Kernel.spawn k (fun () -> Sleep_record.sleep sr);
      Kernel.spawn k (fun () ->
          try Sleep_record.sleep sr with Invalid_argument _ -> second_failed := true);
      World.run w;
      Alcotest.(check bool) "second waiter rejected" true !second_failed;
      Sleep_record.wakeup sr;
      World.run w)

let test_kclock_sleep () =
  with_machine (fun w m k ->
      let t1 = ref 0 in
      Kernel.spawn k (fun () ->
          Kclock.sleep_ns 123_456;
          t1 := Machine.now m);
      World.run w;
      Alcotest.(check bool) "slept the requested time" true (!t1 >= 123_456))

let test_component_lock () =
  with_machine (fun w _ k ->
      let lock = Component_lock.create ~name:"fs" () in
      let order = Buffer.create 8 in
      Kernel.spawn k ~name:"A" (fun () ->
          Component_lock.with_lock lock (fun () ->
              Buffer.add_char order 'A';
              Thread.yield ();
              (* Still holding: B must not have entered. *)
              Buffer.add_char order 'a'));
      Kernel.spawn k ~name:"B" (fun () ->
          Component_lock.with_lock lock (fun () -> Buffer.add_char order 'B'));
      World.run w;
      Alcotest.(check string) "mutual exclusion, FIFO handoff" "AaB" (Buffer.contents order);
      Alcotest.(check int) "one contention" 1 (Component_lock.contentions lock))

let test_lock_dropped_across_blocking () =
  with_machine (fun w _ k ->
      let lock = Component_lock.create () in
      let sr = Sleep_record.create () in
      let order = Buffer.create 8 in
      Kernel.spawn k ~name:"inside" (fun () ->
          Component_lock.with_lock lock (fun () ->
              Buffer.add_char order '1';
              (* Blocking call back to the client: release around it. *)
              Component_lock.with_lock_dropped lock (fun () -> Sleep_record.sleep sr);
              Buffer.add_char order '3'));
      Kernel.spawn k ~name:"other" (fun () ->
          Component_lock.with_lock lock (fun () -> Buffer.add_char order '2');
          Sleep_record.wakeup sr);
      World.run w;
      Alcotest.(check string) "lock free during the blocked call" "123"
        (Buffer.contents order))

(* ---- page tables ---- *)

let make_pt m =
  let lmm = Lmm.create () in
  let ram = Machine.ram m in
  Lmm.add_region lmm ~min:0 ~size:(Physmem.size ram) ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0x10000 ~size:(Physmem.size ram - 0x10000);
  let alloc_page () =
    let a = Option.get (Lmm.alloc_page lmm ~flags:0) in
    Physmem.fill ram ~addr:a ~len:4096 0;
    a
  in
  Page_table.create ~ram ~alloc_page

let test_page_table_map_translate () =
  with_machine (fun _ m _ ->
      let pt = make_pt m in
      Page_table.map pt ~va:0x400000l ~pa:0x20000
        ~prot:{ Page_table.writable = true; user = false };
      (match Page_table.translate pt 0x400123l with
      | Some { Page_table.pa; prot } ->
          Alcotest.(check int) "pa with page offset" 0x20123 pa;
          Alcotest.(check bool) "writable" true prot.Page_table.writable
      | None -> Alcotest.fail "translate failed");
      Alcotest.(check (option reject)) "unmapped va" None
        (Option.map ignore (Page_table.translate pt 0x800000l)))

let test_page_table_access_codes () =
  with_machine (fun _ m _ ->
      let pt = make_pt m in
      Page_table.map pt ~va:0x1000l ~pa:0x30000
        ~prot:{ Page_table.writable = false; user = true };
      (match Page_table.access pt ~va:0x1000l ~write:false ~user:true with
      | Ok pa -> Alcotest.(check int) "read ok" 0x30000 pa
      | Error _ -> Alcotest.fail "read should succeed");
      (match Page_table.access pt ~va:0x1000l ~write:true ~user:true with
      | Error code ->
          Alcotest.(check int32) "P|W|U fault code" 0b111l code
      | Ok _ -> Alcotest.fail "write to RO page must fault");
      match Page_table.access pt ~va:0x7000l ~write:false ~user:false with
      | Error code -> Alcotest.(check int32) "not-present code" 0b000l code
      | Ok _ -> Alcotest.fail "unmapped access must fault")

let test_page_table_unmap_and_count () =
  with_machine (fun _ m _ ->
      let pt = make_pt m in
      Page_table.map_range pt ~va:0x100000l ~pa:0x40000 ~len:(16 * 4096)
        ~prot:{ Page_table.writable = true; user = false };
      Alcotest.(check int) "16 pages mapped" 16 (Page_table.mapped_pages pt);
      Page_table.unmap pt ~va:0x100000l;
      Alcotest.(check int) "one unmapped" 15 (Page_table.mapped_pages pt);
      Alcotest.(check bool) "translation gone" true
        (Page_table.translate pt 0x100000l = None))

(* ---- traps ---- *)

let test_trap_override_and_fallback () =
  with_machine (fun _ m k ->
      Machine.run_in m (fun () ->
          let traps = Kernel.traps k in
          (* No handler: panic. *)
          let f1 = Trap.make_frame ~eip:0x1000l Trap.T_gpf in
          Alcotest.(check bool) "default panics" true (Trap.deliver traps f1 = `Panic);
          Alcotest.(check int) "logged" 1 (List.length (Trap.panics traps));
          (* Install a handler that resumes. *)
          Trap.set_handler traps Trap.T_gpf (fun _ -> `Handled);
          Alcotest.(check bool) "handled" true (Trap.deliver traps f1 = `Handled);
          (* Handler can decline and fall back to the default. *)
          Trap.set_handler traps Trap.T_gpf (fun _ -> `Unhandled);
          Alcotest.(check bool) "fallback panics" true (Trap.deliver traps f1 = `Panic)))

let test_debug_registers () =
  with_machine (fun _ m k ->
      Machine.run_in m (fun () ->
          let traps = Kernel.traps k in
          let caught = ref None in
          Trap.set_handler traps Trap.T_debug (fun f ->
              caught := Some f.Trap.cr2;
              `Handled);
          Trap.set_breakpoint traps ~slot:0 ~addr:0l ~len:4096;
          (* The null-pointer-catch trick of Section 6.2.4. *)
          (match Trap.check_access traps 0x10l with
          | `Trapped `Handled -> ()
          | _ -> Alcotest.fail "breakpoint should fire and be handled");
          Alcotest.(check (option int32)) "faulting address seen" (Some 0x10l) !caught;
          Alcotest.(check bool) "outside range is clean" true
            (Trap.check_access traps 0x2000l = `Ok);
          Trap.clear_breakpoint traps ~slot:0;
          Alcotest.(check bool) "cleared" true (Trap.check_access traps 0x10l = `Ok)))

(* ---- GDB stub ---- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_gdb_protocol () =
  let sent = Buffer.create 256 in
  let ram = Physmem.create ~bytes:65536 in
  let stub = Gdb_stub.create ~ram ~send:(Buffer.add_string sent) in
  let frame = Trap.make_frame ~eip:0x1234l Trap.T_breakpoint in
  frame.Trap.eax <- 0xdeadbeefl;
  (* Target stops: stop reply. *)
  Gdb_stub.enter stub frame ~signal:5;
  Alcotest.(check string) "stop reply" (Gdb_proto.frame "S05") (Buffer.contents sent);
  Buffer.clear sent;
  (* Read registers: eax must appear first, little-endian. *)
  let r = Gdb_stub.feed stub (Gdb_proto.frame "g") in
  Alcotest.(check bool) "still stopped" true (r = `Stopped);
  let reply = Buffer.contents sent in
  Alcotest.(check bool) "acked" true (String.length reply > 1 && reply.[0] = '+');
  Alcotest.(check string) "eax little-endian hex" "efbeadde"
    (String.sub reply 2 8);
  Buffer.clear sent;
  (* Write and read memory. *)
  let _ = Gdb_stub.feed stub (Gdb_proto.frame "M100,4:61626364") in
  Buffer.clear sent;
  let _ = Gdb_stub.feed stub (Gdb_proto.frame "m100,4") in
  Alcotest.(check bool) "memory readback" true
    (contains (Buffer.contents sent) "61626364");
  Buffer.clear sent;
  (* Breakpoints. *)
  let _ = Gdb_stub.feed stub (Gdb_proto.frame "Z0,2000,1") in
  Alcotest.(check (list int32)) "bp set" [ 0x2000l ] (Gdb_stub.breakpoints stub);
  let _ = Gdb_stub.feed stub (Gdb_proto.frame "z0,2000,1") in
  Alcotest.(check (list int32)) "bp cleared" [] (Gdb_stub.breakpoints stub);
  (* Continue. *)
  (match Gdb_stub.feed stub (Gdb_proto.frame "c") with
  | `Resume `Continue -> ()
  | _ -> Alcotest.fail "continue not recognised");
  (* Bad checksum gets a NAK. *)
  Buffer.clear sent;
  let _ = Gdb_stub.feed stub "$g#00" in
  Alcotest.(check string) "nak on bad checksum" "-" (Buffer.contents sent)

let test_gdb_register_write () =
  let sent = Buffer.create 256 in
  let ram = Physmem.create ~bytes:4096 in
  let stub = Gdb_stub.create ~ram ~send:(Buffer.add_string sent) in
  let frame = Trap.make_frame Trap.T_breakpoint in
  Gdb_stub.enter stub frame ~signal:5;
  (* Set all 10 general registers to 1..10 (little-endian hex), segments 0. *)
  let payload =
    "G"
    ^ String.concat ""
        (List.init 10 (fun i -> Gdb_proto.hex32_le (Int32.of_int (i + 1))))
    ^ String.concat "" (List.init 6 (fun _ -> Gdb_proto.hex32_le 0l))
  in
  let _ = Gdb_stub.feed stub (Gdb_proto.frame payload) in
  Alcotest.(check int32) "eax written" 1l (Gdb_stub.regs stub).Trap.eax;
  Alcotest.(check int32) "eip written" 9l (Gdb_stub.regs stub).Trap.eip

let test_gdb_proto_roundtrip () =
  let p = Gdb_proto.create_parser () in
  let packet = Gdb_proto.frame "m100,20" in
  let results = List.filter_map (fun c -> match Gdb_proto.feed p c with
      | `Packet s -> Some s
      | _ -> None)
    (List.init (String.length packet) (String.get packet))
  in
  Alcotest.(check (list string)) "deframed" [ "m100,20" ] results;
  Alcotest.(check string) "hex roundtrip" "hello"
    (Gdb_proto.string_of_hex (Gdb_proto.hex_of_string "hello"))

let suite =
  [ Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
    Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
    Alcotest.test_case "thread exception isolated" `Quick test_thread_exception_isolated;
    Alcotest.test_case "sleep/wakeup from interrupt" `Quick test_sleep_wakeup_from_interrupt;
    Alcotest.test_case "latched wakeup" `Quick test_sleep_latched_wakeup;
    Alcotest.test_case "single waiter enforced" `Quick test_sleep_single_waiter;
    Alcotest.test_case "kclock sleep" `Quick test_kclock_sleep;
    Alcotest.test_case "component lock" `Quick test_component_lock;
    Alcotest.test_case "lock dropped across blocking" `Quick
      test_lock_dropped_across_blocking;
    Alcotest.test_case "page table map/translate" `Quick test_page_table_map_translate;
    Alcotest.test_case "page table access codes" `Quick test_page_table_access_codes;
    Alcotest.test_case "page table unmap/count" `Quick test_page_table_unmap_and_count;
    Alcotest.test_case "trap override/fallback" `Quick test_trap_override_and_fallback;
    Alcotest.test_case "debug registers" `Quick test_debug_registers;
    Alcotest.test_case "gdb protocol" `Quick test_gdb_protocol;
    Alcotest.test_case "gdb register write" `Quick test_gdb_register_write;
    Alcotest.test_case "gdb proto roundtrip" `Quick test_gdb_proto_roundtrip ]
