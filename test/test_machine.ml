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

(* Against a sorted-list model: [Sched (dt, c)] schedules an event at
   now + dt (a negative dt is clamped to now) whose action cancels handle
   [c mod (its own index + 1)] — itself, a fired one, or a pending one —
   when [c] is given; [Cancel j] cancels handle [j mod count], fired or
   not; [Step] runs one event.  After every operation the clock, the
   fired log and [pending] must agree with the model. *)
type world_op = Sched of int * int option | Cancel of int | Step

let show_world_op = function
  | Sched (dt, c) ->
      Printf.sprintf "Sched(%d,%s)" dt (Option.fold ~none:"-" ~some:string_of_int c)
  | Cancel j -> Printf.sprintf "Cancel %d" j
  | Step -> "Step"

let world_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ 4, map2 (fun dt c -> Sched (dt, c)) (int_range (-3) 6) (opt ~ratio:0.3 small_nat);
        1, map (fun j -> Cancel j) small_nat;
        3, return Step ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_world_op ops))
    (list_size (int_range 1 60) op)

let prop_world_model =
  QCheck.Test.make ~name:"world: agrees with a sorted-list model" ~count:300 world_ops
    (fun ops ->
      let w = World.create () in
      let handles = Hashtbl.create 16 in
      let fired = ref [] in
      (* model: (time, id) of the live events, sorted; ids count up *)
      let model = ref [] and now = ref 0 and expected = ref [] in
      let cancels = Hashtbl.create 16 in
      let model_cancel j = model := List.filter (fun (_, id) -> id <> j) !model in
      let cancel_in_world j = World.cancel (Hashtbl.find handles j) in
      let count = ref 0 in
      let agree () =
        World.now w = !now && World.pending w = List.length !model && !fired = !expected
      in
      List.for_all
        (fun op ->
          (match op with
          | Sched (dt, c) ->
              let id = !count in
              incr count;
              let target = Option.map (fun c -> c mod (id + 1)) c in
              Hashtbl.replace cancels id target;
              let ev =
                World.at w (World.now w + dt) (fun () ->
                    fired := id :: !fired;
                    Option.iter cancel_in_world target)
              in
              Hashtbl.replace handles id ev;
              model := List.merge compare [ max !now (!now + dt), id ] !model
          | Cancel j ->
              if !count > 0 then begin
                cancel_in_world (j mod !count);
                model_cancel (j mod !count)
              end
          | Step -> (
              let stepped = World.step w in
              match !model with
              | [] -> if stepped then expected := -1 :: !expected
              | (time, id) :: rest ->
                  model := rest;
                  now := max !now time;
                  expected := id :: !expected;
                  Option.iter model_cancel (Hashtbl.find cancels id)));
          agree ())
        ops)

let test_world_cancel_cases () =
  let w = World.create () in
  let log = ref [] in
  let ev_b = ref None in
  let a = World.at w 10 (fun () -> log := "a" :: !log; Option.iter World.cancel !ev_b) in
  ev_b := Some (World.at w 20 (fun () -> log := "b" :: !log));
  let c = ref None in
  c := Some (World.at w 30 (fun () -> log := "c" :: !log; Option.iter World.cancel !c));
  Alcotest.(check int) "three pending" 3 (World.pending w);
  World.run w;
  Alcotest.(check (list string)) "a cancelled b from its action" [ "a"; "c" ] (List.rev !log);
  Alcotest.(check int) "nothing pending" 0 (World.pending w);
  World.cancel a;
  Alcotest.(check int) "cancelling a fired event is a no-op" 0 (World.pending w);
  ignore (World.at w 40 ignore);
  World.cancel a;
  Alcotest.(check int) "and leaves the live ones alone" 1 (World.pending w)

(* A closure referenced only by a queued event; [weak] sees it go. *)
let at_tracked w weak slot time =
  let payload = ref 0 in
  let action () = incr payload in
  Weak.set weak slot (Some action);
  World.at w time action

let test_world_drops_closures () =
  let w = World.create () in
  let weak = Weak.create 2 in
  let cancelled = at_tracked w weak 0 100 in
  let fired = at_tracked w weak 1 50 in
  Gc.full_major ();
  Alcotest.(check bool) "queued closures are live" true (Weak.check weak 0 && Weak.check weak 1);
  World.cancel cancelled;
  ignore (World.step w);
  Gc.full_major ();
  Alcotest.(check bool) "cancelled closure collected" false (Weak.check weak 0);
  Alcotest.(check bool) "fired closure collected" false (Weak.check weak 1);
  ignore (Sys.opaque_identity (cancelled, fired))

let test_cost_charging () =
  let w = World.create () in
  let m = Machine.create ~name:"cost-pc" w in
  Machine.run_in m (fun () ->
      let t0 = Machine.now m in
      Cost.charge Cost.Protocol 200 (* 200 cycles @ 200MHz = 1000 ns *);
      Alcotest.(check int) "cycles to ns" (t0 + 1000) (Machine.now m));
  (* Outside a machine, charges are dropped (user-mode use). *)
  Cost.charge Cost.Protocol 1

(* Each layer's charge lands in its own ledger column on the executing
   CPU, a charge outside any machine lands nowhere, a CPU's row sums to
   its busy time, and two machines' CPU 0 rows are kept apart. *)
let test_cost_ledger () =
  let w = World.create () in
  let a = Machine.create ~name:"pc" ~ncpus:2 w and b = Machine.create ~name:"pc" ~ncpus:2 w in
  List.iteri
    (fun i (layer, _) -> Machine.run_on a ~cpu:1 (fun () -> Cost.charge layer (i + 1)))
    Cost.layers;
  Machine.run_in a (fun () -> Cost.charge Cost.Glue 2);
  Machine.run_in b (fun () -> Cost.charge Cost.Glue 7);
  Cost.charge Cost.Copy 1000;
  List.iteri
    (fun i (layer, name) ->
      Alcotest.(check int) (name ^ " on cpu 1") ((i + 1) * 5) (Machine.ledger a ~cpu:1 layer);
      let glue n = if layer = Cost.Glue then n else 0 in
      Alcotest.(check int) (name ^ " on cpu 0") (glue 10) (Machine.ledger a ~cpu:0 layer);
      Alcotest.(check int) (name ^ " on both cpus") (((i + 1) * 5) + glue 10)
        (Machine.ledger a layer);
      Alcotest.(check int) (name ^ " on the other machine") (glue 35) (Machine.ledger b layer))
    Cost.layers;
  Alcotest.(check int) "cpu 1 row sums to its busy time" 330 (Machine.cpu_busy_ns a ~cpu:1);
  Alcotest.(check int) "cpu 0 row sums to its busy time" 10 (Machine.cpu_busy_ns a ~cpu:0);
  Alcotest.(check int) "the other machine's cpu 0 row" 35 (Machine.cpu_busy_ns b ~cpu:0);
  Alcotest.(check int) "its cpu 1 row" 0 (Machine.cpu_busy_ns b ~cpu:1)

let test_cost_counters () =
  let w = World.create () in
  let m = Machine.create ~name:"ctr-pc" w in
  Cost.reset_counters ();
  Machine.run_in m (fun () ->
      Cost.charge_copy 100;
      Cost.charge_copy 50;
      Cost.charge_glue_crossing Cost.Rx_push);
  Alcotest.(check int) "copies" 2 Cost.counters.Cost.copies;
  Alcotest.(check int) "bytes" 150 Cost.counters.Cost.copied_bytes;
  Alcotest.(check int) "crossings" 1 Cost.counters.Cost.glue_crossings;
  Alcotest.(check int) "copy column" (150 * 4 * 5) (Machine.ledger m Cost.Copy);
  Alcotest.(check int) "glue column" (1500 * 5) (Machine.ledger m Cost.Glue);
  List.iter
    (fun (site, name) ->
      Alcotest.(check int) ("crossings at " ^ name) (if site = Cost.Rx_push then 1 else 0)
        (Machine.crossings m site))
    Cost.sites;
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

(* Against a flat [Bytes] reference over three pages: random accesses of
   every width, copies and fills, biased towards page boundaries and the
   end of RAM.  Each call must return what the reference holds, or raise
   [Fault] exactly where the reference range is out of bounds; at the end
   the whole store must equal the reference, so a faulting call moved
   nothing.  An in-place mapping ([map_page]) is granted exactly when the
   range lies in one page, and hands out the store's own page, one per
   page number: a write through the store shows in it, then and at the
   end, so an untouched page is never handed out as the shared zero
   page. *)
type mem_op =
  | Get of int * int (* width, addr *)
  | Set of int * int * int (* width, addr, value *)
  | Copy_in of int * int (* addr, len *)
  | Copy_out of int * int
  | Fill of int * int * int (* addr, len, byte *)
  | Map of int * int (* addr, len *)

let ram_pages = 3
let ram_size = ram_pages * 4096

let show_mem_op = function
  | Get (w, a) -> Printf.sprintf "Get%d %d" (8 * w) a
  | Set (w, a, v) -> Printf.sprintf "Set%d %d %d" (8 * w) a v
  | Copy_in (a, n) -> Printf.sprintf "Copy_in %d %d" a n
  | Copy_out (a, n) -> Printf.sprintf "Copy_out %d %d" a n
  | Fill (a, n, b) -> Printf.sprintf "Fill %d %d %d" a n b
  | Map (a, n) -> Printf.sprintf "Map %d %d" a n

let mem_ops =
  let open QCheck.Gen in
  let addr =
    frequency
      [ 2, int_range 0 (ram_size - 1);
        3, map2 (fun p d -> (p * 4096) + d) (int_range 1 ram_pages) (int_range (-4) 3);
        1, int_range (-3) (-1) ]
  in
  let len = frequency [ 3, int_range 0 16; 2, int_range 0 9000; 1, return (-1) ] in
  let width = oneofl [ 1; 2; 4 ] in
  let op =
    frequency
      [ 3, map2 (fun w a -> Get (w, a)) width addr;
        3, map3 (fun w a v -> Set (w, a, v)) width addr int;
        2, map2 (fun a n -> Copy_in (a, n)) addr len;
        2, map2 (fun a n -> Copy_out (a, n)) addr len;
        1, map3 (fun a n b -> Fill (a, n, b)) addr len (int_range 0 511);
        2, map2 (fun a n -> Map (a, n)) addr len ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    (list_size (int_range 1 40) op)

let prop_physmem_model =
  QCheck.Test.make ~name:"physmem: agrees with a flat reference" ~count:300 mem_ops
    (fun ops ->
      let ram = Physmem.create ~bytes:(ram_size - 100) in
      let flat = Bytes.make ram_size '\000' in
      let ok a n = a >= 0 && n >= 0 && a + n <= ram_size in
      (* The observable result of a call: its value, or the fault. *)
      let result f = try Ok (f ()) with Physmem.Fault _ -> Error () in
      let expect a n f = if ok a n then Ok (f ()) else Error () in
      let data a n = Bytes.init (max n 0) (fun i -> Char.chr ((a + (7 * i)) land 0xff)) in
      (* Every page handed out, by page number: the store's own bytes,
         never one page for two (the shared zero page). *)
      let mapped = Hashtbl.create 4 in
      Physmem.size ram = ram_size
      && List.for_all
           (fun op ->
             match op with
             | Get (w, a) ->
                 result (fun () ->
                     match w with
                     | 1 -> Int32.of_int (Physmem.get8 ram a)
                     | 2 -> Int32.of_int (Physmem.get16 ram a)
                     | _ -> Physmem.get32 ram a)
                 = expect a w (fun () ->
                       match w with
                       | 1 -> Int32.of_int (Bytes.get_uint8 flat a)
                       | 2 -> Int32.of_int (Bytes.get_uint16_le flat a)
                       | _ -> Bytes.get_int32_le flat a)
             | Set (w, a, v) ->
                 result (fun () ->
                     match w with
                     | 1 -> Physmem.set8 ram a v
                     | 2 -> Physmem.set16 ram a v
                     | _ -> Physmem.set32 ram a (Int32.of_int v))
                 = expect a w (fun () ->
                       match w with
                       | 1 -> Bytes.set_uint8 flat a (v land 0xff)
                       | 2 -> Bytes.set_uint16_le flat a (v land 0xffff)
                       | _ -> Bytes.set_int32_le flat a (Int32.of_int v))
             | Copy_in (a, n) ->
                 let src = data a n in
                 result (fun () ->
                     Physmem.blit_from_bytes ram ~src ~src_pos:0 ~dst_addr:a ~len:n)
                 = expect a n (fun () -> Bytes.blit src 0 flat a n)
             | Copy_out (a, n) ->
                 let dst = Bytes.make (max n 0 + 2) '?' in
                 result (fun () ->
                     Physmem.blit_to_bytes ram ~src_addr:a ~dst ~dst_pos:1 ~len:n;
                     Bytes.to_string dst)
                 = expect a n (fun () ->
                       let want = Bytes.make (n + 2) '?' in
                       Bytes.blit flat a want 1 n;
                       Bytes.to_string want)
             | Fill (a, n, b) ->
                 result (fun () -> Physmem.fill ram ~addr:a ~len:n b)
                 = expect a n (fun () -> Bytes.fill flat a n (Char.chr (b land 0xff)))
             | Map (a, n) -> (
                 match result (fun () -> Physmem.map_page ram ~addr:a ~len:n) with
                 | Error () -> not (ok a n)
                 | Ok None -> ok a n && (n = 0 || (a mod 4096) + n > 4096)
                 | Ok (Some (page, off)) ->
                     ok a n && n > 0
                     && (a mod 4096) + n <= 4096
                     && off = a mod 4096
                     && Bytes.sub page off n = Bytes.sub flat a n
                     &&
                     (* A write through the store shows in the page: it is
                        the store's own, never the shared zero page. *)
                     let v = (a land 0x7f) lor 1 in
                     Physmem.set8 ram a v;
                     Bytes.set_uint8 flat a v;
                     Bytes.get_uint8 page off = v
                     &&
                     let i = a / 4096 in
                     Hashtbl.replace mapped i page;
                     Hashtbl.fold (fun j p fine -> fine && (j = i) = (p == page)) mapped true))
           ops
      (* A handed-out page is the store's: it reads every later write. *)
      && Hashtbl.fold
           (fun i page fine -> fine && Bytes.equal page (Bytes.sub flat (i * 4096) 4096))
           mapped true
      &&
      let all = Bytes.create ram_size in
      Physmem.blit_to_bytes ram ~src_addr:0 ~dst:all ~dst_pos:0 ~len:ram_size;
      Bytes.equal all flat)

(* An untouched RAM costs its page table, not its size: an 8 MB machine
   allocates well under 64 KB. *)
let test_machine_ram_is_demand_zero () =
  let w = World.create () in
  (* Start from an empty minor heap.  Under OCaml 5.1 a minor collection
     that falls inside the window adds the words the minor heap held
     before it to [Gc.allocated_bytes] (up to 240 KB after the cases that
     run before this one), so the count would say where a collection
     landed, not what [Machine.create] allocates (16 KB). *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let m = Machine.create ~name:"lazy-pc" ~ram_bytes:(8 lsl 20) w in
  let used = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f bytes allocated" used) true (used < 65536.);
  Alcotest.(check int) "full size" (8 lsl 20) (Physmem.size (Machine.ram m));
  Alcotest.(check int) "reads zero" 0 (Physmem.get8 (Machine.ram m) ((8 lsl 20) - 1))

(* The RAM disk over the same store: a read running off the end is short,
   one starting past it is empty, and unwritten blocks read as zeros. *)
let test_ram_disk_bounds () =
  let dev = Mem_blkio.make ~bytes:5000 () in
  let buf = Bytes.make 100 'x' in
  let read offset = dev.Io_if.bio_read ~buf ~pos:0 ~offset ~amount:100 in
  Alcotest.(check bool) "short read at the end" true (read 4950 = Ok 50);
  Alcotest.(check string) "zeros" (String.make 50 '\000') (Bytes.sub_string buf 0 50);
  Alcotest.(check bool) "empty read past the end" true (read 6000 = Ok 0)

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
    "syn_defense", { p with syn_defense = not p.syn_defense };
    "tw_max", { p with tw_max = p.tw_max + 1 };
    "icmp_ratelimit", { p with icmp_ratelimit = p.icmp_ratelimit + 1 };
    "alloc_fail_prob", { p with alloc_fail_prob = p.alloc_fail_prob +. 0.5 };
    "alloc_fail_seed", { p with alloc_fail_seed = p.alloc_fail_seed + 1 };
    "alloc_fail_burst", { p with alloc_fail_burst = p.alloc_fail_burst + 1 };
    "httpd_header_deadline_ns",
    { p with httpd_header_deadline_ns = p.httpd_header_deadline_ns + 1 };
    "httpd_max_header_bytes",
    { p with httpd_max_header_bytes = p.httpd_max_header_bytes + 1 };
    "httpd_shed_hiwat", { p with httpd_shed_hiwat = p.httpd_shed_hiwat + 1 };
    "ncpus", { p with ncpus = p.ncpus + 1 };
    "netisr_qmax", { p with netisr_qmax = p.netisr_qmax + 1 };
    "http_keepalive", { p with http_keepalive = not p.http_keepalive };
    "http_max_reqs_per_conn",
    { p with http_max_reqs_per_conn = p.http_max_reqs_per_conn + 1 };
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

(* The per-machine store: one value per machine, never per name, and a
   lookup that allocates nothing.  The key is made after the machines, so
   their stores grow to hold it. *)
let test_machine_store () =
  let w = World.create () in
  let m1 = Machine.create ~name:"pc" w and m2 = Machine.create ~name:"pc" w in
  let k = Machine.key (fun _ -> ref 0) in
  incr (Machine.get m1 k);
  Alcotest.(check int) "per machine" 0 !(Machine.get m2 k);
  Alcotest.(check int) "kept" 1 !(Machine.get m1 k);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Machine.get m1 k))
  done;
  Alcotest.(check bool) "lookup allocates nothing" true (Gc.minor_words () -. before < 100.)

let suite =
  [ Alcotest.test_case "world ordering" `Quick test_world_ordering;
    Alcotest.test_case "world same-time FIFO" `Quick test_world_same_time_fifo;
    Alcotest.test_case "world cancel" `Quick test_world_cancel;
    Alcotest.test_case "world fuel" `Quick test_world_fuel;
    Alcotest.test_case "world cancel cases" `Quick test_world_cancel_cases;
    Alcotest.test_case "world drops fired and cancelled closures" `Quick
      test_world_drops_closures;
    QCheck_alcotest.to_alcotest prop_world_model;
    Alcotest.test_case "cost charging" `Quick test_cost_charging;
    Alcotest.test_case "cost counters" `Quick test_cost_counters;
    Alcotest.test_case "cost ledger by layer and CPU" `Quick test_cost_ledger;
    Alcotest.test_case "with_config restores" `Quick test_with_config_restores;
    Alcotest.test_case "with_config nests" `Quick test_with_config_nests;
    Alcotest.test_case "paper profile" `Quick test_paper_is_reset_config;
    Alcotest.test_case "diff p p is empty" `Quick test_diff_same;
    Alcotest.test_case "diff names one changed field" `Quick test_diff_one_field;
    Alcotest.test_case "with_config installs every field" `Quick
      test_with_config_installs_every_field;
    Alcotest.test_case "physmem" `Quick test_physmem;
    QCheck_alcotest.to_alcotest prop_physmem_model;
    Alcotest.test_case "machine RAM is demand-zero" `Quick test_machine_ram_is_demand_zero;
    Alcotest.test_case "RAM disk bounds" `Quick test_ram_disk_bounds;
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
    Alcotest.test_case "timer oneshot" `Quick test_timer_oneshot;
    Alcotest.test_case "per-machine store" `Quick test_machine_store ]
