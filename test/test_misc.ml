(* Smaller components: exec images, SMP interfaces, fdev probing, and the
   Linux IDE driver path through the blkio COM interface. *)

let ok = Endpoint.ok

(* ---- exec ---- *)

let test_exec_pack_parse () =
  let img =
    { Exec.entry = 0x401000l; load_va = 0x400000l; text = String.make 5000 'T';
      data = "DATA-SEG"; bss_size = 4096 }
  in
  let packed = Exec.pack img in
  let parsed = ok (Exec.parse packed) in
  Alcotest.(check int32) "entry" img.Exec.entry parsed.Exec.entry;
  Alcotest.(check string) "data" "DATA-SEG" parsed.Exec.data;
  Alcotest.(check int) "bss" 4096 parsed.Exec.bss_size;
  (match Exec.parse (Bytes.make 100 'x') with
  | Error Error.Inval -> ()
  | _ -> Alcotest.fail "bad magic must be rejected");
  match Exec.parse (Bytes.sub packed 0 10) with
  | Error Error.Inval -> ()
  | _ -> Alcotest.fail "truncated header must be rejected"

let test_exec_load_and_map () =
  let w = World.create () in
  let m = Machine.create ~name:"exec-pc" w in
  let ram = Machine.ram m in
  let img =
    { Exec.entry = 0x400010l; load_va = 0x400000l; text = String.make 4096 'T';
      data = String.make 100 'D'; bss_size = 500 }
  in
  let loaded = Exec.load ram img ~at:0x100000 in
  Alcotest.(check int) "loaded size" (4096 + 100 + 500) loaded.Exec.l_size;
  Alcotest.(check int) "text byte" (Char.code 'T') (Physmem.get8 ram 0x100000);
  Alcotest.(check int) "data byte" (Char.code 'D') (Physmem.get8 ram (0x100000 + 4096));
  Alcotest.(check int) "bss zeroed" 0 (Physmem.get8 ram (0x100000 + 4196));
  (* Map into a page table and check protections. *)
  let next = ref 0x200000 in
  let alloc_page () =
    let a = !next in
    next := !next + 4096;
    a
  in
  let pt = Page_table.create ~ram ~alloc_page in
  Exec.map_into pt img loaded;
  (match Page_table.access pt ~va:0x400000l ~write:true ~user:true with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "text must be read-only");
  match Page_table.access pt ~va:0x401000l ~write:true ~user:true with
  | Ok pa -> Alcotest.(check int) "data maps to loaded data" (0x100000 + 4096) pa
  | Error _ -> Alcotest.fail "data must be writable"

(* ---- smp ---- *)

let test_smp () =
  let w = World.create () in
  let m = Machine.create ~name:"smp-pc" w in
  let smp = Smp.init ~ncpus:4 m in
  Alcotest.(check int) "cpus" 4 (Smp.num_cpus smp);
  let counters = Smp.percpu smp ~init:(fun cpu -> ref (cpu * 10)) in
  Alcotest.(check int) "percpu init" 0 !(Smp.get smp counters);
  Alcotest.(check int) "percpu other" 30 !(Smp.get_for counters ~cpu:3);
  let l = Smp.spinlock ~name:"test" () in
  Smp.with_spinlock l (fun () ->
      Alcotest.(check bool) "trylock fails while held" false (Smp.spin_trylock l));
  Alcotest.(check bool) "trylock after release" true (Smp.spin_trylock l);
  Smp.spin_unlock l;
  Alcotest.(check int) "contention recorded" 1 (Smp.spin_contentions l);
  Smp.spin_lock l;
  Alcotest.(check bool) "self-deadlock detected" true
    (try
       Smp.spin_lock l;
       false
     with Invalid_argument _ -> true);
  Smp.spin_unlock l;
  let visited = ref [] in
  Smp.broadcast smp (fun cpu -> visited := cpu :: !visited);
  Alcotest.(check (list int)) "broadcast to others" [ 1; 2; 3 ] (List.rev !visited)

(* ---- fdev probing + osenv ---- *)

let test_fdev_probe_and_lookup () =
  Fdev.clear_drivers ();
  let w = World.create () in
  let wire = Wire.create w in
  let m = Machine.create ~name:"probe-pc" w in
  Bus.register_hw m
    (Bus.Hw_nic
       { model = "NE2000"; nic = Nic.create ~machine:m ~wire ~mac:"\x02\x00\x00\x00\x09\x01" ~irq:9 () });
  Bus.register_hw m
    (Bus.Hw_nic
       { model = "unsupported-chip";
         nic = Nic.create ~machine:m ~wire ~mac:"\x02\x00\x00\x00\x09\x02" ~irq:10 () });
  let disk = Disk.create ~machine:m ~sectors:4096 ~irq:14 () in
  Bus.register_hw m (Bus.Hw_disk { model = "WDC-AC2850"; disk });
  Linux_glue.init_ethernet ();
  Linux_glue.init_ide ();
  Alcotest.(check int) "two driver sets registered" 2
    (List.length (Fdev.registered_drivers ()));
  let osenv = Osenv.create m in
  let found = Fdev.probe osenv in
  Alcotest.(check int) "probe found eth + disk, skipped unknown chip" 2 found;
  Alcotest.(check int) "one etherdev" 1 (List.length (Fdev.lookup osenv Io_if.etherdev_iid));
  Alcotest.(check int) "one blkio" 1 (List.length (Fdev.lookup osenv Io_if.blkio_iid));
  Fdev.clear_drivers ()

(* One probe numbers the devices it finds on its machine in bus order. *)
let test_probe_names_devices () =
  let w = World.create () in
  let wire = Wire.create w in
  let m = Machine.create ~name:"names-pc" w in
  List.iteri
    (fun i model ->
      let mac = Printf.sprintf "\x02\x00\x00\x00\x0a%c" (Char.chr i) in
      let nic = Nic.create ~machine:m ~wire ~mac ~irq:(9 + i) () in
      Bus.register_hw m (Bus.Hw_nic { model; nic });
      let disk = Disk.create ~machine:m ~sectors:64 ~irq:(14 + i) () in
      Bus.register_hw m (Bus.Hw_disk { model = "WDC-AC2850"; disk }))
    [ "NE2000"; "tulip" ];
  let osenv = Osenv.create m in
  Alcotest.(check (list string)) "cards" [ "eth0"; "eth1" ]
    (List.map (fun d -> d.Linux_eth_drv.name) (Linux_eth_drv.probe_devices osenv));
  Alcotest.(check (list string)) "drives" [ "hda"; "hdb" ]
    (List.map (fun d -> d.Linux_ide_drv.name) (Linux_ide_drv.probe_drives osenv))

let test_osenv_services () =
  let w = World.create () in
  let m = Machine.create ~name:"osenv-pc" w in
  let osenv = Osenv.create m in
  (* Default memory allocation honours DMA constraints. *)
  (match Osenv.mem_alloc osenv ~size:4096 ~flags:Lmm.flag_low_16mb ~align_bits:12 with
  | Some addr ->
      Alcotest.(check bool) "DMA range" true (addr + 4096 <= Physmem.dma_limit);
      Alcotest.(check int) "aligned" 0 (addr land 0xfff);
      Osenv.mem_free osenv ~addr ~size:4096
  | None -> Alcotest.fail "osenv alloc failed");
  (* IRQ request conflicts are reported. *)
  (match Osenv.irq_request osenv ~irq:5 ~handler:(fun () -> ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first irq_request");
  (match Osenv.irq_request osenv ~irq:5 ~handler:(fun () -> ()) with
  | Error Error.Busy -> ()
  | _ -> Alcotest.fail "conflicting irq_request must fail");
  Osenv.irq_free osenv ~irq:5;
  (match Osenv.irq_request osenv ~irq:5 ~handler:(fun () -> ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "re-request after free");
  Osenv.log osenv "driver message";
  Alcotest.(check string) "log captured" "driver message\n" (Osenv.log_output osenv)

(* ---- Linux IDE driver through the COM blkio ---- *)

let test_ide_blkio_path () =
  Fdev.clear_drivers ();
  let w = World.create () in
  let m = Machine.create ~name:"ide-pc" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  let disk = Disk.create ~machine:m ~sectors:8192 ~irq:14 () in
  Bus.register_hw m (Bus.Hw_disk { model = "QUANTUM-LPS540"; disk });
  Linux_glue.init_ide ();
  let osenv = Osenv.create m in
  ignore (Fdev.probe osenv);
  match Fdev.lookup osenv Io_if.blkio_iid with
  | [ bio ] ->
      let finished = ref false in
      Thread.spawn sched ~name:"fs-user" (fun () ->
          (* Unaligned write exercises read-modify-write. *)
          let msg = Bytes.of_string "written-through-the-stack" in
          let n = ok (bio.Io_if.bio_write ~buf:msg ~pos:0 ~offset:1000 ~amount:(Bytes.length msg)) in
          Alcotest.(check int) "write all" (Bytes.length msg) n;
          let back = Bytes.create (Bytes.length msg) in
          let n = ok (bio.Io_if.bio_read ~buf:back ~pos:0 ~offset:1000 ~amount:(Bytes.length back)) in
          Alcotest.(check int) "read all" (Bytes.length back) n;
          Alcotest.(check string) "roundtrip through driver + hardware model"
            "written-through-the-stack" (Bytes.to_string back);
          finished := true);
      Machine.kick m;
      World.run w ~until:(fun () -> !finished);
      Alcotest.(check bool) "completed" true !finished;
      (* The data really reached the simulated platters. *)
      let sector = Disk.read_raw disk ~start:(1000 / 512) ~count:2 in
      Alcotest.(check bool) "on the platters" true
        (let s = Bytes.to_string sector in
         let rec find i =
           i + 7 <= String.length s && (String.sub s i 7 = "written" || find (i + 1))
         in
         find 0);
      Fdev.clear_drivers ()
  | l -> Alcotest.failf "expected 1 blkio device, found %d" (List.length l)

let suite =
  [ Alcotest.test_case "exec pack/parse" `Quick test_exec_pack_parse;
    Alcotest.test_case "exec load and map" `Quick test_exec_load_and_map;
    Alcotest.test_case "smp primitives" `Quick test_smp;
    Alcotest.test_case "fdev probe and lookup" `Quick test_fdev_probe_and_lookup;
    Alcotest.test_case "osenv services" `Quick test_osenv_services;
    Alcotest.test_case "linux IDE via blkio" `Quick test_ide_blkio_path;
    Alcotest.test_case "probe numbers its devices" `Quick test_probe_names_devices ]
