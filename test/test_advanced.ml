(* Deeper paper-specific behaviours: hard links, TCP simultaneous open,
   the medium-grained component concurrency of Section 4.7.4, and extra
   property tests (GDB framing, page tables vs a model). *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

(* ---- hard links ---- *)

let test_hard_links () =
  let dev = Mem_blkio.make ~bytes:(1 lsl 21) () in
  let fs, root = ok (Fs_glue.newfs_fs dev) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  let fd = ok (Posix.open_ env "/orig" (Posix.o_creat lor Posix.o_rdwr)) in
  ignore (ok (Posix.write env fd (Bytes.of_string "shared bytes") ~pos:0 ~len:12));
  ok (Posix.close env fd);
  ok (Posix.mkdir env "/d");
  let dir_of path =
    match ok (Posix.lookup env path) with
    | Io_if.Node_dir d -> d
    | Io_if.Node_file _ -> Alcotest.fail "not a dir"
  in
  ok (Fs_glue.link fs ~from_dir:root ~from_name:"orig" ~to_dir:(dir_of "/d") ~to_name:"alias");
  (* Same inode, nlink 2. *)
  let st1 = ok (Posix.stat env "/orig") and st2 = ok (Posix.stat env "/d/alias") in
  Alcotest.(check int) "same inode" st1.Io_if.st_ino st2.Io_if.st_ino;
  Alcotest.(check int) "nlink" 2 st1.Io_if.st_nlink;
  (* Writes through one name are visible through the other. *)
  let fd = ok (Posix.open_ env "/d/alias" Posix.o_rdwr) in
  ignore (ok (Posix.write env fd (Bytes.of_string "SHARED") ~pos:0 ~len:6));
  ok (Posix.close env fd);
  let buf = Bytes.create 12 in
  let fd = ok (Posix.open_ env "/orig" Posix.o_rdonly) in
  ignore (ok (Posix.read env fd buf ~pos:0 ~len:12));
  Alcotest.(check string) "visible via the other name" "SHARED bytes" (Bytes.to_string buf);
  (* Unlinking one name keeps the data; unlinking the last frees it. *)
  ok (Posix.unlink env "/orig");
  Alcotest.(check int) "nlink drops" 1 (ok (Posix.stat env "/d/alias")).Io_if.st_nlink;
  let free_before = Ffs.free_blocks fs in
  ok (Posix.unlink env "/d/alias");
  Alcotest.(check bool) "blocks freed at last unlink" true (Ffs.free_blocks fs > free_before);
  (* Linking a directory is forbidden. *)
  match Fs_glue.link fs ~from_dir:root ~from_name:"d" ~to_dir:root ~to_name:"d2" with
  | Error Error.Isdir -> ()
  | _ -> Alcotest.fail "hard-linking a directory must EISDIR"

(* ---- TCP simultaneous open ---- *)

let test_simultaneous_open () =
  let { Test_tcp_behavior.world = w; ha; hb; sa; sb; _ } =
    Test_tcp_behavior.make_rig ~net:"10.3.0" ()
  in
  (* Both sides bind fixed ports and actively connect to each other at the
     same virtual instant. *)
  let ra = ref None and rb = ref None in
  Clientos.spawn ha (fun () ->
      let s = Bsd_socket.tcp_socket sa in
      ok (Bsd_socket.so_bind s ~port:7000);
      ra := Some (Bsd_socket.so_connect s ~dst:(ip "10.3.0.2") ~dport:7001));
  Clientos.spawn hb (fun () ->
      let s = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind s ~port:7001);
      rb := Some (Bsd_socket.so_connect s ~dst:(ip "10.3.0.1") ~dport:7000));
  World.set_fuel w 2_000_000;
  (try World.run w ~until:(fun () -> !ra <> None && !rb <> None)
   with World.Out_of_fuel -> ());
  Alcotest.(check bool) "a connected" true (match !ra with Some (Ok ()) -> true | _ -> false);
  Alcotest.(check bool) "b connected" true (match !rb with Some (Ok ()) -> true | _ -> false)

(* ---- Section 4.7.4: medium-grained concurrency ----
   Separate component locks around the file system and the network let
   them proceed concurrently on one machine: while the FS thread is blocked
   inside the disk driver (its component lock dropped around the blocking
   call), the network thread must be able to run. *)

let test_medium_grained_concurrency () =
  Fdev.clear_drivers ();
  let w = World.create () in
  let m = Machine.create ~name:"conc-pc" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  let disk = Disk.create ~machine:m ~sectors:8192 ~irq:14 () in
  Bus.register_hw m (Bus.Hw_disk { model = "WDC-AC2850"; disk });
  Linux_glue.init_ide ();
  let osenv = Osenv.create m in
  ignore (Fdev.probe osenv);
  let bio = List.hd (Fdev.lookup osenv Io_if.blkio_iid) in
  let fs_lock = Component_lock.create ~name:"fs" () in
  let net_lock = Component_lock.create ~name:"net" () in
  let log = Buffer.create 16 in
  let fs_done = ref false and net_done = ref false in
  Thread.spawn sched ~name:"fs-user" (fun () ->
      Component_lock.with_lock fs_lock (fun () ->
          Buffer.add_char log 'F';
          (* The blocking disk I/O releases the machine for ~ms of virtual
             time; the component lock protocol drops the lock around it. *)
          Component_lock.with_lock_dropped fs_lock (fun () ->
              let b = Bytes.make 4096 'f' in
              ignore (ok (bio.Io_if.bio_write ~buf:b ~pos:0 ~offset:0 ~amount:4096)));
          Buffer.add_char log 'f');
      fs_done := true);
  Thread.spawn sched ~name:"net-user" (fun () ->
      (* Runs entirely during the FS thread's disk wait. *)
      Kclock.sleep_ns 100_000;
      Component_lock.with_lock net_lock (fun () -> Buffer.add_char log 'N');
      net_done := true);
  Machine.kick m;
  World.run w ~until:(fun () -> !fs_done && !net_done);
  (* The network work interleaved INSIDE the FS critical section. *)
  Alcotest.(check string) "net ran during the FS component's blocking I/O" "FNf"
    (Buffer.contents log);
  Alcotest.(check int) "no lock contention (separate locks)" 0
    (Component_lock.contentions fs_lock + Component_lock.contentions net_lock)

(* ---- extra property tests ---- *)

let prop_gdb_framing =
  QCheck.Test.make ~name:"gdb: frame/deframe identity for arbitrary payloads" ~count:200
    (QCheck.string_of_size (QCheck.Gen.int_range 0 80))
    (fun payload ->
      QCheck.assume (String.for_all (fun c -> c <> '#' && c <> '$' && c <> '}') payload);
      let p = Gdb_proto.create_parser () in
      let framed = Gdb_proto.frame payload in
      let decoded = ref None in
      String.iter
        (fun c ->
          match Gdb_proto.feed p c with `Packet s -> decoded := Some s | _ -> ())
        framed;
      !decoded = Some payload)

let prop_page_table_model =
  QCheck.Test.make ~name:"page table: agrees with a model under random map/unmap" ~count:50
    QCheck.(small_list (triple (int_range 0 63) (int_range 0 255) bool))
    (fun ops ->
      let ram = Physmem.create ~bytes:(1 lsl 22) in
      let next = ref 0x100000 in
      let alloc_page () =
        let a = !next in
        next := !next + 4096;
        a
      in
      let pt = Page_table.create ~ram ~alloc_page in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (vpage, ppage, do_map) ->
          let va = Int32.of_int (0x40000000 + (vpage * 4096)) in
          if do_map then begin
            let pa = 0x200000 + (ppage * 4096) in
            Page_table.map pt ~va ~pa ~prot:{ Page_table.writable = true; user = false };
            Hashtbl.replace model vpage pa
          end
          else begin
            Page_table.unmap pt ~va;
            Hashtbl.remove model vpage
          end)
        ops;
      let agree = ref true in
      for vpage = 0 to 63 do
        let va = Int32.of_int (0x40000000 + (vpage * 4096)) in
        let expected = Hashtbl.find_opt model vpage in
        let got =
          Option.map (fun tr -> tr.Page_table.pa) (Page_table.translate pt va)
        in
        if expected <> got then agree := false
      done;
      !agree && Page_table.mapped_pages pt = Hashtbl.length model)

let prop_exec_roundtrip =
  QCheck.Test.make ~name:"exec: pack/parse identity" ~count:100
    QCheck.(
      quad (string_of_size (QCheck.Gen.int_range 0 500))
        (string_of_size (QCheck.Gen.int_range 0 100))
        small_nat int)
    (fun (text, data, bss, entry) ->
      let img =
        { Exec.entry = Int32.of_int entry; load_va = 0x400000l; text; data; bss_size = bss }
      in
      match Exec.parse (Exec.pack img) with
      | Ok p ->
          p.Exec.text = text && p.Exec.data = data && p.Exec.bss_size = bss
          && p.Exec.entry = Int32.of_int entry
      | Error _ -> false)

let suite =
  [ Alcotest.test_case "hard links" `Quick test_hard_links;
    Alcotest.test_case "tcp simultaneous open" `Quick test_simultaneous_open;
    Alcotest.test_case "medium-grained concurrency (4.7.4)" `Quick
      test_medium_grained_concurrency;
    QCheck_alcotest.to_alcotest prop_gdb_framing;
    QCheck_alcotest.to_alcotest prop_page_table_model;
    QCheck_alcotest.to_alcotest prop_exec_roundtrip ]
