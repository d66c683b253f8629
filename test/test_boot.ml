(* MultiBoot: info encode/decode through simulated RAM, the loader, chain
   loaders, boot-module FS, boot-time LMM population. *)

let make_machine () =
  let w = World.create () in
  Machine.create ~name:"boot-pc" w

let test_info_roundtrip () =
  let m = make_machine () in
  let ram = Machine.ram m in
  let info =
    { Multiboot.mem_lower_kb = 640;
      mem_upper_kb = 7168;
      cmdline = "kernel --flag=1 value";
      modules =
        [ { Multiboot.mod_start = 0x200000; mod_end = 0x200800; mod_string = "initrd" };
          { Multiboot.mod_start = 0x201000; mod_end = 0x209999; mod_string = "etc/config" } ];
      mmap =
        [ { Multiboot.mm_base = 0; mm_length = 640 * 1024; mm_available = true };
          { Multiboot.mm_base = 0x100000; mm_length = 7 * 1024 * 1024; mm_available = true };
          { Multiboot.mm_base = 0xf00000; mm_length = 0x100000; mm_available = false } ] }
  in
  let finish = Multiboot.encode ram info ~at:0x9000 in
  Alcotest.(check bool) "encoder bounded" true (finish > 0x9000 && finish < 0xa000);
  let decoded = Multiboot.decode ram ~at:0x9000 in
  Alcotest.(check string) "cmdline" info.Multiboot.cmdline decoded.Multiboot.cmdline;
  Alcotest.(check int) "mem_upper" 7168 decoded.Multiboot.mem_upper_kb;
  Alcotest.(check int) "modules" 2 (List.length decoded.Multiboot.modules);
  Alcotest.(check int) "mmap" 3 (List.length decoded.Multiboot.mmap);
  Alcotest.(check bool) "module fields" true
    (let m2 = List.nth decoded.Multiboot.modules 1 in
     m2.Multiboot.mod_start = 0x201000 && m2.Multiboot.mod_string = "etc/config")

let prop_info_roundtrip =
  QCheck.Test.make ~name:"multiboot: encode/decode identity" ~count:50
    QCheck.(
      pair (string_of_size (QCheck.Gen.int_range 0 60))
        (small_list (pair small_nat (string_of_size (QCheck.Gen.int_range 1 20)))))
    (fun (cmdline, mods) ->
      QCheck.assume
        (String.for_all (fun c -> c <> '\000') cmdline
        && List.for_all (fun (_, s) -> String.for_all (fun c -> c <> '\000') s) mods);
      let m = make_machine () in
      let ram = Machine.ram m in
      let modules =
        List.mapi
          (fun i (size, name) ->
            { Multiboot.mod_start = 0x100000 + (i * 0x1000);
              mod_end = 0x100000 + (i * 0x1000) + size;
              mod_string = name })
          mods
      in
      let info =
        { Multiboot.mem_lower_kb = 640; mem_upper_kb = 1024; cmdline; modules; mmap = [] }
      in
      ignore (Multiboot.encode ram info ~at:0x8000);
      let d = Multiboot.decode ram ~at:0x8000 in
      d.Multiboot.cmdline = cmdline
      && List.length d.Multiboot.modules = List.length modules
      && List.for_all2
           (fun a b ->
             a.Multiboot.mod_start = b.Multiboot.mod_start
             && a.Multiboot.mod_end = b.Multiboot.mod_end
             && a.Multiboot.mod_string = b.Multiboot.mod_string)
           d.Multiboot.modules modules)

let test_image_validation () =
  let img = Loader.make_image ~payload:"kernel text here" in
  Alcotest.(check bool) "valid image accepted" true (Loader.validate_image img = Ok ());
  let broken = Bytes.copy img in
  Bytes.set broken 8 '\x00';
  Alcotest.(check bool) "bad checksum rejected" true
    (match Loader.validate_image broken with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "garbage rejected" true
    (match Loader.validate_image (Bytes.make 100 'x') with Error _ -> true | Ok () -> false)

let test_load_places_everything () =
  let m = make_machine () in
  let image = Loader.make_image ~payload:(String.make 5000 'K') in
  let loaded =
    Loader.load m ~image ~cmdline:"root=hd0"
      ~modules:[ "mod-a", String.make 100 'A'; "mod-b", String.make 9000 'B' ]
  in
  Alcotest.(check int) "kernel at 1MB" 0x100000 loaded.Loader.kernel_start;
  (* The info structure written to RAM decodes to what load reported. *)
  let decoded = Multiboot.decode (Machine.ram m) ~at:loaded.Loader.info_addr in
  Alcotest.(check string) "cmdline via RAM" "root=hd0" decoded.Multiboot.cmdline;
  (match decoded.Multiboot.modules with
  | [ a; b ] ->
      Alcotest.(check int) "module A size" 100 (a.Multiboot.mod_end - a.Multiboot.mod_start);
      Alcotest.(check bool) "modules page aligned" true
        (a.Multiboot.mod_start land 0xfff = 0 && b.Multiboot.mod_start land 0xfff = 0);
      (* Module bytes really are in RAM. *)
      Alcotest.(check int) "module B content" (Char.code 'B')
        (Physmem.get8 (Machine.ram m) b.Multiboot.mod_start)
  | l -> Alcotest.failf "expected 2 modules, got %d" (List.length l));
  Alcotest.(check bool) "mmap covers RAM" true (decoded.Multiboot.mmap <> [])

let test_chain_loaders () =
  let m = make_machine () in
  let image = Loader.make_image ~payload:"inner kernel" in
  List.iter
    (fun (name, wrap) ->
      let wrapped = wrap image in
      let loaded = Loader.load_wrapped m ~image:wrapped ~cmdline:"" ~modules:[] in
      Alcotest.(check int) (name ^ " loads at 1MB") 0x100000 loaded.Loader.kernel_start)
    [ "bsd", Loader.wrap_bsd; "linux", Loader.wrap_linux; "dos", Loader.wrap_dos ]

let test_bootmod_fs () =
  let m = make_machine () in
  let image = Loader.make_image ~payload:"k" in
  let loaded =
    Loader.load m ~image ~cmdline:""
      ~modules:
        [ "boot/startup.img", "STARTUP-CONTENT"; "boot/conf", "x=1"; "motd", "welcome" ]
  in
  let root = Bootmod_fs.make (Machine.ram m) loaded.Loader.info in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  (* POSIX open/read over the boot modules, as ML/OS and Java/PC did. *)
  (match Posix.open_ env "/boot/startup.img" Posix.o_rdonly with
  | Ok fd ->
      let buf = Bytes.create 64 in
      (match Posix.read env fd buf ~pos:0 ~len:64 with
      | Ok n -> Alcotest.(check string) "module readable" "STARTUP-CONTENT"
                  (Bytes.sub_string buf 0 n)
      | Error e -> Alcotest.failf "read: %s" (Error.to_string e));
      ignore (Posix.close env fd)
  | Error e -> Alcotest.failf "open: %s" (Error.to_string e));
  (match Posix.readdir env "/boot" with
  | Ok names ->
      Alcotest.(check (list string)) "directory listing" [ "conf"; "startup.img" ]
        (List.sort compare names)
  | Error e -> Alcotest.failf "readdir: %s" (Error.to_string e));
  (* Read-only. *)
  (match Posix.unlink env "/motd" with
  | Error Error.Rofs -> ()
  | _ -> Alcotest.fail "boot module fs must be read-only");
  match Posix.stat env "/motd" with
  | Ok st -> Alcotest.(check int) "stat size" 7 st.Io_if.st_size
  | Error e -> Alcotest.failf "stat: %s" (Error.to_string e)

let test_bootmem_populate () =
  let m = make_machine () in
  let image = Loader.make_image ~payload:(String.make 4096 'K') in
  let loaded = Loader.load m ~image ~cmdline:"" ~modules:[ "m", String.make 4096 'M' ] in
  let lmm = Lmm.create () in
  let ram_bytes = Physmem.size (Machine.ram m) in
  Bootmem.populate lmm loaded ~ram_bytes;
  (* The kernel, info and module ranges must not be allocatable. *)
  let reserved_ok = ref true in
  Lmm.iter_free lmm (fun ~addr ~size ~flags:_ ->
      List.iter
        (fun (lo, hi) -> if addr < hi && lo < addr + size then reserved_ok := false)
        ((loaded.Loader.kernel_start, loaded.Loader.kernel_end)
        :: Multiboot.reserved_ranges loaded.Loader.info));
  Alcotest.(check bool) "no free overlap with kernel/modules" true !reserved_ok;
  (* But plenty of memory is available, including DMA-able. *)
  Alcotest.(check bool) "high memory available" true (Lmm.avail lmm ~flags:0 > 1024 * 1024);
  Alcotest.(check bool) "dma memory available" true
    (Lmm.avail lmm ~flags:Lmm.flag_low_16mb > 0)

let suite =
  [ Alcotest.test_case "info roundtrip" `Quick test_info_roundtrip;
    QCheck_alcotest.to_alcotest prop_info_roundtrip;
    Alcotest.test_case "image validation" `Quick test_image_validation;
    Alcotest.test_case "load places everything" `Quick test_load_places_everything;
    Alcotest.test_case "chain loaders" `Quick test_chain_loaders;
    Alcotest.test_case "boot-module fs" `Quick test_bootmod_fs;
    Alcotest.test_case "bootmem populate" `Quick test_bootmem_populate ]
