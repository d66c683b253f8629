(* The Linux FAT16 component: on-disk format, cluster chains, 8.3 names,
   interchangeability with the NetBSD component behind the POSIX layer,
   and two file systems from two donors on one partitioned disk. *)

let ok = Endpoint.ok

let with_fat f =
  let dev = Mem_blkio.make ~bytes:(1 * 1024 * 1024) () in
  let root = ok (Fat_glue.mkfs dev) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  f env root dev

let write_file env path content =
  let fd = ok (Posix.open_ env path (Posix.o_creat lor Posix.o_rdwr lor Posix.o_trunc)) in
  let b = Bytes.of_string content in
  let n = ok (Posix.write env fd b ~pos:0 ~len:(Bytes.length b)) in
  Alcotest.(check int) ("write " ^ path) (Bytes.length b) n;
  ok (Posix.close env fd)

let read_file env path =
  let fd = ok (Posix.open_ env path Posix.o_rdonly) in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec loop () =
    match ok (Posix.read env fd chunk ~pos:0 ~len:1024) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ();
  ok (Posix.close env fd);
  Buffer.contents buf

let test_roundtrip () =
  with_fat (fun env _ _ ->
      write_file env "/README.TXT" "fat sixteen";
      Alcotest.(check string) "read back" "fat sixteen" (read_file env "/README.TXT"))

let test_83_names () =
  with_fat (fun env _ _ ->
      write_file env "/data.bin" "x";
      (* 8.3 is case-insensitive via uppercasing. *)
      Alcotest.(check string) "case-insensitive lookup" "x" (read_file env "/DATA.BIN");
      Alcotest.(check (list string)) "stored uppercase" [ "DATA.BIN" ]
        (ok (Posix.readdir env "/"));
      match Posix.open_ env "/waytoolongname.txt" (Posix.o_creat lor Posix.o_rdwr) with
      | Error Error.Nametoolong -> ()
      | _ -> Alcotest.fail "8.3 limit not enforced")

let test_subdirs_and_growth () =
  with_fat (fun env _ _ ->
      ok (Posix.mkdir env "/sub");
      (* More files than one cluster of directory entries (2048/32 = 64). *)
      for i = 1 to 80 do
        write_file env (Printf.sprintf "/sub/F%d.DAT" i) (string_of_int i)
      done;
      Alcotest.(check int) "directory grew across clusters" 80
        (List.length (ok (Posix.readdir env "/sub")));
      Alcotest.(check string) "spot check" "42" (read_file env "/sub/F42.DAT"))

let test_multicluster_file () =
  with_fat (fun env _ _ ->
      (* 20 KB spans ten 2 KB clusters. *)
      let content = String.init 20_000 (fun i -> Char.chr ((i * 11) land 0xff)) in
      write_file env "/BIG.DAT" content;
      Alcotest.(check string) "content hash" (Digest.to_hex (Digest.string content))
        (Digest.to_hex (Digest.string (read_file env "/BIG.DAT"))))

let test_unlink_frees_clusters () =
  with_fat (fun env root dev ->
      ignore root;
      write_file env "/A.DAT" (String.make 40_000 'a');
      ok (Posix.unlink env "/A.DAT");
      (* All clusters must be reusable: fill the volume again. *)
      write_file env "/B.DAT" (String.make 40_000 'b');
      Alcotest.(check int) "reused space" 40_000 (String.length (read_file env "/B.DAT"));
      ignore dev)

let test_persistence_remount () =
  let dev = Mem_blkio.make ~bytes:(1 * 1024 * 1024) () in
  (let root = ok (Fat_glue.mkfs dev) in
   let env = Posix.create_env () in
   Posix.set_root env (Some root);
   write_file env "/KEEP.TXT" "still here");
  let root2 = ok (Fat_glue.mount dev) in
  let env2 = Posix.create_env () in
  Posix.set_root env2 (Some root2);
  Alcotest.(check string) "survived remount" "still here" (read_file env2 "/KEEP.TXT");
  (* Sanity: the boot sector magic is where DOS would look. *)
  let boot = Bytes.create 512 in
  ignore (ok (dev.Io_if.bio_read ~buf:boot ~pos:0 ~offset:0 ~amount:512));
  Alcotest.(check int) "0x55AA signature" 0xaa55 (Bytes.get_uint16_le boot 510)

let test_rename_and_xdev () =
  with_fat (fun env root _ ->
      write_file env "/OLD.TXT" "payload";
      ok (Posix.mkdir env "/DIR");
      (match ok (Posix.lookup env "/DIR") with
      | Io_if.Node_dir d -> (
          match root.Io_if.d_rename "OLD.TXT" d "NEW.TXT" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rename: %s" (Error.to_string e))
      | _ -> Alcotest.fail "not a dir");
      Alcotest.(check string) "moved" "payload" (read_file env "/DIR/NEW.TXT");
      (* Renaming into a NetBSD directory is cross-device. *)
      let other = ok (Fs_glue.newfs (Mem_blkio.make ~bytes:(1 lsl 20) ())) in
      write_file env "/X.TXT" "x";
      match root.Io_if.d_rename "X.TXT" other "Y" with
      | Error Error.Xdev -> ()
      | _ -> Alcotest.fail "cross-fs rename must EXDEV")

let test_two_donors_one_disk () =
  (* The paper's interchangeability claim, concretely: one disk, two
     partitions, a NetBSD FFS on one and a Linux FAT on the other, both
     reached through identical COM interfaces from one POSIX tree. *)
  let dev = Mem_blkio.make ~bytes:(4 * 1024 * 1024) () in
  ok (Diskpart.write_label dev [ 0xA5, 64, 3072; 0x06, 3136, 4096 ]);
  let parts = ok (Diskpart.read_partitions dev) in
  let p_ffs = List.nth parts 0 and p_fat = List.nth parts 1 in
  let ffs_root = ok (Fs_glue.newfs (Diskpart.partition_blkio dev p_ffs)) in
  let fat_root = ok (Fat_glue.mkfs (Diskpart.partition_blkio dev p_fat)) in
  let env = Posix.create_env () in
  Posix.set_root env (Some ffs_root);
  write_file env "/on-ffs" "bsd bytes";
  let env_fat = Posix.create_env () in
  Posix.set_root env_fat (Some fat_root);
  write_file env_fat "/ONFAT.TXT" "dos bytes";
  Alcotest.(check string) "ffs side" "bsd bytes" (read_file env "/on-ffs");
  Alcotest.(check string) "fat side" "dos bytes" (read_file env_fat "/ONFAT.TXT");
  (* Flush the FFS buffer cache before abandoning this mount (FAT writes
     through, FFS delays). *)
  ignore (Fs_glue.sync_all ffs_root);
  (* Remount both and cross-check isolation. *)
  let ffs2 = ok (Fs_glue.mount (Diskpart.partition_blkio dev p_ffs)) in
  let fat2 = ok (Fat_glue.mount (Diskpart.partition_blkio dev p_fat)) in
  let e1 = Posix.create_env () and e2 = Posix.create_env () in
  Posix.set_root e1 (Some ffs2);
  Posix.set_root e2 (Some fat2);
  Alcotest.(check string) "ffs after remount" "bsd bytes" (read_file e1 "/on-ffs");
  Alcotest.(check string) "fat after remount" "dos bytes" (read_file e2 "/ONFAT.TXT")

(* Model-based property over random FAT operations. *)
let prop_fat_model =
  QCheck.Test.make ~name:"fat: random ops agree with model" ~count:25
    QCheck.(
      list (triple (int_range 0 2) (int_range 0 4) (string_of_size (QCheck.Gen.int_range 0 150))))
    (fun ops ->
      let dev = Mem_blkio.make ~bytes:(512 * 1024) () in
      let t = Linux_fatfs.mkfs dev in
      let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let name i = Printf.sprintf "Q%d.DAT" i in
      List.iter
        (fun (action, idx, payload) ->
          let nm = name idx in
          match action with
          | 0 -> (
              (* create/overwrite *)
              try
                (match Linux_fatfs.dir_find t Linux_fatfs.Root nm with
                | Some e ->
                    Linux_fatfs.chain_free t e.Linux_fatfs.de_cluster;
                    Linux_fatfs.update_entry t Linux_fatfs.Root e ~cluster:0 ~size:0
                | None -> ignore (Linux_fatfs.create_file t Linux_fatfs.Root nm));
                let e = Option.get (Linux_fatfs.dir_find t Linux_fatfs.Root nm) in
                let head =
                  if payload = "" then 0
                  else
                    Linux_fatfs.file_write t ~head:e.Linux_fatfs.de_cluster ~off:0
                      ~len:(String.length payload) ~src:(Bytes.of_string payload) ~src_pos:0
                in
                Linux_fatfs.update_entry t Linux_fatfs.Root e ~cluster:head
                  ~size:(String.length payload);
                Hashtbl.replace model nm payload
              with Linux_fatfs.Fat_error _ -> ())
          | 1 -> (
              (* unlink *)
              try
                Linux_fatfs.remove t Linux_fatfs.Root nm ~want_dir:false;
                Hashtbl.remove model nm
              with Linux_fatfs.Fat_error _ -> ())
          | _ -> (
              (* append *)
              match Linux_fatfs.dir_find t Linux_fatfs.Root nm with
              | Some e when e.Linux_fatfs.de_attr land Linux_fatfs.attr_directory = 0 -> (
                  try
                    let head =
                      Linux_fatfs.file_write t ~head:e.Linux_fatfs.de_cluster
                        ~off:e.Linux_fatfs.de_size ~len:(String.length payload)
                        ~src:(Bytes.of_string payload) ~src_pos:0
                    in
                    Linux_fatfs.update_entry t Linux_fatfs.Root e ~cluster:head
                      ~size:(e.Linux_fatfs.de_size + String.length payload);
                    Hashtbl.replace model nm (Hashtbl.find model nm ^ payload)
                  with Linux_fatfs.Fat_error _ -> ())
              | Some _ | None -> ()))
        ops;
      Hashtbl.fold
        (fun nm expected acc ->
          acc
          &&
          match Linux_fatfs.dir_find t Linux_fatfs.Root nm with
          | None -> false
          | Some e ->
              let b = Bytes.create e.Linux_fatfs.de_size in
              let n =
                Linux_fatfs.file_read t ~head:e.Linux_fatfs.de_cluster
                  ~size:e.Linux_fatfs.de_size ~off:0 ~len:e.Linux_fatfs.de_size ~dst:b
                  ~dst_pos:0
              in
              n = String.length expected && Bytes.to_string b = expected)
        model true)

let suite =
  [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "8.3 names" `Quick test_83_names;
    Alcotest.test_case "subdirs + directory growth" `Quick test_subdirs_and_growth;
    Alcotest.test_case "multi-cluster file" `Quick test_multicluster_file;
    Alcotest.test_case "unlink frees clusters" `Quick test_unlink_frees_clusters;
    Alcotest.test_case "persistence + boot signature" `Quick test_persistence_remount;
    Alcotest.test_case "rename + EXDEV" `Quick test_rename_and_xdev;
    Alcotest.test_case "two donors, one disk" `Quick test_two_donors_one_disk;
    QCheck_alcotest.to_alcotest prop_fat_model ]
