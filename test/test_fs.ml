(* The NetBSD-derived file system: buffer cache behaviour, FFS operations
   through the COM interfaces and the POSIX layer, crash-free remount, a
   qcheck model test, and fsread/diskpart interop. *)

let ok = Endpoint.ok

let mem_dev ?(mb = 4) () = Mem_blkio.make ~bytes:(mb * 1024 * 1024) ()

(* [dev]'s blkio face alone, under an object that exports nothing else:
   the buffer cache finds no block-mapping face and reads the RAM disk by
   copying, as it reads a disk. *)
let copy_dev (dev : Io_if.blkio) =
  let rec view = lazy { dev with Io_if.bio_unknown = Lazy.force obj }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.blkio_iid, fun () -> Lazy.force view) ])) in
  Lazy.force view

let with_posix_fs f =
  let dev = mem_dev () in
  let root = ok (Fs_glue.newfs dev) in
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

let test_create_read_write () =
  with_posix_fs (fun env _ _ ->
      write_file env "/hello.txt" "hello file system";
      Alcotest.(check string) "read back" "hello file system" (read_file env "/hello.txt"))

let test_directories () =
  with_posix_fs (fun env _ _ ->
      ok (Posix.mkdir env "/a");
      ok (Posix.mkdir env "/a/b");
      write_file env "/a/b/deep.txt" "nested";
      Alcotest.(check string) "nested read" "nested" (read_file env "/a/b/deep.txt");
      Alcotest.(check (list string)) "ls /a" [ "b" ] (ok (Posix.readdir env "/a"));
      (match Posix.rmdir env "/a" with
      | Error Error.Notempty -> ()
      | _ -> Alcotest.fail "rmdir non-empty must fail");
      ok (Posix.unlink env "/a/b/deep.txt");
      ok (Posix.rmdir env "/a/b");
      ok (Posix.rmdir env "/a");
      Alcotest.(check (list string)) "root empty again" [] (ok (Posix.readdir env "/")))

let test_big_file_indirect () =
  with_posix_fs (fun env _ _ ->
      (* 300 KB crosses from direct (48 KB) well into the indirect block. *)
      let size = 300 * 1024 in
      let content = String.init size (fun i -> Char.chr ((i * 7) land 0xff)) in
      write_file env "/big" content;
      let back = read_file env "/big" in
      Alcotest.(check int) "size" size (String.length back);
      Alcotest.(check string) "content hash" (Digest.to_hex (Digest.string content))
        (Digest.to_hex (Digest.string back)))

let test_double_indirect () =
  with_posix_fs (fun env _ _ ->
      (* > 48KB + 4MB would exceed the device; use a sparse write instead:
         one byte far into the double-indirect range. *)
      let far = (12 + 1024 + 5) * 4096 + 17 in
      let fd = ok (Posix.open_ env "/sparse" (Posix.o_creat lor Posix.o_rdwr)) in
      let _ = ok (Posix.lseek env fd ~offset:far `Set) in
      let one = Bytes.of_string "Z" in
      let _ = ok (Posix.write env fd one ~pos:0 ~len:1) in
      let st = ok (Posix.fstat env fd) in
      Alcotest.(check int) "sparse size" (far + 1) st.Io_if.st_size;
      let _ = ok (Posix.lseek env fd ~offset:far `Set) in
      let buf = Bytes.create 1 in
      let _ = ok (Posix.read env fd buf ~pos:0 ~len:1) in
      Alcotest.(check string) "far byte" "Z" (Bytes.to_string buf);
      (* Holes read as zeros. *)
      let _ = ok (Posix.lseek env fd ~offset:4096 `Set) in
      let _ = ok (Posix.read env fd buf ~pos:0 ~len:1) in
      Alcotest.(check string) "hole reads zero" "\000" (Bytes.to_string buf);
      ok (Posix.close env fd))

let test_truncate_frees_blocks () =
  let dev = mem_dev () in
  let fs = Ffs.newfs dev in
  let root = Ffs.root fs in
  let node = Ffs.create_file fs root ~name:"t" in
  let free0 = Ffs.free_blocks fs in
  let data = Bytes.make (100 * 1024) 'T' in
  ignore (Ffs.write fs node ~off:0 ~len:(Bytes.length data) ~src:data ~src_pos:0);
  Alcotest.(check bool) "blocks consumed" true (Ffs.free_blocks fs < free0);
  Ffs.truncate fs node 0;
  Alcotest.(check int) "all blocks back" free0 (Ffs.free_blocks fs);
  Alcotest.(check int) "size zero" 0 node.Ffs.i_size

let test_unlink_frees () =
  let dev = mem_dev () in
  let fs = Ffs.newfs dev in
  let root = Ffs.root fs in
  let free0 = Ffs.free_blocks fs in
  let node = Ffs.create_file fs root ~name:"gone" in
  let data = Bytes.make 8192 'x' in
  ignore (Ffs.write fs node ~off:0 ~len:8192 ~src:data ~src_pos:0);
  Ffs.unlink fs root ~name:"gone";
  Alcotest.(check int) "space reclaimed" free0 (Ffs.free_blocks fs);
  Alcotest.(check bool) "name gone" true (Ffs.dir_lookup fs root "gone" = None)

let test_rename () =
  with_posix_fs (fun env root _ ->
      write_file env "/old" "payload";
      ok (Posix.mkdir env "/dir");
      (* Rename across directories through the COM interface. *)
      (match ok (Posix.lookup env "/dir") with
      | Io_if.Node_dir d ->
          (match root.Io_if.d_rename "old" d "new" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rename: %s" (Error.to_string e))
      | Io_if.Node_file _ -> Alcotest.fail "/dir is a file?");
      Alcotest.(check string) "content moved" "payload" (read_file env "/dir/new");
      match Posix.lookup env "/old" with
      | Error Error.Noent -> ()
      | _ -> Alcotest.fail "old name must be gone")

let test_persistence_across_remount () =
  let dev = mem_dev () in
  (let root = ok (Fs_glue.newfs dev) in
   let env = Posix.create_env () in
   Posix.set_root env (Some root);
   write_file env "/persist" "survives remount";
   ok (Posix.mkdir env "/d");
   write_file env "/d/inner" "inner data";
   ok (Fs_glue.sync_all root));
  (* Mount the same device afresh: everything must still be there. *)
  let root2 = ok (Fs_glue.mount dev) in
  let env2 = Posix.create_env () in
  Posix.set_root env2 (Some root2);
  Alcotest.(check string) "file survived" "survives remount" (read_file env2 "/persist");
  Alcotest.(check string) "nested survived" "inner data" (read_file env2 "/d/inner")

let test_errors () =
  with_posix_fs (fun env _ _ ->
      (match Posix.open_ env "/absent" Posix.o_rdonly with
      | Error Error.Noent -> ()
      | _ -> Alcotest.fail "ENOENT expected");
      write_file env "/f" "x";
      (match Posix.open_ env "/f/child" Posix.o_rdonly with
      | Error Error.Notdir -> ()
      | _ -> Alcotest.fail "ENOTDIR expected");
      (match Posix.mkdir env "/f" with
      | Error Error.Exist -> ()
      | _ -> Alcotest.fail "EEXIST expected");
      (match Posix.unlink env "/nope" with
      | Error Error.Noent -> ()
      | _ -> Alcotest.fail "unlink ENOENT expected");
      let long = String.make 100 'n' in
      match Posix.open_ env ("/" ^ long) (Posix.o_creat lor Posix.o_rdwr) with
      | Error Error.Nametoolong -> ()
      | _ -> Alcotest.fail "ENAMETOOLONG expected")

let test_buffer_cache () =
  let dev = mem_dev () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:4 dev in
  let b0 = Buf.bread bc 0 in
  Bytes.set b0.Buf.b_data 0 'A';
  Buf.bdwrite b0;
  Buf.brelse bc b0;
  (* Re-read hits the cache. *)
  let b0' = Buf.bread bc 0 in
  Alcotest.(check char) "cache hit sees dirty data" 'A' (Bytes.get b0'.Buf.b_data 0);
  Buf.brelse bc b0';
  let _, _, hits = Buf.stats bc in
  Alcotest.(check bool) "hit counted" true (hits >= 1);
  (* Touch enough blocks to force eviction of the dirty one. *)
  for i = 1 to 8 do
    Buf.brelse bc (Buf.bread bc i)
  done;
  (* The delayed write must have reached the device. *)
  let probe = Bytes.create 1 in
  ignore (dev.Io_if.bio_read ~buf:probe ~pos:0 ~offset:0 ~amount:1);
  Alcotest.(check string) "dirty block flushed on eviction" "A" (Bytes.to_string probe)

(* Model test: random file operations agree with a Hashtbl-backed model. *)
let prop_fs_model =
  QCheck.Test.make ~name:"ffs: random ops agree with model" ~count:30
    QCheck.(
      list
        (triple (int_range 0 3) (int_range 0 5) (string_of_size (QCheck.Gen.int_range 0 300))))
    (fun ops ->
      let dev = mem_dev ~mb:2 () in
      let fs = Ffs.newfs dev in
      let root = Ffs.root fs in
      let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let name i = "f" ^ string_of_int i in
      List.iter
        (fun (action, idx, payload) ->
          let nm = name idx in
          match action with
          | 0 ->
              (* create/overwrite *)
              (try
                 let node =
                   match Ffs.dir_lookup fs root nm with
                   | Some (_, ino) -> Ffs.iget fs ino
                   | None -> Ffs.create_file fs root ~name:nm
                 in
                 Ffs.truncate fs node 0;
                 ignore
                   (Ffs.write fs node ~off:0 ~len:(String.length payload)
                      ~src:(Bytes.of_string payload) ~src_pos:0);
                 Hashtbl.replace model nm payload
               with Ffs.Fs_error _ -> ())
          | 1 ->
              (* append *)
              (match Ffs.dir_lookup fs root nm with
              | Some (_, ino) ->
                  let node = Ffs.iget fs ino in
                  if node.Ffs.i_kind = Ffs.K_file then begin
                    ignore
                      (Ffs.write fs node ~off:node.Ffs.i_size ~len:(String.length payload)
                         ~src:(Bytes.of_string payload) ~src_pos:0);
                    Hashtbl.replace model nm (Hashtbl.find model nm ^ payload)
                  end
              | None -> ())
          | 2 ->
              (* unlink *)
              (try
                 Ffs.unlink fs root ~name:nm;
                 Hashtbl.remove model nm
               with Ffs.Fs_error _ -> ())
          | _ ->
              (* truncate to half *)
              (match Ffs.dir_lookup fs root nm with
              | Some (_, ino) ->
                  let node = Ffs.iget fs ino in
                  if node.Ffs.i_kind = Ffs.K_file then begin
                    let half = node.Ffs.i_size / 2 in
                    Ffs.truncate fs node half;
                    (match Hashtbl.find_opt model nm with
                    | Some s -> Hashtbl.replace model nm (String.sub s 0 half)
                    | None -> ())
                  end
              | None -> ()))
        ops;
      (* Verify every model file matches. *)
      Hashtbl.fold
        (fun nm expected acc ->
          acc
          &&
          match Ffs.dir_lookup fs root nm with
          | None -> false
          | Some (_, ino) ->
              let node = Ffs.iget fs ino in
              let got =
                Bytes.create node.Ffs.i_size |> fun b ->
                ignore (Ffs.read fs node ~off:0 ~len:node.Ffs.i_size ~dst:b ~dst_pos:0);
                Bytes.to_string b
              in
              String.equal got expected)
        model true
      && List.sort compare (Ffs.dir_entries fs root)
         = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []))

(* ---- device I/O as ffs_read and ffs_write do it ---- *)

(* Every test below runs on a cache of eight buffers. *)
let small_bufs = 8

let pattern ~seed n = Bytes.init n (fun i -> Char.chr (((i * 31) + (i / 4096) + seed) land 0xff))
let io fs = Buf.cache_stats fs.Ffs.bc

let read_all fs node =
  let b = Bytes.create node.Ffs.i_size in
  Bytes.sub b 0 (Ffs.read fs node ~off:0 ~len:node.Ffs.i_size ~dst:b ~dst_pos:0)

(* The bytes the sendfile mapping of [off, off+len) loans, its pins
   released; [None] when the mapping refuses a hole. *)
let map_bytes fs node ~off ~len =
  Option.map
    (fun frags ->
      let b =
        Bytes.concat Bytes.empty
          (List.map (fun fr -> Bytes.sub fr.Io_if.fr_data fr.Io_if.fr_off fr.Io_if.fr_len) frags)
      in
      Io_if.frags_release frags;
      b)
    (Ffs.map_blocks fs node ~off ~len)

(* [name] written with [content] on [dev] and synced, then the device
   mounted afresh: the file's blocks are cold in the new cache. *)
let cold_file ~dev ~name content =
  let fs = Ffs.newfs ~max_bufs:small_bufs dev in
  let node = Ffs.create_file fs (Ffs.root fs) ~name in
  ignore (Ffs.write fs node ~off:0 ~len:(Bytes.length content) ~src:content ~src_pos:0);
  Ffs.sync fs;
  let fs = Ffs.mount ~max_bufs:small_bufs dev in
  match Ffs.dir_lookup fs (Ffs.root fs) name with
  | Some (_, ino) -> dev, fs, Ffs.iget fs ino
  | None -> Alcotest.fail "file lost across the remount"

(* A 5,000-byte file is one whole block and 904 bytes of the second, which
   a read fetches as far as its second fragment: through [read] and
   through the sendfile mapping alike.  This and the next three tests pin
   the copy path, on a RAM disk that does not map its blocks. *)
let test_cold_read_is_short () =
  let content = pattern ~seed:1 5000 in
  let _, fs, node = cold_file ~dev:(copy_dev (mem_dev ())) ~name:"small" content in
  let before = io fs in
  Alcotest.(check bool) "bytes exact" true (Bytes.equal content (read_all fs node));
  let after = io fs in
  Alcotest.(check int) "device bytes read" (4096 + 1024)
    (after.Buf.cs_read_bytes - before.Buf.cs_read_bytes);
  Alcotest.(check int) "device reads" 2 (after.Buf.cs_reads - before.Buf.cs_reads);
  let _, fs, node = cold_file ~dev:(copy_dev (mem_dev ())) ~name:"small" content in
  let before = io fs in
  Alcotest.(check (option bool)) "mapped bytes exact" (Some true)
    (Option.map (Bytes.equal content) (map_bytes fs node ~off:0 ~len:max_int));
  Alcotest.(check int) "device bytes mapped" (4096 + 1024)
    ((io fs).Buf.cs_read_bytes - before.Buf.cs_read_bytes)

(* Past the twelve direct blocks there are no fragments: a 60,000-byte
   file's last block, block 14, holds 2,656 bytes and is read whole, as
   is the indirect block that maps it. *)
let test_indirect_tail_read_whole () =
  let content = pattern ~seed:2 60_000 in
  let _, fs, node = cold_file ~dev:(copy_dev (mem_dev ())) ~name:"big" content in
  let before = io fs in
  let b = Bytes.create (60_000 - (14 * 4096)) in
  ignore (Ffs.read fs node ~off:(14 * 4096) ~len:(Bytes.length b) ~dst:b ~dst_pos:0);
  Alcotest.(check bool) "bytes exact" true
    (Bytes.equal b (Bytes.sub content (14 * 4096) (Bytes.length b)));
  Alcotest.(check int) "indirect block + block 14, both whole" (2 * 4096)
    ((io fs).Buf.cs_read_bytes - before.Buf.cs_read_bytes)

(* A write into a block that was read short reads the rest of the block
   first (and only the rest), and the block's old bytes survive it: in the
   cache, and on the device after a sync. *)
let test_append_fetches_rest () =
  let content = pattern ~seed:3 5000 in
  let dev, fs, node = cold_file ~dev:(copy_dev (mem_dev ())) ~name:"grow" content in
  ignore (read_all fs node);
  let tail = pattern ~seed:4 500 in
  let before = io fs in
  ignore (Ffs.write fs node ~off:5000 ~len:500 ~src:tail ~src_pos:0);
  let after = io fs in
  Alcotest.(check int) "the rest of the short block, one read" 3072
    (after.Buf.cs_read_bytes - before.Buf.cs_read_bytes);
  Alcotest.(check int) "one device read" 1 (after.Buf.cs_reads - before.Buf.cs_reads);
  let want = Bytes.cat content tail in
  Alcotest.(check bool) "bytes exact" true (Bytes.equal want (read_all fs node));
  Ffs.sync fs;
  let fs = Ffs.mount ~max_bufs:small_bufs dev in
  match Ffs.dir_lookup fs (Ffs.root fs) "grow" with
  | Some (_, ino) ->
      Alcotest.(check bool) "bytes exact after remount" true
        (Bytes.equal want (read_all fs (Ffs.iget fs ino)))
  | None -> Alcotest.fail "file lost across the remount"

(* A write that reaches the end of a block puts the block on the device at
   once — in one write or in two — while a partial tail block stays a
   delayed write until the sync. *)
let test_filled_block_written_at_once () =
  let dev = mem_dev () in
  let fs = Ffs.newfs ~max_bufs:small_bufs dev in
  let node = Ffs.create_file fs (Ffs.root fs) ~name:"w" in
  let content = pattern ~seed:5 ((2 * 4096) + 100) in
  let write off len = ignore (Ffs.write fs node ~off ~len ~src:content ~src_pos:off) in
  (* Whether the device holds the first [n] bytes written to block [fblk]. *)
  let on_device fblk n =
    let got = Bytes.create n in
    ignore (dev.Io_if.bio_read ~buf:got ~pos:0 ~offset:(node.Ffs.i_direct.(fblk) * 4096) ~amount:n);
    Bytes.equal got (Bytes.sub content (fblk * 4096) n)
  in
  let resident fblk = Hashtbl.mem fs.Ffs.bc.Buf.cache node.Ffs.i_direct.(fblk) in
  write 0 4096;
  write 4096 3000;
  Alcotest.(check bool) "block 0, filled by one write, on the device" true (on_device 0 4096);
  Alcotest.(check bool) "block 1, 3,000 bytes of it, not yet" false (on_device 1 3000);
  write 7096 1096;
  Alcotest.(check bool) "block 1, filled by a second write, on the device" true
    (on_device 1 4096);
  write 8192 100;
  Alcotest.(check bool) "block 2, a partial tail, not yet" false (on_device 2 100);
  Alcotest.(check (list bool)) "still cached: no eviction pushed them" [ true; true; true ]
    (List.map resident [ 0; 1; 2 ]);
  Ffs.sync fs;
  Alcotest.(check bool) "block 2 after the sync" true (on_device 2 100)

(* The cache's counters: bytes through the device each way, and the most
   buffers resident at once, which pins can push past the cache's size. *)
let test_cache_counters () =
  let dev = copy_dev (mem_dev ~mb:1 ()) in
  let bc = Buf.create ~bsize:4096 ~max_bufs:2 dev in
  let w = Buf.getblk_nofill bc 5 in
  Buf.bwrite bc w;
  Buf.brelse bc w;
  let r = Buf.bread_ro bc 6 ~size:1536 in
  Buf.brelse bc r;
  let pinned = List.init 3 (fun i -> Buf.bread bc (10 + i)) in
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "bytes written" 4096 s.Buf.cs_written_bytes;
  Alcotest.(check int) "bytes read" (1536 + (3 * 4096)) s.Buf.cs_read_bytes;
  Alcotest.(check int) "peak: three held buffers past a cache of two" 3 s.Buf.cs_peak;
  List.iter (Buf.brelse bc) pinned;
  Buf.brelse bc (Buf.bread bc 20);
  Alcotest.(check int) "the peak stays a peak" 3 (Buf.cache_stats bc).Buf.cs_peak

(* The same cold 5,000-byte file on a RAM disk that maps its blocks: both
   blocks are mapped whole, so the device is not read at all, and the only
   bytes copied are the ones the read hands its caller. *)
let test_cold_read_is_mapped () =
  let content = pattern ~seed:1 5000 in
  let _, fs, node = cold_file ~dev:(mem_dev ()) ~name:"small" content in
  let m = Machine.create ~name:"fs-pc" (World.create ()) in
  let user = Machine.create ~name:"user-pc" (World.create ()) in
  let before = io fs in
  Cost.reset_counters ();
  let got = Machine.run_in m (fun () -> read_all fs node) in
  let after = io fs in
  Alcotest.(check bool) "bytes exact" true (Bytes.equal content got);
  Alcotest.(check int) "device reads" 0 (after.Buf.cs_reads - before.Buf.cs_reads);
  Alcotest.(check int) "device bytes read" 0 (after.Buf.cs_read_bytes - before.Buf.cs_read_bytes);
  Alcotest.(check int) "one mapping per block read" 2 (after.Buf.cs_maps - before.Buf.cs_maps);
  Alcotest.(check int) "misses, all mapped" 2 (after.Buf.cs_misses - before.Buf.cs_misses);
  Alcotest.(check int) "bytes copied: the caller's" 5000 Cost.counters.Cost.copied_bytes;
  Machine.run_in user (fun () -> Cost.charge_copy 5000);
  Alcotest.(check int) "copy column: the caller's copy alone" (Machine.ledger user Cost.Copy)
    (Machine.ledger m Cost.Copy);
  Cost.reset_counters ()

(* Allocating a block scans the block bitmap from bit 0, but reads each
   bitmap block once per scan: the buffer-cache lookups that add one block
   to a file do not grow with the blocks already allocated. *)
let test_balloc_lookups_flat () =
  let fs = Ffs.newfs (mem_dev ()) in
  let block = Bytes.make Ffs.bsize 'b' in
  let append node =
    ignore (Ffs.write fs node ~off:node.Ffs.i_size ~len:Ffs.bsize ~src:block ~src_pos:0)
  in
  let lookups_to_append node =
    let before = io fs in
    append node;
    let after = io fs in
    after.Buf.cs_hits + after.Buf.cs_misses - before.Buf.cs_hits - before.Buf.cs_misses
  in
  let probe = Ffs.create_file fs (Ffs.root fs) ~name:"probe" in
  append probe;
  let early = lookups_to_append probe in
  let filler = Ffs.create_file fs (Ffs.root fs) ~name:"filler" in
  for _ = 1 to 300 do
    append filler
  done;
  Alcotest.(check bool) "the filler took 300 blocks and more" true
    (Ffs.free_blocks fs < 1024 - 300);
  Alcotest.(check int) "lookups to add a block, 300 blocks later" early (lookups_to_append probe)

(* Conservation: references can hold the cache past [max_bufs], and once
   the last is released it is back within [max_bufs]. *)
let test_cache_shrinks_back () =
  let bc = Buf.create ~bsize:4096 ~max_bufs:4 (mem_dev ~mb:1 ()) in
  let pinned =
    List.init 7 (fun i ->
        let b = Buf.bread_loan bc (10 + i) ~size:4096 in
        Buf.pin_held bc b;
        b)
  in
  let held = Buf.bread bc 30 in
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "eight held buffers past a cache of four" 8 s.Buf.cs_cached;
  Alcotest.(check int) "seven of them mapped" 7 s.Buf.cs_maps;
  List.iter (Buf.unpin bc) pinned;
  Buf.brelse bc held;
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "every pin released" 0 s.Buf.cs_pinned;
  Alcotest.(check bool)
    (Printf.sprintf "%d cached, within max_bufs" s.Buf.cs_cached)
    true (s.Buf.cs_cached <= 4);
  Buf.brelse bc (Buf.bread bc 40);
  Alcotest.(check bool) "and after the next fault-in" true
    ((Buf.cache_stats bc).Buf.cs_cached <= 4)

(* Random write/append/truncate/read/map sequences over three files
   against an in-memory model, on an eight-buffer cache over a fresh
   [dev ()], so blocks are read short (or mapped), evicted dirty and
   faulted back in: every read and every mapping
   returns the model's bytes, a mapping is refused exactly when its range
   crosses a block no write has allocated, and after a sync a fresh mount
   of the device reads every file as the model holds it.  Offsets reach
   past the twelve direct blocks; a write of no bytes changes nothing. *)
type io_op =
  | Write of int * int * int * int (* file, offset, length, seed *)
  | Append of int * int * int
  | Trunc of int * int
  | Read of int * int * int
  | Map of int * int * int

let io_op_print = function
  | Write (f, off, len, seed) -> Printf.sprintf "write %d @%d +%d #%d" f off len seed
  | Append (f, len, seed) -> Printf.sprintf "append %d +%d #%d" f len seed
  | Trunc (f, size) -> Printf.sprintf "truncate %d %d" f size
  | Read (f, off, len) -> Printf.sprintf "read %d @%d +%d" f off len
  | Map (f, off, len) -> Printf.sprintf "map %d @%d +%d" f off len

let io_op_gen =
  let open QCheck.Gen in
  let file = int_bound 2 and off = int_bound 60_000 in
  let len = frequency [ 1, return 0; 15, int_bound 9_000 ] in
  frequency
    [ 4, map (fun (f, (o, l, s)) -> Write (f, o, l, s)) (pair file (triple off len nat));
      3, map (fun (f, l, s) -> Append (f, l, s)) (triple file len nat);
      3, map2 (fun f n -> Trunc (f, n)) file (frequency [ 1, return 0; 2, int_bound 64_000 ]);
      3, map (fun (f, o, l) -> Read (f, o, l)) (triple file off (int_bound 20_000));
      3, map (fun (f, o, l) -> Map (f, o, l)) (triple file off (int_bound 20_000)) ]

(* The model of one file: its bytes, and which of its blocks hold data. *)
type model_file = { mutable data : Bytes.t; blocks : (int, unit) Hashtbl.t }

let prop_io_model ~name dev =
  QCheck.Test.make ~name ~count:200
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map io_op_print ops))
       QCheck.Gen.(list_size (int_range 1 30) io_op_gen))
    (fun ops ->
      let bsize = Ffs.bsize in
      let dev = dev () in
      let fs = Ffs.newfs ~max_bufs:small_bufs dev in
      let name f = "f" ^ string_of_int f in
      let files = Array.init 3 (fun f -> Ffs.create_file fs (Ffs.root fs) ~name:(name f)) in
      let model = Array.init 3 (fun _ -> { data = Bytes.empty; blocks = Hashtbl.create 16 }) in
      let resize m size =
        let n = Bytes.length m.data in
        m.data <-
          (if size <= n then Bytes.sub m.data 0 size
           else Bytes.cat m.data (Bytes.make (size - n) '\000'));
        Hashtbl.filter_map_inplace (fun b () -> if b * bsize < size then Some () else None) m.blocks
      in
      let write f off len seed =
        let src = pattern ~seed len in
        ignore (Ffs.write fs files.(f) ~off ~len ~src ~src_pos:0);
        let m = model.(f) in
        if len > 0 then begin
          if off + len > Bytes.length m.data then resize m (off + len);
          Bytes.blit src 0 m.data off len;
          for b = off / bsize to (off + len - 1) / bsize do
            Hashtbl.replace m.blocks b ()
          done
        end
      in
      let expect f off len =
        let m = model.(f) in
        if off >= Bytes.length m.data then Bytes.empty
        else Bytes.sub m.data off (min len (Bytes.length m.data - off))
      in
      let step = function
        | Write (f, off, len, seed) ->
            write f off len seed;
            true
        | Append (f, len, seed) ->
            write f (Bytes.length model.(f).data) len seed;
            true
        | Trunc (f, size) ->
            Ffs.truncate fs files.(f) size;
            resize model.(f) size;
            true
        | Read (f, off, len) ->
            let dst = Bytes.create len in
            let n = Ffs.read fs files.(f) ~off ~len ~dst ~dst_pos:0 in
            Bytes.equal (Bytes.sub dst 0 n) (expect f off len)
        | Map (f, off, len) -> (
            let want = expect f off len in
            let hole =
              let first = off / bsize and last = (off + Bytes.length want - 1) / bsize in
              Bytes.length want > 0
              && List.exists
                   (fun b -> not (Hashtbl.mem model.(f).blocks b))
                   (List.init (last - first + 1) (( + ) first))
            in
            match map_bytes fs files.(f) ~off ~len with
            | None -> hole
            | Some got -> (not hole) && Bytes.equal got want)
      in
      let whole fs node = Bytes.equal (read_all fs node) in
      List.for_all step ops
      && Array.for_all2 (fun node m -> whole fs node m.data) files model
      && begin
           Ffs.sync fs;
           let fs = Ffs.mount ~max_bufs:small_bufs dev in
           Array.for_all
             (fun f ->
               match Ffs.dir_lookup fs (Ffs.root fs) (name f) with
               | Some (_, ino) -> whole fs (Ffs.iget fs ino) model.(f).data
               | None -> false)
             [| 0; 1; 2 |]
         end)

(* Over a RAM disk read by copying, and over one that maps its blocks,
   whose reads are never short. *)
let prop_short_reads_model =
  prop_io_model ~name:"ffs: short reads + write-at-fill == model" (fun () ->
      copy_dev (mem_dev ~mb:2 ()))

let prop_mapped_reads_model =
  prop_io_model ~name:"ffs: mapped reads + write-at-fill == model" (fun () -> mem_dev ~mb:2 ())

(* ---- fsread + diskpart over the same image ---- *)

let test_fsread_sees_ffs () =
  let dev = mem_dev () in
  let root = ok (Fs_glue.newfs dev) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  ok (Posix.mkdir env "/boot");
  write_file env "/boot/kernel" "KERNEL-IMAGE-BYTES";
  ok (Fs_glue.sync_all root);
  (* The independent read-only interpreter reads the same device. *)
  Alcotest.(check string) "fsread reads the file" "KERNEL-IMAGE-BYTES"
    (Bytes.to_string (ok (Fsread.read_file dev "/boot/kernel")));
  Alcotest.(check int) "fsread size" 18 (ok (Fsread.file_size dev "/boot/kernel"));
  Alcotest.(check (list string)) "fsread list" [ "kernel" ] (ok (Fsread.list_dir dev "/boot"))

let test_diskpart_and_fs () =
  let dev = mem_dev ~mb:8 () in
  (* Two partitions: 1MB..3MB and 3MB..8MB (in sectors). *)
  ok (Diskpart.write_label dev [ 0xA5, 2048, 4096; 0x83, 6144, 10240 ]);
  let parts = ok (Diskpart.read_partitions dev) in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  let p1 = List.nth parts 0 and p2 = List.nth parts 1 in
  Alcotest.(check int) "types" 0xA5 p1.Diskpart.p_type;
  Alcotest.(check bool) "active flag" true p1.Diskpart.p_active;
  (* File system on the second partition; first partition untouched. *)
  let sub2 = Diskpart.partition_blkio dev p2 in
  let root = ok (Fs_glue.newfs sub2) in
  let env = Posix.create_env () in
  Posix.set_root env (Some root);
  write_file env "/on-p2" "partitioned";
  ok (Fs_glue.sync_all root);
  Alcotest.(check string) "readable via partition view" "partitioned"
    (Bytes.to_string (ok (Fsread.read_file (Diskpart.partition_blkio dev p2) "/on-p2")));
  (* The MBR must still be intact (the sub-blkio rebases offsets). *)
  let parts' = ok (Diskpart.read_partitions dev) in
  Alcotest.(check int) "label survived" 2 (List.length parts')

(* The name cache against the linear scan: random creates, removes,
   renames (within and across directories, over existing names),
   mkdirs and rmdirs over a pool of four names, so freed inode numbers are
   reused by later files and directories.  After every operation each live
   directory answers every pool name, "." and ".." through [dir_lookup]
   (which fills the cache the next operations must purge) exactly as a
   scan with no cache does, and a create or mkdir of a name the scan does
   not find succeeds (a stale entry would refuse it as existing). *)
type ncache_op =
  | Create of int * int
  | Remove of int * int
  | Mkdir of int * int
  | Rmdir of int * int
  | Rename of (int * int) * (int * int)

let ncache_pool = [| "a"; "b"; "c"; "d" |]

let ncache_op_print =
  let dn (d, n) = Printf.sprintf "dir%d/%s" d ncache_pool.(n) in
  function
  | Create (d, n) -> "create " ^ dn (d, n)
  | Remove (d, n) -> "remove " ^ dn (d, n)
  | Mkdir (d, n) -> "mkdir " ^ dn (d, n)
  | Rmdir (d, n) -> "rmdir " ^ dn (d, n)
  | Rename (a, b) -> Printf.sprintf "rename %s %s" (dn a) (dn b)

let ncache_op_gen =
  let open QCheck.Gen in
  let dn = pair (int_bound 7) (int_bound (Array.length ncache_pool - 1)) in
  frequency
    [ 3, map (fun x -> Create (fst x, snd x)) dn;
      2, map (fun x -> Remove (fst x, snd x)) dn;
      2, map (fun x -> Mkdir (fst x, snd x)) dn;
      2, map (fun x -> Rmdir (fst x, snd x)) dn;
      3, map2 (fun a b -> Rename (a, b)) dn dn ]

(* Every directory reachable from the root, in a fixed order. *)
let live_dirs fs =
  let seen = Hashtbl.create 8 in
  let rec walk acc (node : Ffs.inode) =
    if Hashtbl.mem seen node.Ffs.ino then acc
    else begin
      Hashtbl.replace seen node.Ffs.ino ();
      List.fold_left
        (fun acc name ->
          match Ffs.dir_scan fs node name with
          | Some (_, ino) ->
              let child = Ffs.iget fs ino in
              if child.Ffs.i_kind = Ffs.K_dir then walk acc child else acc
          | None -> acc)
        (node :: acc) (Ffs.dir_entries fs node)
    end
  in
  List.rev (walk [] (Ffs.root fs))

let prop_name_cache =
  QCheck.Test.make ~name:"ffs: name cache lookups == linear scan" ~count:200
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map ncache_op_print ops))
       QCheck.Gen.(list_size (int_range 1 40) ncache_op_gen))
    (fun ops ->
      let fs = Ffs.newfs (mem_dev ~mb:1 ()) in
      let agrees () =
        List.for_all
          (fun dir ->
            List.for_all
              (fun name -> Ffs.dir_lookup fs dir name = Ffs.dir_scan fs dir name)
              ("." :: ".." :: Array.to_list ncache_pool))
          (live_dirs fs)
      in
      let dir d =
        let dirs = Array.of_list (live_dirs fs) in
        dirs.(d mod Array.length dirs)
      in
      let name n = ncache_pool.(n) in
      let fresh d n = Ffs.dir_scan fs (dir d) (name n) = None in
      List.for_all
        (fun op ->
          let must_succeed =
            match op with Create (d, n) | Mkdir (d, n) -> fresh d n | _ -> false
          in
          let succeeded =
            try
              (match op with
              | Create (d, n) -> ignore (Ffs.create_file fs (dir d) ~name:(name n))
              | Remove (d, n) -> Ffs.unlink fs (dir d) ~name:(name n)
              | Mkdir (d, n) -> ignore (Ffs.make_dir fs (dir d) ~name:(name n))
              | Rmdir (d, n) -> Ffs.remove_dir fs (dir d) ~name:(name n)
              | Rename ((d, n), (d', n')) ->
                  Ffs.rename fs (dir d) ~src_name:(name n) (dir d') ~dst_name:(name n'));
              true
            with Ffs.Fs_error _ -> false
          in
          (succeeded || not must_succeed) && agrees ())
        ops)

let suite =
  [ Alcotest.test_case "create/read/write" `Quick test_create_read_write;
    Alcotest.test_case "directories" `Quick test_directories;
    Alcotest.test_case "big file (indirect)" `Quick test_big_file_indirect;
    Alcotest.test_case "sparse + double indirect" `Quick test_double_indirect;
    Alcotest.test_case "truncate frees blocks" `Quick test_truncate_frees_blocks;
    Alcotest.test_case "unlink frees" `Quick test_unlink_frees;
    Alcotest.test_case "rename across dirs" `Quick test_rename;
    Alcotest.test_case "persistence across remount" `Quick test_persistence_across_remount;
    Alcotest.test_case "error paths" `Quick test_errors;
    Alcotest.test_case "buffer cache" `Quick test_buffer_cache;
    QCheck_alcotest.to_alcotest prop_fs_model;
    QCheck_alcotest.to_alcotest prop_name_cache;
    Alcotest.test_case "cold 5,000-byte file reads 5,120 B" `Quick test_cold_read_is_short;
    Alcotest.test_case "indirect tail block is read whole" `Quick test_indirect_tail_read_whole;
    Alcotest.test_case "write into a short block reads rest" `Quick test_append_fetches_rest;
    Alcotest.test_case "filled block is written at once" `Quick test_filled_block_written_at_once;
    Alcotest.test_case "cache counts bytes and peak buffers" `Quick test_cache_counters;
    Alcotest.test_case "cold read of a mapping RAM disk" `Quick test_cold_read_is_mapped;
    Alcotest.test_case "cache shrinks back to max_bufs" `Quick test_cache_shrinks_back;
    QCheck_alcotest.to_alcotest prop_short_reads_model;
    QCheck_alcotest.to_alcotest prop_mapped_reads_model;
    Alcotest.test_case "fsread over ffs image" `Quick test_fsread_sees_ffs;
    Alcotest.test_case "diskpart + fs + fsread" `Quick test_diskpart_and_fs;
    Alcotest.test_case "balloc: lookups flat in blocks used" `Quick test_balloc_lookups_flat ]
