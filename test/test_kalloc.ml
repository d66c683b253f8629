(* The size-class allocator over the LMM (§6.2.10 layering, and §4.7.7's
   BSD kernel-malloc properties), plus the shared-mbuf mutation guards and
   pool-recycling behaviour that ride on it: qcheck invariants, Memdebug
   layering, checksum parity across pooled chain boundaries. *)

let make_lmm ?(bytes = 1 lsl 20) () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:bytes ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:bytes;
  lmm

let test_basics () =
  let lmm = make_lmm () in
  let k = Kalloc.create lmm in
  let a = Option.get (Kalloc.alloc k ~size:100) in
  Alcotest.(check (option int)) "100B rounds to the 128B class" (Some 128)
    (Kalloc.usable_size k a);
  Alcotest.(check int) "one live block" 1 (Kalloc.live_blocks k);
  let b = Option.get (Kalloc.alloc k ~size:100) in
  Alcotest.(check bool) "distinct blocks" true (a <> b);
  Alcotest.(check bool) "no overlap" true (abs (a - b) >= 128);
  Kalloc.free k a;
  Kalloc.free k b;
  Alcotest.(check int) "all returned" 0 (Kalloc.live_blocks k);
  (* Large requests fall through to the LMM and are still freeable by
     address alone. *)
  let big = Option.get (Kalloc.alloc k ~size:10_000) in
  Alcotest.(check (option int)) "large tracked exactly" (Some 10_000)
    (Kalloc.usable_size k big);
  Kalloc.free k big

let test_hit_miss_stats () =
  let k = Kalloc.create (make_lmm ()) in
  let st = Kalloc.stats k 7 (* 128B class *) in
  let a = Option.get (Kalloc.alloc k ~size:128) in
  Alcotest.(check int) "first alloc is a miss" 1 st.Kalloc.misses;
  Alcotest.(check int) "one refill" 1 st.Kalloc.refills;
  let b = Option.get (Kalloc.alloc k ~size:128) in
  Alcotest.(check int) "second alloc hits the freelist" 1 st.Kalloc.hits;
  Kalloc.free k a;
  Kalloc.free k b;
  (* One empty slab stays cached (hysteresis): a tight loop at the slab
     boundary must not thrash the LMM. *)
  Alcotest.(check int) "no release while it is the only slab" 0 st.Kalloc.releases;
  Alcotest.(check int) "slab retained" 1 (Kalloc.slabs_held k);
  let c = Option.get (Kalloc.alloc k ~size:128) in
  Alcotest.(check int) "cached slab serves the next alloc" 2 st.Kalloc.hits;
  Kalloc.free k c

let test_release_restores_lmm () =
  let lmm = make_lmm () in
  let before = Lmm.avail lmm ~flags:0 in
  let k = Kalloc.create lmm in
  let addrs = List.init 200 (fun _ -> Option.get (Kalloc.alloc k ~size:64)) in
  Alcotest.(check bool) "slabs taken from the LMM" true
    (Lmm.avail lmm ~flags:0 < before);
  List.iter (Kalloc.free k) addrs;
  Kalloc.reap k;
  Alcotest.(check int) "reap hands every slab back" 0 (Kalloc.slabs_held k);
  Alcotest.(check int) "LMM availability fully restored" before (Lmm.avail lmm ~flags:0)

let test_free_validation () =
  let k = Kalloc.create (make_lmm ()) in
  let a = Option.get (Kalloc.alloc k ~size:32) in
  Alcotest.check_raises "misaligned free rejected"
    (Invalid_argument "Kalloc.free: misaligned for its size class") (fun () ->
      Kalloc.free k (a + 3));
  Kalloc.free k a;
  Alcotest.check_raises "double free detected"
    (Invalid_argument "Kalloc.free: double free") (fun () -> Kalloc.free k a);
  Alcotest.check_raises "foreign address rejected"
    (Invalid_argument "Kalloc.free: address not from this allocator") (fun () ->
      Kalloc.free k 0x7f000)

(* BSD's kernel malloc (§4.7.7) promises three properties at once. *)
let test_bsd_properties () =
  let k = Kalloc.create (make_lmm ()) in
  (* Natural alignment per size class, up to one page. *)
  List.iter
    (fun size ->
      let addr = Option.get (Kalloc.alloc k ~size) in
      let class_size = Option.get (Kalloc.usable_size k addr) in
      Alcotest.(check bool)
        (Printf.sprintf "block of %d aligned to class %d" size class_size)
        true
        (addr mod class_size = 0 && class_size >= size))
    [ 1; 16; 17; 100; 128; 129; 1000; 2048; 4096 ];
  (* A power-of-two request wastes nothing. *)
  let a = Option.get (Kalloc.alloc k ~size:256) in
  Alcotest.(check (option int)) "exact class for pow2" (Some 256) (Kalloc.usable_size k a);
  (* Free takes no size, and the block is reused. *)
  Kalloc.free k a;
  Alcotest.(check int) "freelist reuse" a (Option.get (Kalloc.alloc k ~size:256))

(* Pages scattered over the address space regrow the page table, as the
   paper warns, and every block's size survives the regrowth. *)
let test_table_regrows () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:0x801000 ~flags:0 ~pri:0;
  List.iter (fun addr -> Lmm.add_free lmm ~addr ~size:4096) [ 0x0; 0x10000; 0x400000; 0x800000 ];
  let k = Kalloc.create lmm in
  (* Each size class takes a page of its own. *)
  let blocks = List.map (fun size -> size, Option.get (Kalloc.alloc k ~size)) [ 16; 64; 256; 1024 ] in
  Alcotest.(check int) "pages taken" 4 (Kalloc.slabs_held k);
  Alcotest.(check bool) "table regrew for scattered pages" true (Kalloc.table_regrows k >= 2);
  let addr = Option.get (Kalloc.alloc k ~size:1024) in
  List.iter
    (fun (size, addr) ->
      Alcotest.(check (option int)) "size survives regrowth" (Some size) (Kalloc.usable_size k addr))
    ((1024, addr) :: blocks)

(* BSD's free takes only an address, so it must refuse one that is not a
   block start it handed out. *)
let test_bsd_free_checks () =
  let k = Kalloc.create (make_lmm ~bytes:(1 lsl 22) ()) in
  let addr = Option.get (Kalloc.alloc k ~size:64) in
  Alcotest.(check bool) "misaligned free rejected" true
    (try
       Kalloc.free k (addr + 3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "never-seen free rejected" true
    (try
       Kalloc.free k 0x3ff000;
       false
     with Invalid_argument _ -> true);
  Kalloc.free k addr;
  Alcotest.(check int) "the real block still frees" 0 (Kalloc.live_blocks k)

(* Memdebug layers over Kalloc exactly as over the raw LMM: the paper's
   "possibly layered on top of the OSKit's low-level one" composes both
   ways. *)
let test_memdebug_over_kalloc () =
  let ram = Physmem.create ~bytes:(1 lsl 20) in
  let lmm = make_lmm () in
  let k = Kalloc.create lmm in
  let md =
    Memdebug.create ~ram
      ~alloc:(fun size -> Kalloc.alloc k ~size)
      ~free:(fun ~addr ~size:_ -> Kalloc.free k addr)
  in
  let addr = Option.get (Memdebug.alloc md ~size:40 ~tag:"layered") in
  Alcotest.(check (option int)) "guarded block tracked" (Some 40) (Memdebug.size_of md addr);
  Alcotest.(check bool) "backing block is live in kalloc" true (Kalloc.live_blocks k > 0);
  Memdebug.free md addr;
  Alcotest.(check int) "released through both layers" 0 (Kalloc.live_blocks k)

let prop_no_overlap =
  QCheck.Test.make ~name:"kalloc: random alloc/free never hands out overlapping blocks"
    ~count:200
    QCheck.(list (pair (int_range 1 4096) bool))
    (fun ops ->
      let k = Kalloc.create (make_lmm ~bytes:(1 lsl 22) ()) in
      let live = Hashtbl.create 64 in
      List.iter
        (fun (size, do_free) ->
          if do_free && Hashtbl.length live > 0 then begin
            let victim = Hashtbl.fold (fun a _ _ -> Some a) live None in
            match victim with
            | Some a ->
                Kalloc.free k a;
                Hashtbl.remove live a
            | None -> ()
          end
          else
            match Kalloc.alloc k ~size with
            | None -> QCheck.Test.fail_report "arena exhausted"
            | Some a ->
                let len = Option.get (Kalloc.usable_size k a) in
                Hashtbl.iter
                  (fun a' len' ->
                    if a < a' + len' && a' < a + len then
                      QCheck.Test.fail_reportf "overlap: %#x+%d vs %#x+%d" a len a' len')
                  live;
                Hashtbl.replace live a len)
        ops;
      true)

let prop_avail_restored =
  QCheck.Test.make
    ~name:"kalloc: free-everything + reap restores the LMM byte for byte" ~count:100
    QCheck.(list (int_range 1 8192))
    (fun sizes ->
      let lmm = make_lmm ~bytes:(1 lsl 22) () in
      let before = Lmm.avail lmm ~flags:0 in
      let k = Kalloc.create lmm in
      let addrs = List.filter_map (fun size -> Kalloc.alloc k ~size) sizes in
      List.iter (Kalloc.free k) addrs;
      Kalloc.reap k;
      Lmm.avail lmm ~flags:0 = before && Kalloc.live_blocks k = 0)

(* ---- shared-mbuf mutation guards (the bugfixes) ---- *)

let test_m_write_ext_raises () =
  let backing = Bytes.make 512 'z' in
  let m = Mbuf.m_ext_wrap backing ~off:0 ~len:512 in
  Alcotest.check_raises "m_write on shared ext storage refuses"
    (Invalid_argument "m_write: external storage is shared") (fun () ->
      Mbuf.m_write m ~off:10 ~src:(Bytes.of_string "clobber") ~src_pos:0 ~len:7);
  Alcotest.(check char) "storage untouched" 'z' (Bytes.get backing 10);
  (* m_makewritable unshares the range; the write then lands in a private
     copy, never in the loaned bytes. *)
  Mbuf.m_makewritable m ~off:10 ~len:7;
  Mbuf.m_write m ~off:10 ~src:(Bytes.of_string "private") ~src_pos:0 ~len:7;
  Alcotest.(check char) "lender's bytes still untouched" 'z' (Bytes.get backing 10);
  Alcotest.(check string) "mbuf sees the write" "private"
    (Bytes.to_string (Mbuf.m_copydata m ~off:10 ~len:7))

let test_m_prepend_validates_first () =
  let m = Mbuf.m_gethdr () in
  ignore (Mbuf.m_put m 8);
  let allocated = !Mbuf.stats_allocated in
  (* On a machine of its own, whose ledger then holds every charge. *)
  let pc = Machine.create (World.create ()) in
  let raised =
    Machine.run_in pc (fun () ->
        try
          ignore (Mbuf.m_prepend m 5000);
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "oversized prepend rejected" true raised;
  Alcotest.(check int) "no mbuf allocated before validation" allocated
    !Mbuf.stats_allocated;
  Alcotest.(check int) "no cycles charged before validation" 0
    (Machine.cpu_busy_ns pc ~cpu:0)

let test_pool_reuse_and_sharing () =
  Mbuf.pool_reset ();
  let c = Mbuf.m_getclust () in
  let storage = c.Mbuf.m_data in
  c.Mbuf.m_len <- 64;
  (* A shared view (retransmit-style m_copym) pins the cluster: freeing
     one owner must NOT recycle storage the other still reads. *)
  let alias = Mbuf.m_copym c ~off:0 ~len:64 in
  Mbuf.m_free c;
  let c2 = Mbuf.m_getclust () in
  Alcotest.(check bool) "pinned cluster not recycled" true (c2.Mbuf.m_data != storage);
  Mbuf.m_freem alias;
  Mbuf.m_free c2;
  (* Last reference dropped: now the pool hands the same bytes back. *)
  let c3 = Mbuf.m_getclust () in
  Alcotest.(check bool) "released cluster recycled" true
    (c3.Mbuf.m_data == storage || c3.Mbuf.m_data == c2.Mbuf.m_data);
  Mbuf.m_free c3;
  Alcotest.check_raises "mbuf double free detected"
    (Invalid_argument "m_free: double free") (fun () -> Mbuf.m_free c3);
  Mbuf.pool_reset ()

(* Checksum parity: an mbuf boundary at an odd offset must fold exactly
   like flat storage (the donor's byte-swapped odd-boundary trick). *)
let test_cksum_odd_boundary_parity () =
  let flat = Bytes.init 13 (fun i -> Char.chr (17 * (i + 3) land 0xff)) in
  (* Split 7|6: the second fragment starts at an odd offset. *)
  let head = Mbuf.m_ext_wrap (Bytes.sub flat 0 7) ~off:0 ~len:7 in
  Mbuf.m_cat head (Mbuf.m_ext_wrap (Bytes.sub flat 7 6) ~off:0 ~len:6);
  Alcotest.(check int) "odd-boundary chain folds like flat bytes"
    (Codec.cksum_bytes flat ~off:0 ~len:13)
    (In_cksum.cksum_chain head ~off:0 ~len:13);
  (* And from an odd starting offset within the chain. *)
  Alcotest.(check int) "odd-offset range folds like flat bytes"
    (Codec.cksum_bytes flat ~off:3 ~len:9)
    (In_cksum.cksum_chain head ~off:3 ~len:9)

let suite =
  [ Alcotest.test_case "kalloc basics" `Quick test_basics;
    Alcotest.test_case "kalloc hit/miss stats + hysteresis" `Quick test_hit_miss_stats;
    Alcotest.test_case "kalloc reap restores the LMM" `Quick test_release_restores_lmm;
    Alcotest.test_case "kalloc free validation" `Quick test_free_validation;
    Alcotest.test_case "bsd malloc: three properties" `Quick test_bsd_properties;
    Alcotest.test_case "bsd malloc: table growth" `Quick test_table_regrows;
    Alcotest.test_case "bsd malloc: free checks" `Quick test_bsd_free_checks;
    Alcotest.test_case "memdebug layered over kalloc" `Quick test_memdebug_over_kalloc;
    QCheck_alcotest.to_alcotest prop_no_overlap;
    QCheck_alcotest.to_alcotest prop_avail_restored;
    Alcotest.test_case "m_write guard on shared storage" `Quick test_m_write_ext_raises;
    Alcotest.test_case "m_prepend validates before allocating" `Quick
      test_m_prepend_validates_first;
    Alcotest.test_case "mbuf pool reuse honours sharing" `Quick test_pool_reuse_and_sharing;
    Alcotest.test_case "cksum parity at odd mbuf boundaries" `Quick
      test_cksum_odd_boundary_parity ]
