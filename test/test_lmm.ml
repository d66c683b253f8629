(* LMM: typed regions, constrained allocation, coalescing, the open
   free-list walk; qcheck properties on the allocator invariants. *)

let make_pc_lmm () =
  let lmm = Lmm.create () in
  Bootmem.add_standard_regions lmm ~ram_bytes:(32 * 1024 * 1024);
  Lmm.add_free lmm ~addr:0x1000 ~size:((32 * 1024 * 1024) - 0x1000);
  lmm

let test_basic_alloc_free () =
  let lmm = make_pc_lmm () in
  let before = Lmm.avail lmm ~flags:0 in
  match Lmm.alloc lmm ~size:4096 ~flags:0 with
  | None -> Alcotest.fail "alloc failed"
  | Some addr ->
      Alcotest.(check int) "avail shrank" (before - 4096) (Lmm.avail lmm ~flags:0);
      Lmm.free lmm ~addr ~size:4096;
      Alcotest.(check int) "avail restored" before (Lmm.avail lmm ~flags:0)

let test_priority_order () =
  (* Highest-priority region (above 16MB) is used first for unconstrained
     allocations, leaving scarce low memory alone. *)
  let lmm = make_pc_lmm () in
  match Lmm.alloc lmm ~size:4096 ~flags:0 with
  | Some addr -> Alcotest.(check bool) "prefers high memory" true (addr >= Physmem.dma_limit)
  | None -> Alcotest.fail "alloc failed"

let test_dma_constraint () =
  let lmm = make_pc_lmm () in
  match Lmm.alloc lmm ~size:65536 ~flags:Lmm.flag_low_16mb with
  | Some addr ->
      Alcotest.(check bool) "below 16MB" true (addr + 65536 <= Physmem.dma_limit)
  | None -> Alcotest.fail "DMA alloc failed"

let test_low_1mb () =
  let lmm = make_pc_lmm () in
  match Lmm.alloc lmm ~size:4096 ~flags:(Lmm.flag_low_1mb lor Lmm.flag_low_16mb) with
  | Some addr -> Alcotest.(check bool) "below 1MB" true (addr + 4096 <= Physmem.low_limit)
  | None -> Alcotest.fail "low alloc failed"

let test_alignment () =
  let lmm = make_pc_lmm () in
  (* Unalign the free list first. *)
  ignore (Lmm.alloc lmm ~size:24 ~flags:0);
  for bits = 4 to 16 do
    match Lmm.alloc_aligned lmm ~size:100 ~flags:0 ~align_bits:bits ~align_ofs:0 with
    | Some addr ->
        Alcotest.(check int) (Printf.sprintf "aligned to 2^%d" bits) 0
          (addr land ((1 lsl bits) - 1))
    | None -> Alcotest.fail "aligned alloc failed"
  done

let test_align_ofs () =
  let lmm = make_pc_lmm () in
  match Lmm.alloc_gen lmm ~size:64 ~flags:0 ~align_bits:12 ~align_ofs:0x20 ~bounds_min:0
          ~bounds_max:max_int
  with
  | Some addr -> Alcotest.(check int) "offset alignment" 0x20 (addr land 0xfff)
  | None -> Alcotest.fail "align_ofs alloc failed"

let test_bounds () =
  let lmm = make_pc_lmm () in
  match
    Lmm.alloc_gen lmm ~size:4096 ~flags:0 ~align_bits:0 ~align_ofs:0 ~bounds_min:0x500000
      ~bounds_max:0x5fffff
  with
  | Some addr ->
      Alcotest.(check bool) "within window" true (addr >= 0x500000 && addr + 4096 <= 0x600000)
  | None -> Alcotest.fail "bounded alloc failed"

let test_exhaustion () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:8192 ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:8192;
  (match Lmm.alloc lmm ~size:16384 ~flags:0 with
  | Some _ -> Alcotest.fail "oversized alloc should fail"
  | None -> ());
  match Lmm.alloc lmm ~size:8192 ~flags:0 with
  | Some _ -> Alcotest.(check int) "now empty" 0 (Lmm.avail lmm ~flags:0)
  | None -> Alcotest.fail "exact-fit alloc failed"

let test_coalescing () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:12288 ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:12288;
  let a = Option.get (Lmm.alloc lmm ~size:4096 ~flags:0) in
  let b = Option.get (Lmm.alloc lmm ~size:4096 ~flags:0) in
  let c = Option.get (Lmm.alloc lmm ~size:4096 ~flags:0) in
  Lmm.free lmm ~addr:a ~size:4096;
  Lmm.free lmm ~addr:c ~size:4096;
  Lmm.free lmm ~addr:b ~size:4096;
  (* All three must have merged back into one block. *)
  let blocks = ref 0 in
  Lmm.iter_free lmm (fun ~addr:_ ~size:_ ~flags:_ -> incr blocks);
  Alcotest.(check int) "coalesced into one block" 1 !blocks;
  match Lmm.find_free lmm ~addr:0 with
  | Some (_, size, _) -> Alcotest.(check int) "full size back" 12288 size
  | None -> Alcotest.fail "no free block"

let test_double_free_detected () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:8192 ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:8192;
  let a = Option.get (Lmm.alloc lmm ~size:4096 ~flags:0) in
  Lmm.free lmm ~addr:a ~size:4096;
  Alcotest.(check bool) "double free raises" true
    (try
       Lmm.free lmm ~addr:a ~size:4096;
       false
     with Invalid_argument _ -> true)

let test_free_outside_region () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0x1000 ~size:4096 ~flags:0 ~pri:0;
  Alcotest.(check bool) "free outside any region raises" true
    (try
       Lmm.free lmm ~addr:0x100000 ~size:64;
       false
     with Invalid_argument _ -> true)

let test_add_free_splits_across_regions () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:4096 ~flags:1 ~pri:0;
  Lmm.add_region lmm ~min:4096 ~size:4096 ~flags:2 ~pri:1;
  (* One donation spanning both regions plus uncovered space beyond. *)
  Lmm.add_free lmm ~addr:0 ~size:16384;
  Alcotest.(check int) "region 1 got its part" 4096 (Lmm.avail lmm ~flags:1);
  Alcotest.(check int) "region 2 got its part" 4096 (Lmm.avail lmm ~flags:2);
  Alcotest.(check int) "uncovered space dropped" 8192 (Lmm.avail lmm ~flags:0)

let test_find_free_walk () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:65536 ~flags:0 ~pri:0;
  Lmm.add_free lmm ~addr:0 ~size:65536;
  let a = Option.get (Lmm.alloc lmm ~size:100 ~flags:0) in
  ignore a;
  match Lmm.find_free lmm ~addr:0 with
  | Some (base, _, _) -> Alcotest.(check int) "first free after carve" 100 base
  | None -> Alcotest.fail "walk found nothing"

(* The free-list nodes a round trip visits, pinned on four 16-byte holes
   in front of the rest of the region: the 32-byte alloc's first-fit
   search examines all five blocks, the split walks to the fifth to
   replace it, and the free walks past the four holes to the fifth, which
   it merges with. *)
let test_visits () =
  let lmm = Lmm.create () in
  Lmm.add_region lmm ~min:0 ~size:0x10000 ~flags:0 ~pri:0;
  List.iter (fun addr -> Lmm.add_free lmm ~addr ~size:16) [ 0x0; 0x20; 0x40; 0x60 ];
  Lmm.add_free lmm ~addr:0x100 ~size:0xff00;
  let v0 = Lmm.visits lmm in
  let addr = Option.get (Lmm.alloc lmm ~size:32 ~flags:0) in
  Alcotest.(check int) "past the holes" 0x100 addr;
  Alcotest.(check int) "alloc: search 5 + split 5" 10 (Lmm.visits lmm - v0);
  Lmm.free lmm ~addr ~size:32;
  Alcotest.(check int) "free: insert walk 5" 15 (Lmm.visits lmm - v0)

(* ---- property tests ---- *)

(* Random alloc/free interleavings: allocations never overlap, and freeing
   everything restores the exact byte count. *)
let prop_no_overlap =
  QCheck.Test.make ~name:"lmm: random ops keep blocks disjoint and conserve bytes"
    ~count:100
    QCheck.(list (pair (int_range 1 2000) (int_range 0 4)))
    (fun ops ->
      let total = 1 lsl 20 in
      let lmm = Lmm.create () in
      Lmm.add_region lmm ~min:0 ~size:total ~flags:0 ~pri:0;
      Lmm.add_free lmm ~addr:0 ~size:total;
      let live = ref [] in
      List.iter
        (fun (size, action) ->
          if action = 0 && !live <> [] then begin
            match !live with
            | (addr, sz) :: rest ->
                Lmm.free lmm ~addr ~size:sz;
                live := rest
            | [] -> ()
          end
          else
            match Lmm.alloc lmm ~size ~flags:0 with
            | Some addr ->
                (* No overlap with any live block. *)
                List.iter
                  (fun (a, s) ->
                    if addr < a + s && a < addr + size then
                      QCheck.Test.fail_reportf "overlap: %#x+%d vs %#x+%d" addr size a s)
                  !live;
                live := (addr, size) :: !live
            | None -> ())
        ops;
      List.iter (fun (addr, size) -> Lmm.free lmm ~addr ~size) !live;
      Lmm.avail lmm ~flags:0 = total)

let prop_aligned =
  QCheck.Test.make ~name:"lmm: alloc_aligned results are aligned" ~count:100
    QCheck.(pair (int_range 1 5000) (int_range 0 12))
    (fun (size, bits) ->
      let lmm = Lmm.create () in
      Lmm.add_region lmm ~min:0 ~size:(1 lsl 20) ~flags:0 ~pri:0;
      Lmm.add_free lmm ~addr:12 ~size:((1 lsl 20) - 12);
      match Lmm.alloc_aligned lmm ~size ~flags:0 ~align_bits:bits ~align_ofs:0 with
      | Some addr -> addr land ((1 lsl bits) - 1) = 0
      | None -> false)

let suite =
  [ Alcotest.test_case "basic alloc/free" `Quick test_basic_alloc_free;
    Alcotest.test_case "priority order" `Quick test_priority_order;
    Alcotest.test_case "DMA constraint" `Quick test_dma_constraint;
    Alcotest.test_case "low 1MB constraint" `Quick test_low_1mb;
    Alcotest.test_case "alignment" `Quick test_alignment;
    Alcotest.test_case "align offset" `Quick test_align_ofs;
    Alcotest.test_case "bounded alloc" `Quick test_bounds;
    Alcotest.test_case "exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "coalescing" `Quick test_coalescing;
    Alcotest.test_case "double free detected" `Quick test_double_free_detected;
    Alcotest.test_case "free outside region" `Quick test_free_outside_region;
    Alcotest.test_case "add_free splits across regions" `Quick
      test_add_free_splits_across_regions;
    Alcotest.test_case "find_free walk" `Quick test_find_free_walk;
    Alcotest.test_case "visits: 4 holes, one 32-B round trip" `Quick test_visits;
    QCheck_alcotest.to_alcotest prop_no_overlap;
    QCheck_alcotest.to_alcotest prop_aligned ]
