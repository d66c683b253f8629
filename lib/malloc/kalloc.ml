(* The kit's one conventional allocator, layered on the LMM: the §6.2.10
 * remedy and the BSD kernel-malloc emulation of §4.7.7 in one.
 *
 * The paper's deficiency list says the LMM "is built for flexibility,
 * not common-case speed": every alloc is a walk over the sorted free
 * lists.  This layer takes 4 KB pages from [Lmm.alloc_aligned], carves
 * each into naturally-aligned blocks of one power-of-two size class (a
 * kmem-cache slab), and serves the hot path from per-slab freelists:
 * alloc and free are O(1) list push/pop except when a slab must be
 * refilled from (or released back to) the LMM underneath.
 *
 * BSD's malloc gives three properties at once: blocks naturally aligned
 * to their class, no waste on power-of-two sizes, and a free that takes
 * no size.  The donor gets the last from a static per-page table over a
 * VA range it reserved — impossible here, where a component has no say
 * over where the client's memory lies.  So this keeps the paper's
 * "imperfect but practical" fix: a page -> slab table grown on demand to
 * cover every page the LMM has handed out.  It degrades (regrows) if
 * those pages are wildly scattered, exactly as the paper warns.
 *)

let slab_bits = 12
let slab_size = 1 lsl slab_bits (* one 4 KB page per slab *)
let min_class = 4 (* 16-byte blocks *)
let max_class = slab_bits (* one page; larger requests fall through to the LMM *)

type class_stats = {
  mutable hits : int; (* allocs served from a freelist *)
  mutable misses : int; (* allocs that had to refill *)
  mutable refills : int; (* slabs taken from the LMM *)
  mutable releases : int; (* empty slabs returned to the LMM *)
  mutable frees : int;
  mutable live : int; (* blocks currently out *)
}

type slab = {
  base : int;
  cls : int; (* class index (block size = 1 lsl cls) *)
  mutable free_blocks : int list; (* O(1) push/pop *)
  mutable used : int;
  in_use : Bytes.t; (* bit per block: O(1) double-free detection *)
}

type t = {
  lmm : Lmm.t;
  flags : int;
  (* Per class: slabs with at least one free block.  The hot path only
     touches the head. *)
  partial : slab list array;
  (* The kmemusage table: the slab on each page of [table_base,
     table_base + Array.length table), in pages. *)
  mutable table : slab option array;
  mutable table_base : int;
  mutable table_regrows : int;
  mutable slabs_held : int;
  stats : class_stats array;
  large : (int, int) Hashtbl.t; (* addr -> size for > 4 KB fallthroughs *)
}

(* size -> class index, O(1) by table lookup (the hot path must not loop). *)
let class_table =
  let t = Array.make ((1 lsl max_class) + 1) min_class in
  for size = (1 lsl min_class) + 1 to 1 lsl max_class do
    let rec bits b = if 1 lsl b >= size then b else bits (b + 1) in
    t.(size) <- bits min_class
  done;
  t

let create ?(flags = 0) lmm =
  { lmm;
    flags;
    partial = Array.make (max_class + 1) [];
    table = [||];
    table_base = 0;
    table_regrows = 0;
    slabs_held = 0;
    stats =
      Array.init (max_class + 1) (fun _ ->
          { hits = 0; misses = 0; refills = 0; releases = 0; frees = 0; live = 0 });
    large = Hashtbl.create 8 }

let block_size_of_class c = 1 lsl c

let slab_of t addr =
  let i = (addr asr slab_bits) - t.table_base in
  if i < 0 || i >= Array.length t.table then None else t.table.(i)

(* Make the table cover [page], re-allocating it (as the paper describes)
   when the LMM hands out a page outside the current span; grown with
   slack so scattered pages do not regrow it every time. *)
let cover t page =
  let n = Array.length t.table in
  if n = 0 then begin
    t.table <- Array.make 64 None;
    t.table_base <- page
  end
  else if page < t.table_base || page >= t.table_base + n then begin
    let lo = min t.table_base page and hi = max (t.table_base + n) (page + 1) in
    let table = Array.make (max (hi - lo) (2 * n)) None in
    Array.blit t.table 0 table (t.table_base - lo) n;
    t.table <- table;
    t.table_base <- lo;
    t.table_regrows <- t.table_regrows + 1
  end

let mark_block s addr v =
  let idx = (addr - s.base) lsr s.cls in
  let byte = Char.code (Bytes.get s.in_use (idx lsr 3)) in
  let bit = 1 lsl (idx land 7) in
  Bytes.set s.in_use (idx lsr 3) (Char.chr (if v then byte lor bit else byte land lnot bit))

let block_in_use s addr =
  let idx = (addr - s.base) lsr s.cls in
  Char.code (Bytes.get s.in_use (idx lsr 3)) land (1 lsl (idx land 7)) <> 0

(* Take a fresh page from the LMM, file it in the table and carve it. *)
let refill t c =
  match
    Lmm.alloc_aligned t.lmm ~size:slab_size ~flags:t.flags ~align_bits:slab_bits
      ~align_ofs:0
  with
  | None -> None
  | Some base ->
      let block = block_size_of_class c in
      let rec carve off acc =
        if off < 0 then acc else carve (off - block) ((base + off) :: acc)
      in
      let blocks = slab_size lsr c in
      let s =
        { base; cls = c; free_blocks = carve (slab_size - block) []; used = 0;
          in_use = Bytes.make ((blocks + 7) lsr 3) '\000' }
      in
      let page = base asr slab_bits in
      cover t page;
      t.table.(page - t.table_base) <- Some s;
      t.slabs_held <- t.slabs_held + 1;
      t.partial.(c) <- s :: t.partial.(c);
      t.stats.(c).refills <- t.stats.(c).refills + 1;
      Some s

(* Hand an empty slab's page back to the LMM. *)
let release t s =
  t.partial.(s.cls) <- List.filter (fun x -> x != s) t.partial.(s.cls);
  t.table.((s.base asr slab_bits) - t.table_base) <- None;
  t.slabs_held <- t.slabs_held - 1;
  t.stats.(s.cls).releases <- t.stats.(s.cls).releases + 1;
  Lmm.free t.lmm ~addr:s.base ~size:slab_size

let alloc t ~size =
  if size <= 0 then invalid_arg "Kalloc.alloc: size";
  if size > 1 lsl max_class then begin
    (* Large: straight to the LMM (the paper's layering — the conventional
       allocator sits on top of, not instead of, the low-level one). *)
    Cost.charge_alloc ();
    match Lmm.alloc t.lmm ~size ~flags:t.flags with
    | None -> None
    | Some addr ->
        Hashtbl.replace t.large addr size;
        Some addr
  end
  else begin
    let c = class_table.(size) in
    let st = t.stats.(c) in
    let slab =
      match t.partial.(c) with
      | s :: _ ->
          st.hits <- st.hits + 1;
          Cost.charge_pool_alloc ();
          Some s
      | [] ->
          st.misses <- st.misses + 1;
          Cost.charge_alloc ();
          refill t c
    in
    match slab with
    | None -> None
    | Some s ->
        (match s.free_blocks with
        | addr :: rest ->
            s.free_blocks <- rest;
            s.used <- s.used + 1;
            st.live <- st.live + 1;
            mark_block s addr true;
            if rest = [] then
              t.partial.(c) <- List.filter (fun x -> x != s) t.partial.(c);
            Some addr
        | [] -> assert false (* a slab on the partial list has free blocks *))
  end

(* free takes no size: the table finds the slab, which knows its class. *)
let free t addr =
  match Hashtbl.find_opt t.large addr with
  | Some size ->
      Hashtbl.remove t.large addr;
      Lmm.free t.lmm ~addr ~size
  | None -> (
      match slab_of t addr with
      | None -> invalid_arg "Kalloc.free: address not from this allocator"
      | Some s ->
          if addr land (block_size_of_class s.cls - 1) <> 0 then
            invalid_arg "Kalloc.free: misaligned for its size class";
          if not (block_in_use s addr) then invalid_arg "Kalloc.free: double free";
          mark_block s addr false;
          let st = t.stats.(s.cls) in
          let was_full = s.free_blocks = [] in
          s.free_blocks <- addr :: s.free_blocks;
          s.used <- s.used - 1;
          st.frees <- st.frees + 1;
          st.live <- st.live - 1;
          if was_full then t.partial.(s.cls) <- s :: t.partial.(s.cls);
          (* Release empty slabs back to the LMM, keeping one per class so a
             tight alloc/free loop at a slab boundary does not thrash. *)
          if s.used = 0 && List.exists (fun x -> x != s) t.partial.(s.cls) then release t s)

(* Return every empty slab to the LMM (even the cached one per class). *)
let reap t =
  Array.iter (List.iter (fun s -> if s.used = 0 then release t s)) t.partial

let usable_size t addr =
  match Hashtbl.find_opt t.large addr with
  | Some size -> Some size
  | None -> Option.map (fun s -> block_size_of_class s.cls) (slab_of t addr)

let stats t c =
  if c < min_class || c > max_class then invalid_arg "Kalloc.stats: class";
  t.stats.(c)

let live_blocks t =
  Array.fold_left (fun acc st -> acc + st.live) 0 t.stats + Hashtbl.length t.large

let slabs_held t = t.slabs_held
let table_regrows t = t.table_regrows
