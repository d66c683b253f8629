type region = {
  min : int;
  size : int;
  flags : int;
  pri : int;
  mutable free : (int * int) list; (* (base, size), ascending, coalesced *)
}

type t = {
  mutable regions : region list; (* sorted: pri desc, min asc *)
  mutable visits : int; (* free-list nodes examined: a counter, never charged *)
}

let flag_low_1mb = 0x1
let flag_low_16mb = 0x2

let create () = { regions = []; visits = 0 }
let visits t = t.visits

let region_max r = r.min + r.size

let add_region t ~min ~size ~flags ~pri =
  if size <= 0 then invalid_arg "Lmm.add_region: size";
  let overlaps r = min < region_max r && r.min < min + size in
  if List.exists overlaps t.regions then invalid_arg "Lmm.add_region: overlapping regions";
  let r = { min; size; flags; pri; free = [] } in
  let before a b = a.pri > b.pri || (a.pri = b.pri && a.min < b.min) in
  let rec insert = function
    | [] -> [ r ]
    | x :: rest -> if before r x then r :: x :: rest else x :: insert rest
  in
  t.regions <- insert t.regions

(* Insert (base,size) into a region's free list, coalescing neighbours.
   Raises on overlap — that is a double free. *)
let insert_free t r base size =
  let rec go = function
    | [] -> [ base, size ]
    | (b, s) :: rest ->
        t.visits <- t.visits + 1;
        if base + size < b then (base, size) :: (b, s) :: rest
        else if base + size = b then (base, size + s) :: rest
        else if b + s = base then go_merge b (s + size) rest
        else if base < b + s && b < base + size then
          invalid_arg "Lmm.free: range overlaps free memory (double free?)"
        else (b, s) :: go rest
  and go_merge b s = function
    | (b2, s2) :: rest when b + s = b2 -> (b, s + s2) :: rest
    | rest -> (b, s) :: rest
  in
  r.free <- go r.free

let add_free t ~addr ~size =
  List.iter
    (fun r ->
      let lo = max addr r.min and hi = min (addr + size) (region_max r) in
      if lo < hi then insert_free t r lo (hi - lo))
    t.regions

(* First address >= base satisfying the alignment constraint. *)
let align_up base ~align_bits ~align_ofs =
  let align = 1 lsl align_bits in
  let rem = (base - align_ofs) land (align - 1) in
  if rem = 0 then base else base + align - rem

let carve t r (b, s) addr size =
  (* Split the free block (b,s) around [addr, addr+size). *)
  let after_base = addr + size in
  let keep =
    (if addr > b then [ b, addr - b ] else [])
    @ if after_base < b + s then [ after_base, b + s - after_base ] else []
  in
  let rec replace = function
    | [] -> assert false
    | ((b', _) as x) :: rest ->
        t.visits <- t.visits + 1;
        if b' = b then keep @ rest else x :: replace rest
  in
  r.free <- replace r.free

let alloc_gen t ~size ~flags ~align_bits ~align_ofs ~bounds_min ~bounds_max =
  if size <= 0 then invalid_arg "Lmm.alloc: size";
  let try_region r =
    if r.flags land flags <> flags then None
    else
      List.find_map
        (fun (b, s) ->
          t.visits <- t.visits + 1;
          let base = max b bounds_min in
          let addr = align_up base ~align_bits ~align_ofs in
          if addr + size <= b + s && addr + size - 1 <= bounds_max && addr >= b then
            Some ((b, s), addr)
          else None)
        r.free
  in
  let rec search = function
    | [] -> None
    | r :: rest -> (
        match try_region r with
        | Some (block, addr) ->
            carve t r block addr size;
            Some addr
        | None -> search rest)
  in
  search t.regions

let alloc t ~size ~flags =
  alloc_gen t ~size ~flags ~align_bits:0 ~align_ofs:0 ~bounds_min:0 ~bounds_max:max_int

let alloc_aligned t ~size ~flags ~align_bits ~align_ofs =
  alloc_gen t ~size ~flags ~align_bits ~align_ofs ~bounds_min:0 ~bounds_max:max_int

let alloc_page t ~flags =
  alloc_gen t ~size:4096 ~flags ~align_bits:12 ~align_ofs:0 ~bounds_min:0 ~bounds_max:max_int

let free t ~addr ~size =
  if size <= 0 then invalid_arg "Lmm.free: size";
  match
    List.find_opt (fun r -> addr >= r.min && addr + size <= region_max r) t.regions
  with
  | None -> invalid_arg "Lmm.free: range not inside any region"
  | Some r -> insert_free t r addr size

let avail t ~flags =
  List.fold_left
    (fun acc r ->
      if r.flags land flags = flags then
        acc + List.fold_left (fun a (_, s) -> a + s) 0 r.free
      else acc)
    0 t.regions

let sorted_free t =
  let all =
    List.concat_map (fun r -> List.map (fun (b, s) -> b, s, r.flags) r.free) t.regions
  in
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) all

let find_free t ~addr =
  List.find_opt (fun (b, s, _) -> b + s > addr) (sorted_free t)
  |> Option.map (fun (b, s, f) -> max b addr, s - (max b addr - b), f)

let iter_free t f = List.iter (fun (addr, size, flags) -> f ~addr ~size ~flags) (sorted_free t)

let pp fmt t =
  Format.fprintf fmt "@[<v>lmm:";
  List.iter
    (fun r ->
      Format.fprintf fmt "@,  region %#x..%#x flags=%#x pri=%d" r.min (region_max r)
        r.flags r.pri;
      List.iter (fun (b, s) -> Format.fprintf fmt "@,    free %#x + %#x" b s) r.free)
    t.regions;
  Format.fprintf fmt "@]"
