exception Fault of int

(* RAM is an array of 4 KB pages.  Every page starts out as [zero], one
   read-only page shared by every store, and gets bytes of its own on its
   first write: a store costs one word per page until it is touched. *)
let page_bits = 12
let page = 1 lsl page_bits
let mask = page - 1
let zero = Bytes.make page '\000'

type t = { size : int; pages : bytes array }

let create ~bytes =
  let n = (bytes + page - 1) / page in
  { size = n * page; pages = Array.make n zero }

let size t = t.size
let low_limit = 0x100000
let dma_limit = 0x1000000

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then raise (Fault addr)

(* Page [i], given bytes of its own first. *)
let writable t i =
  if t.pages.(i) == zero then t.pages.(i) <- Bytes.make page '\000';
  t.pages.(i)

(* [f i off pos n] for each page piece of [addr, addr + len): page [i],
   [n] bytes from offset [off], [pos] bytes into the range. *)
let rec pieces addr len pos f =
  if len > 0 then begin
    let off = addr land mask in
    let n = min len (page - off) in
    f (addr lsr page_bits) off pos n;
    pieces (addr + n) (len - n) (pos + n) f
  end

let check_buf name b pos len = if pos < 0 || pos > Bytes.length b - len then invalid_arg name

let blit_from_bytes t ~src ~src_pos ~dst_addr ~len =
  check t dst_addr len;
  check_buf "Physmem.blit_from_bytes" src src_pos len;
  pieces dst_addr len src_pos (fun i off pos n -> Bytes.blit src pos (writable t i) off n)

let blit_to_bytes t ~src_addr ~dst ~dst_pos ~len =
  check t src_addr len;
  check_buf "Physmem.blit_to_bytes" dst dst_pos len;
  pieces src_addr len dst_pos (fun i off pos n -> Bytes.blit t.pages.(i) off dst pos n)

(* In-place access to [addr, addr + len) when the range lies in one
   page: the page and the range's offset in it.  An untouched page is
   given bytes of its own first, so the shared [zero] page is never handed
   out.  A store that hands pages out must [unshare] a handed-out page
   before it writes there again. *)
let map_page t ~addr ~len =
  check t addr len;
  let off = addr land mask in
  if len > 0 && off + len <= page then Some (writable t (addr lsr page_bits), off) else None

(* Give every touched page of [addr, addr + len) fresh bytes holding what
   it held: bytes handed out by [map_page] keep their contents through
   the store's next writes. *)
let unshare t ~addr ~len =
  check t addr len;
  pieces addr len 0 (fun i _ _ _ ->
      if t.pages.(i) != zero then t.pages.(i) <- Bytes.copy t.pages.(i))

(* Zeroing an untouched page leaves it shared. *)
let fill t ~addr ~len byte =
  check t addr len;
  let c = Char.chr (byte land 0xff) in
  pieces addr len 0 (fun i off _ n ->
      if c <> '\000' || t.pages.(i) != zero then Bytes.fill (writable t i) off n c)

(* A [width]-byte access: in place when it fits in one page, through a
   small buffer when it straddles two. *)
let read t addr width get =
  check t addr width;
  let off = addr land mask in
  if off + width <= page then get t.pages.(addr lsr page_bits) off
  else
    let b = Bytes.create width in
    blit_to_bytes t ~src_addr:addr ~dst:b ~dst_pos:0 ~len:width;
    get b 0

let write t addr width set v =
  check t addr width;
  let off = addr land mask in
  if off + width <= page then set (writable t (addr lsr page_bits)) off v
  else
    let b = Bytes.create width in
    set b 0 v;
    blit_from_bytes t ~src:b ~src_pos:0 ~dst_addr:addr ~len:width

let get8 t addr = read t addr 1 Bytes.get_uint8
let set8 t addr v = write t addr 1 Bytes.set_uint8 (v land 0xff)
let get16 t addr = read t addr 2 Bytes.get_uint16_le
let set16 t addr v = write t addr 2 Bytes.set_uint16_le (v land 0xffff)
let get32 t addr = read t addr 4 Bytes.get_int32_le
let set32 t addr v = write t addr 4 Bytes.set_int32_le v
