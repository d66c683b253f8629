(** Simulated physical memory.

    Demand-zero pages standing in for the PC's RAM.  The kernel-support and
    memory-manager components operate on *addresses into this store*, so
    page tables, boot-module placement, DMA windows and the LMM's
    physical-memory pools behave as they do on the real machine, including
    the PC quirks the paper calls out (the 16 MB ISA DMA limit, the sub-1 MB
    "low" region).

    The store is an array of 4 KB pages that all share one read-only zero
    page until first written, so an untouched RAM costs one word per page
    rather than its size in bytes.  Every accessor behaves as on a flat
    array: accesses and copies may straddle pages, and anything reaching
    outside [0, size) raises {!Fault} before a byte moves.  The simulated
    disk media and the RAM disk ({!Disk}, [Mem_blkio]) are stores too. *)

type t

(** [create ~bytes] makes a RAM of that many bytes (rounded up to 4 KB). *)
val create : bytes:int -> t

val size : t -> int

(** PC memory-type boundaries (Section 3.3). *)

val low_limit : int (* 1 MB: real-mode/BIOS reachable *)
val dma_limit : int (* 16 MB: ISA DMA reachable *)

val get8 : t -> int -> int
val set8 : t -> int -> int -> unit
val get16 : t -> int -> int
val set16 : t -> int -> int -> unit
val get32 : t -> int -> int32
val set32 : t -> int -> int32 -> unit

(** [blit_from_bytes t ~src ~dst_addr ~len] copies OCaml bytes into RAM.
    The copies raise [Invalid_argument] when the OCaml side of the range
    lies outside its buffer. *)
val blit_from_bytes : t -> src:bytes -> src_pos:int -> dst_addr:int -> len:int -> unit

val blit_to_bytes : t -> src_addr:int -> dst:bytes -> dst_pos:int -> len:int -> unit

(** [fill t ~addr ~len byte] *)
val fill : t -> addr:int -> len:int -> int -> unit

(** The page size: 4 KB. *)
val page : int

(** [map_page t ~addr ~len] is [Some (page, off)] when [addr, addr+len)
    lies in one page (and [len > 0]): the store's own bytes of that page,
    the range starting [off] bytes in, to be read in place.  An untouched
    page gets bytes of its own first, so the shared zero page is never
    handed out.  The bytes are the store's: a later write changes them,
    unless the store gives the page fresh bytes first with {!unshare}. *)
val map_page : t -> addr:int -> len:int -> (bytes * int) option

(** [unshare t ~addr ~len] gives every page of the range that has bytes
    of its own fresh bytes with the same contents, so bytes handed out by
    {!map_page} no longer change when the store is written there. *)
val unshare : t -> addr:int -> len:int -> unit

(** Raised on any access outside [0, size). *)
exception Fault of int
