(** The List Memory Manager (Section 3.3).

    Manages allocation of physical (or virtual) address ranges with the PC's
    awkward constraints in mind: memory is organised into {e regions}, each
    carrying a client-defined flag mask (memory "type": below 1 MB, below
    16 MB for ISA DMA, ...) and a priority; allocations specify required
    flags, and size/alignment/address-range constraints.

    Following the kit's open-implementation philosophy (Section 4.6), the
    free list is walkable ({!find_free}, {!iter_free}) and regions are
    inspectable — clients are allowed to depend on this implementation.

    Addresses are plain integers; the LMM never touches the memory it
    manages, so it can equally manage [Physmem] addresses, virtual
    addresses, or any other numeric namespace. *)

type t

val create : unit -> t

(** Conventional x86 flag bits (clients may define their own). *)

val flag_low_1mb : int (* below 1 MB: real-mode / BIOS reachable *)
val flag_low_16mb : int (* below 16 MB: ISA DMA reachable *)

(** [add_region t ~min ~size ~flags ~pri] declares a region; does NOT make
    any of it allocatable (use [add_free]).  Regions must not overlap. *)
val add_region : t -> min:int -> size:int -> flags:int -> pri:int -> unit

(** [add_free t ~addr ~size] donates an address range, splitting it across
    the declared regions that contain it; parts covered by no region are
    dropped (mirroring the C LMM). *)
val add_free : t -> addr:int -> size:int -> unit

(** [alloc t ~size ~flags] returns the base of a block from the
    highest-priority region whose flags include all of [flags]. *)
val alloc : t -> size:int -> flags:int -> int option

(** [alloc_aligned t ~size ~flags ~align_bits ~align_ofs] additionally
    requires [(addr - align_ofs)] to be a multiple of [2^align_bits]. *)
val alloc_aligned : t -> size:int -> flags:int -> align_bits:int -> align_ofs:int -> int option

(** [alloc_gen] is the fully general allocator: alignment plus an inclusive
    address window [bounds_min, bounds_max]. *)
val alloc_gen :
  t ->
  size:int ->
  flags:int ->
  align_bits:int ->
  align_ofs:int ->
  bounds_min:int ->
  bounds_max:int ->
  int option

(** [alloc_page t ~flags] is a 4 KB-aligned 4 KB allocation. *)
val alloc_page : t -> flags:int -> int option

(** [free t ~addr ~size] returns a block.  Raises [Invalid_argument] if the
    range is not inside any region or overlaps memory that is already
    free (double free). *)
val free : t -> addr:int -> size:int -> unit

(** Total free bytes in regions whose flags include all of [flags]. *)
val avail : t -> flags:int -> int

(** [find_free t ~addr] returns the first free block at or after [addr] as
    [(base, size, region_flags)]. *)
val find_free : t -> addr:int -> (int * int * int) option

(** Walk every free block, ascending: [f ~addr ~size ~flags]. *)
val iter_free : t -> (addr:int -> size:int -> flags:int -> unit) -> unit

(** Free-list nodes examined so far: by {!alloc_gen}'s first-fit search,
    by the split that replaces the chosen block, and by the ordered walk
    that inserts a freed or donated range.  A counter only: it charges
    nothing. *)
val visits : t -> int

(** Diagnostic dump. *)
val pp : Format.formatter -> t -> unit
