(** The kit's one conventional allocator: size classes (kmem-cache style)
    layered on the LMM.

    It answers the §6.2.10 deficiency — the LMM's flexible first-fit walk
    is slow for small hot-path allocations — and is the BSD kernel-malloc
    emulation of §4.7.7.  [Kalloc] takes page-aligned 4 KB slabs from
    {!Lmm.alloc_aligned}, carves each into naturally-aligned blocks of one
    power-of-two size class (16 B .. 4 KB), and serves alloc/free in O(1)
    from per-slab freelists.  Requests above 4 KB fall through to the LMM
    directly.  [free] takes no size: a page -> slab table, grown on demand
    to cover every page the LMM hands out, finds the block's slab.  Empty
    slabs are returned to the LMM, keeping at most one cached per class so
    boundary alloc/free patterns don't thrash. *)

type t

type class_stats = {
  mutable hits : int;      (** allocs served from a freelist *)
  mutable misses : int;    (** allocs that refilled a slab from the LMM *)
  mutable refills : int;   (** slabs taken from the LMM *)
  mutable releases : int;  (** empty slabs returned to the LMM *)
  mutable frees : int;
  mutable live : int;      (** blocks currently allocated *)
}

val slab_size : int
(** Bytes per slab (4096). *)

val min_class : int
val max_class : int
(** Size-class indices: class [c] serves blocks of [1 lsl c] bytes,
    for [min_class] (4 → 16 B) through [max_class] (12 → 4096 B). *)

val create : ?flags:int -> Lmm.t -> t
(** [create lmm] layers a size-class allocator over [lmm].  [flags] is the
    LMM flags mask used for slab and large allocations (default 0). *)

val alloc : t -> size:int -> int option
(** [alloc t ~size] returns the address of a block of at least [size]
    bytes, or [None] if the LMM is exhausted.  Sizes ≤ 4 KB round up to a
    power-of-two class and are served O(1); larger sizes go straight to
    the LMM.  Charges {!Cost.charge_pool_alloc} on a freelist hit and
    {!Cost.charge_alloc} on a miss (slab refill) or large allocation.
    Raises [Invalid_argument] if [size <= 0]. *)

val free : t -> int -> unit
(** [free t addr] returns [addr] to its slab's freelist (the owning slab
    and class are recovered from the address — no size argument).  Raises
    [Invalid_argument] on addresses not allocated from [t], misaligned
    addresses, and double frees. *)

val reap : t -> unit
(** Return every empty slab to the LMM, including the one normally cached
    per class.  After [reap] on a quiescent allocator, [Lmm.avail] is
    restored to its pre-allocation value. *)

val usable_size : t -> int -> int option
(** Block size backing [addr] (class size, or exact size for large
    allocations); [None] if [addr] is unknown. *)

val stats : t -> int -> class_stats
(** Per-class counters; index by class ([min_class .. max_class]). *)

val live_blocks : t -> int
(** Total blocks (and large allocations) currently outstanding. *)

val slabs_held : t -> int
(** Slabs currently held from the LMM. *)

val table_regrows : t -> int
(** Times the page -> slab table was re-allocated to cover a page outside
    its span. *)
