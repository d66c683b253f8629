(** Deterministic network emulation.

    A [Netem.t] decides the fate of every frame offered to the wire:
    deliver, drop (independent loss, Gilbert–Elliott burst loss, timed
    partition, or an arbitrary filter), corrupt a single payload bit,
    duplicate, or delay for reordering.  All probabilistic choices come
    from one explicit splitmix64 PRNG seeded at [create] and consumed in
    a fixed per-frame draw order, so a run with the same seed and the
    same offered-frame sequence replays its fault schedule exactly. *)

(** Gilbert–Elliott two-state burst-loss channel: per-frame transition
    probabilities between the good and bad states, and a loss probability
    in each. *)
type ge = {
  p_good_bad : float;
  p_bad_good : float;
  loss_good : float;
  loss_bad : float;
}

type policy = {
  loss : float;              (** independent per-frame loss probability *)
  ge : ge option;            (** burst-loss channel, composed after [loss] *)
  corrupt : float;           (** probability of flipping one payload bit *)
  corrupt_min_len : int;     (** only corrupt frames at least this long *)
  duplicate : float;         (** probability the frame arrives twice *)
  reorder : float;           (** probability of extra delivery delay *)
  reorder_delay_ns : int;    (** max extra delay drawn for reordered frames *)
  filter : (bytes -> bool) option;
                             (** arbitrary drop predicate, judged first *)
}

(** Everything off / pass-through. *)
val default_policy : policy

type counters = {
  mutable offered : int;
  mutable delivered : int;   (** scheduled deliveries, duplicates included *)
  mutable lost : int;
  mutable burst_lost : int;
  mutable filtered : int;
  mutable partitioned : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
}

type t

val create : ?seed:int -> ?policy:policy -> unit -> t

(** An emulator whose only effect is dropping frames the predicate
    matches.  The predicate is called exactly once per offered frame, in
    send order, so it may count frames to pick the ones it drops. *)
val of_filter : (bytes -> bool) -> t

(** [set_policy t ?port p] installs [p] for frames sent from wire port
    [port] (the wire numbers its ports from 0 in attach order), or as the default for all ports when [port] is omitted.
    Per-direction asymmetry (lossy data path, clean ACK path) falls out
    of per-port policies. *)
val set_policy : t -> ?port:int -> policy -> unit

(** [add_partition t ~from_ns ~until_ns] blackholes every frame offered in
    the half-open window [from_ns, until_ns). *)
val add_partition : t -> from_ns:int -> until_ns:int -> unit

val counters : t -> counters

(** [judge t ~now ~port frame] returns the deliveries the frame earned:
    [] if dropped, one or two [(frame, extra_delay_ns)] pairs otherwise.
    Returned frames are private copies whenever they differ from the
    input.  Consumes PRNG draws in a fixed order regardless of outcome. *)
val judge : t -> now:int -> port:int -> bytes -> (bytes * int) list
