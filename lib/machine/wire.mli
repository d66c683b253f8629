(** A shared Ethernet segment.

    Models the testbed's 100 Mbps link: frames occupy the medium for their
    serialization time (plus preamble and inter-frame gap, as on real
    Ethernet) and arrive at every other attached station after a propagation
    delay.  Contention is resolved by queueing: a frame offered while the
    medium is busy waits — bandwidth, not collisions, is what shaped the
    paper's numbers. *)

type t
type port

val create : ?bandwidth_bps:int -> ?latency_ns:int -> World.t -> t

(** [attach t ~rx] adds a station; [rx] is invoked (in no particular machine
    context) when a frame arrives.  Stations receive every frame except
    their own transmissions — address filtering is the NIC's job, as on a
    real hub.  The frame [rx] gets is the station's own: no other station
    and not the sender sees those bytes. *)
val attach : t -> rx:(bytes -> unit) -> port

(** [send t port frame ~at] offers [frame] for transmission at sender-local
    time [at].  Returns the time the frame will finish arriving.  The
    sender always pays serialization — faults injected by the attached
    emulator drop, damage, duplicate, or delay the frame in transit, after
    the medium was occupied.  The wire takes ownership of [frame]: the
    sender must not touch it again, and without an emulator the last
    station to hear it is handed [frame] itself, the others copies. *)
val send : t -> port -> bytes -> at:int -> int

(** [set_netem t em] composes a network emulator into delivery; [None]
    restores perfect delivery. *)
val set_netem : t -> Netem.t option -> unit

(** Frames discarded in transit (by any fault: filter, loss, burst,
    partition). *)
val frames_dropped : t -> int

(** Deliveries actually scheduled (duplicates count twice). *)
val frames_delivered : t -> int

(** Total frames ever offered (and serialized), lost or not. *)
val frames_carried : t -> int

(** Total payload bytes ever offered. *)
val bytes_carried : t -> int
