(** The discrete-event simulation world.

    Everything that happens "outside a CPU" — frames propagating on the
    wire, disk mechanisms completing, timer chips firing — is an event on a
    single virtual timeline measured in nanoseconds.  Machines run code
    against their own local clocks (see {!Machine}); the world orders and
    delivers the events that couple them.

    The queue is an indexed binary min-heap on (time, scheduling order):
    scheduling, cancelling and stepping are O(log n), and every event
    knows its own slot. *)

type t

val create : unit -> t

(** Current virtual time in nanoseconds. *)
val now : t -> int

(** [at t time f] schedules [f] to run at [time] (clamped to [now] if in the
    past).  Events at equal times run in scheduling order.  Returns a handle
    for {!cancel}. *)
type event

val at : t -> int -> (unit -> unit) -> event

(** [after t dt f] is [at t (now t + dt) f]. *)
val after : t -> int -> (unit -> unit) -> event

(** [cancel ev] unlinks [ev] from its world's queue immediately, in
    O(log n): the closure is released (collectable even while [ev] is
    still held) and {!pending} no longer counts it.  Idempotent; cancelling
    an already-fired event, or the running one from inside its own action,
    is a no-op, and an action may cancel any other event. *)
val cancel : event -> unit

(** [step t] pops and runs the earliest pending event, advancing [now];
    returns [false] if the queue was empty. *)
val step : t -> bool

(** [run t ~until] steps until the queue is empty, [until ()] is true, or
    the {!fuel} limit is hit. *)
val run : ?until:(unit -> bool) -> t -> unit

(** Number of live pending events, in O(1) (cancelled and fired events are
    removed, not counted). *)
val pending : t -> int

(** Safety valve: [run] raises [Out_of_fuel] after this many events
    (default 200 million), so a livelocked simulation fails loudly. *)
exception Out_of_fuel

val set_fuel : t -> int -> unit
