(** Recognizing one's own buffers at a glue boundary (Section 4.7.3).

    A glue importing a [bufio] first asks it for the glue's private buffer
    interface: a hit is one of its own buffers coming back, unwrapped with
    no copy.  Both donor glues open that way — the FreeBSD glue asks for
    its mbuf, the Linux glue for its sk_buff.

    A memo keeps one verdict per producer binding.  The first frame pays
    the COM dispatch; once a producer is known to be foreign, later frames
    skip the (always-failing) query and go straight to the mapping
    fallbacks.  Safe because a recognition miss only ever costs the unwrap
    shortcut, never correctness: a native buffer arriving after a negative
    verdict still maps. *)

(** [None] until the first query; then whether the producer's buffers
    carried the interface. *)
type t = bool option ref

(** A fresh memo, for one producer binding. *)
val create : unit -> t

(** [query ?memo io iid] asks [io] for [iid], counting one COM call
    ({!Cost.count_com_call}) unless [memo] already holds a negative
    verdict, and records the first verdict in [memo].  A hit drops the
    query's reference before returning the unwrapped buffer. *)
val query : ?memo:t -> Io_if.bufio -> 'a Iid.t -> ('a, Error.t) result
