(** Netisr-style per-CPU protocol shards (after DragonFly BSD).

    One bounded message queue per CPU; {!dispatch} either runs the handler
    directly (already on the home CPU — at [ncpus = 1] this is every frame,
    with no allocation) or enqueues it and schedules a drain on the home
    CPU via a world event.  Queues are FIFO per CPU, so
    per-flow ordering is preserved; overflow drops and counts
    ([Cost.counters.netisr_drops]). *)

type t

(** The machine's netisr instance, kept on the machine and created on
    first use with queues bounded at [Cost.config.netisr_qmax]. *)
val for_machine : Machine.t -> t

(** [dispatch t ~cpu f x] runs [f x] on CPU [cpu].  Returns [false] if the
    frame was dropped on queue overflow ([f] will never run). *)
val dispatch : t -> cpu:int -> ('a -> unit) -> 'a -> bool

(** Frames steered to [cpu] but not yet processed. *)
val queue_len : t -> cpu:int -> int

(** [rx_drain t nic ~q ~budget deliver] is the one receive loop of every
    NIC driver: it takes the frames off [nic]'s queue [q] [budget] at a
    time until the queue is empty, and dispatches each RSS home CPU's
    slice of a chunk ({!Rss.cpu_of_frame}) as one [deliver frames], in
    arrival order within the slice and slices in order of first
    appearance.  A budget of 1 delivers frame by frame.  A slice the
    netisr drops is gone. *)
val rx_drain : t -> Nic.t -> q:int -> budget:int -> (bytes list -> unit) -> unit
