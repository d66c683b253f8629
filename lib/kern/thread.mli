(** Cooperative process-level threads.

    The OSKit's encapsulated components assume the two-level blocking model
    of Section 4.7.4: many process-level threads of control, only one
    running at a time, context switches only at well-defined blocking
    points; interrupt-level activity runs to completion.  This module is the
    process level, built on OCaml effect handlers; the interrupt level is
    {!Machine}'s IRQ dispatch.

    A scheduler is per-machine: create one, install it as the machine's run
    hook (done by {!Kernel.create}), spawn threads, and drive the world. *)

type sched

val create_sched : Machine.t -> sched

(** [install s] makes [s] the machine's run hook, so interrupt-level wakeups
    get the process level running again. *)
val install : sched -> unit

(** [spawn s ?cpu ?name f] creates a runnable thread homed on CPU [cpu]
    (default: the CPU the caller executes on, or 0 from outside).  The
    thread runs, yields back, and wakes on its home CPU only.  Uncaught
    exceptions from [f] are recorded (see [failures]) and kill only that
    thread. *)
val spawn : sched -> ?cpu:int -> ?name:string -> (unit -> unit) -> unit

(** Cede the CPU to other runnable threads.  Must be called from a
    thread. *)
val yield : unit -> unit

(** A waker moves its suspended thread back to the run queue; calling it
    more than once is harmless. *)
type waker = unit -> unit

(** [suspend f] blocks the calling thread; [f] receives the waker and must
    arrange for it to be called (from interrupt level or another thread). *)
val suspend : (waker -> unit) -> unit

(** [run s] executes the calling CPU's runnable threads until none remain
    runnable there.  Normally invoked via the machine's run hook, not
    directly. *)
val run : sched -> unit

(** Number of threads not yet terminated. *)
val live : sched -> int

(** Exceptions that escaped threads, oldest first. *)
val failures : sched -> (string * exn) list
