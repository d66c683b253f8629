(** One simulated PC, with one or more CPUs.

    A machine owns per-CPU cycle clocks, physical memory, and a 16-line
    interrupt controller with per-line CPU affinity.  OS code "runs on" a
    machine via {!run_in}/{!run_on}, which route {!Cost} charges to the
    executing CPU's clock.  Devices raise interrupts through {!raise_irq};
    handlers run at interrupt level, to completion, on the line's servicing
    CPU — exactly the execution model the OSKit's encapsulated components
    assume (Section 4.7.4).

    All CPUs advance in lockstep virtual time: each CPU's clock may run
    ahead of the world while it computes, and catches up to the world clock
    whenever a world event (interrupt, kick, timer) enters it.  The CPU
    count is fixed at {!create} from [Cost.config.ncpus] (default 1, which
    reproduces the single-CPU machine exactly). *)

type t

val create : ?name:string -> ?ram_bytes:int -> ?ncpus:int -> World.t -> t

val name : t -> string
val world : t -> World.t
val ram : t -> Physmem.t

(** Number of CPUs (fixed at creation). *)
val ncpus : t -> int

(** Local time of the executing CPU, ns.  Always >= the world time of the
    last event that CPU saw; may run ahead of the world while it
    computes. *)
val now : t -> int

(** [cpu_now t ~cpu] — local time of a specific CPU. *)
val cpu_now : t -> cpu:int -> int

(** [cpu_busy_ns t ~cpu] — total ns of work charged to that CPU (local
    time minus idle sync-forward), the sum of its {!ledger} row: the
    utilization numerator. *)
val cpu_busy_ns : t -> cpu:int -> int

(** [ledger t ?cpu layer] — ns charged to [layer] on [cpu], or on every
    CPU of [t] without [~cpu]. *)
val ledger : t -> ?cpu:int -> Cost.layer -> int

(** [crossings t site] — glue crossings made at [site] on [t]. *)
val crossings : t -> Cost.site -> int

(** The CPU of [t] the caller executes on; 0 when [t] is not the executing
    machine (device models and the test harness act as CPU 0). *)
val cpu : t -> int

(** [run_in t f] executes [f] in this machine's context: cost charges
    advance [now t].  Enters on CPU 0 from outside; preserves the executing
    CPU when nested.  Reentrant across machines. *)
val run_in : t -> (unit -> 'a) -> 'a

(** [run_on t ~cpu f] executes [f] on a specific CPU of [t]: that CPU's
    clock first catches up to world time (an idle CPU's clock is stale),
    then charges land on it.  Nestable, like {!run_in}. *)
val run_on : t -> cpu:int -> (unit -> 'a) -> 'a

(** The machine currently executing, if any. *)
val current : unit -> t option

(** {2 Per-machine state}

    A component that keeps state for each machine it runs on (the bus
    inventory, the netisr queues) keeps it here, on the machine, so two
    machines — of one testbed or of two — never share it, whatever their
    names. *)

(** A slot in every machine's store, holding one ['a] per machine. *)
type 'a key

(** [key init] makes a new slot (normally once, at module
    initialisation); [init m] builds [m]'s value on its first {!get}. *)
val key : (t -> 'a) -> 'a key

(** [get m k] is [m]'s value for [k], built by [k]'s [init] on first use.
    O(1), and allocates nothing once the value exists. *)
val get : t -> 'a key -> 'a

(** {2 The kernel a machine runs} *)

(** How a machine's protocol stack is bound to its NIC: [Native] — linked
    directly against the driver, as the paper's FreeBSD and Linux
    baselines are — or [Oskit] — through the fdev glue's COM interfaces. *)
type kernel = Native | Oskit

(** [bind_kernel t k] records that [t] runs a [k] kernel; the code that
    binds a stack to a NIC calls it.  A native machine has no component
    glue, so {!Cost.charge_glue_crossing} charges and counts nothing
    while it executes.  Raises [Invalid_argument] if [t] already bound the other
    kind. *)
val bind_kernel : t -> kernel -> unit

(** Whether [t] bound a native kernel ({!bind_kernel}). *)
val native : t -> bool

(** {2 Interrupts} *)

val irq_lines : int (* 16, like the PC's cascaded 8259s *)

(** [set_irq_handler t ~irq f] installs the handler (replacing any).  The
    handler runs in machine context at interrupt level. *)
val set_irq_handler : t -> irq:int -> (unit -> unit) -> unit

(** [mask_irq] / [unmask_irq]: per-line enable, as on the PIC;
    [irq_masked] reads it (a driver's pending poll keeps its line masked). *)
val mask_irq : t -> irq:int -> unit

val unmask_irq : t -> irq:int -> unit
val irq_masked : t -> irq:int -> bool

(** [set_irq_affinity t ~irq ~cpu] routes a line to a CPU (IO-APIC style).
    Default: every line services on CPU 0. *)
val set_irq_affinity : t -> irq:int -> cpu:int -> unit

val irq_affinity : t -> irq:int -> int

(** Global interrupt flag (cli/sti).  Interrupts raised while disabled or
    masked are latched and delivered on enable/unmask. *)
val interrupts_enabled : t -> bool

val enable_interrupts : t -> unit
val disable_interrupts : t -> unit

(** [with_interrupts_disabled t f] — the critical-section idiom. *)
val with_interrupts_disabled : t -> (unit -> 'a) -> 'a

(** [raise_irq t ~irq] asserts the line.  Called by device models (from
    world events) or by software for testing.  Delivered on the line's
    servicing CPU (inline when that CPU is executing, else via a world
    event — the IPI analogue).  Charges interrupt entry cost when
    dispatching. *)
val raise_irq : t -> irq:int -> unit

(** {2 Hooks} *)

(** [set_run_hook t f]: [f] is the client kernel's "run runnable process-
    level work" entry; the machine invokes it after interrupt dispatch and
    when {!kick}ed.  Default: nothing. *)
val set_run_hook : t -> (unit -> unit) -> unit

(** Schedule the run hook to execute (via a world event) at the calling
    CPU's current local time. *)
val kick : t -> unit

(** [kick_on t ~cpu] — like {!kick}, but the run hook executes on a
    specific CPU (used to wake a thread homed there). *)
val kick_on : t -> cpu:int -> unit

(** {2 Time services} *)

(** [at t time f] runs [f] at interrupt level at local/world time [time],
    on the CPU that armed it (like a local-APIC timer). *)
val at : t -> int -> (unit -> unit) -> World.event

(** [at_on t ~cpu time f] — like {!at} on an explicit CPU. *)
val at_on : t -> cpu:int -> int -> (unit -> unit) -> World.event

(** [after t dt f] is [at t (now t + dt) f]. *)
val after : t -> int -> (unit -> unit) -> World.event
