(** A simulated Ethernet controller.

    Hardware-level model of the cards the paper's Linux drivers drove:
    receive rings of bounded depth (overflow drops frames, as real NICs
    do), MAC/broadcast filtering, and an interrupt per received frame.
    The driver components in [lib/linux_dev] program against this. *)

type t

type mac = string
(** 6 bytes. *)

val broadcast : mac

(** [create ~machine ~wire ~mac ~irq ()] attaches a card to the segment. *)
val create :
  machine:Machine.t -> wire:Wire.t -> mac:mac -> irq:int -> ?rx_ring:int -> unit -> t

val mac : t -> mac
val irq : t -> int

(** {2 Receive queues and hardware receive-side scaling}

    The card keeps one or more RX queues, each an [rx_ring]-deep ring
    whose frames interrupt on that queue's line; overflow drops count in
    {!rx_dropped}.  A fresh card has one queue on line [irq] and no hash.
    Multi-queue RX, as on fxp/e1000-class successors: [set_rss] programs
    the on-card hash ([classify], charged no CPU cycles — it runs in the
    device) and one MSI-X vector per queue; an accepted frame lands in
    queue [classify frame mod n] and raises [vectors.(q)], so with
    per-line affinity each flow interrupts its home CPU directly.  With
    more than one queue, counts [Cost.counters.rss_steered] per
    classified frame. *)

val set_rss : t -> vectors:int array -> classify:(bytes -> int) -> unit

(** Number of RX queues. *)
val rx_queues : t -> int

(** [transmit t frame] hands a fully-formed Ethernet frame to the card;
    DMA from driver memory is charged per byte at a fraction of memcpy
    cost.  Frames shorter than 60 bytes are padded, as the hardware does.
    The card takes ownership of [frame] and passes it to the wire
    ({!Wire.send}), so the caller must not touch it again: a driver
    transmits a copy of a buffer it keeps. *)
val transmit : t -> bytes -> unit

(** [transmit_v t frags] hands the card an ordered iovec of
    [(backing, off, len)] fragments; the controller gathers them in place
    (busmaster scatter-gather DMA, charged per byte at DMA rate like
    {!transmit}) and puts one frame on the wire.  Counts one
    [Cost.counters.sg_xmits].  Zero CPU copy for the caller. *)
val transmit_v : t -> (bytes * int * int) list -> unit

(** [pop_rx_burst t ~q ~max] takes up to [max] pending frames off queue
    [q], oldest first: one chunk of a receive drain's budget
    ([Netisr.rx_drain], its only caller in lib). *)
val pop_rx_burst : t -> q:int -> max:int -> bytes list

(** Frames waiting in all queues. *)
val rx_pending : t -> int

(** Frames dropped to ring overflow. *)
val rx_dropped : t -> int

(** Counters for tests/benches. *)
val tx_count : t -> int

val rx_count : t -> int
