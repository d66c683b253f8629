(** A simulated IDE-class disk.

    Sector-addressed storage with 1996-era mechanics: per-operation seek and
    rotational latency plus media-rate transfer, one operation in flight,
    completion signalled by interrupt.  The media is a demand-zero
    {!Physmem} store, so sectors never written cost no host memory.  The Linux-style block drivers in
    [lib/linux_dev] queue requests against this model. *)

type t

val create :
  machine:Machine.t ->
  sectors:int ->
  irq:int ->
  ?sector_size:int ->
  ?seek_ns:int ->
  ?transfer_bps:int ->
  unit ->
  t

val sector_size : t -> int
val sectors : t -> int
val irq : t -> int

type op = Read of { start : int; count : int } | Write of { start : int; data : bytes }

type completion = {
  id : int;
  result : (bytes, Error.t) result;
      (** read data for [Read]; [Bytes.empty] for [Write] *)
}

(** [submit t op] queues an operation; returns its id.  Completion raises
    the disk's IRQ; the handler collects it with [take_completion]. *)
val submit : t -> op -> int

val take_completion : t -> completion option

(** Synchronous backdoor for formatting images in tests and image builders
    (bypasses the mechanical model — no cost is charged).  A range outside
    the media raises [Physmem.Fault]. *)
val read_raw : t -> start:int -> count:int -> bytes

val write_raw : t -> start:int -> bytes -> unit
