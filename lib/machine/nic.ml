type mac = string

let broadcast = "\xff\xff\xff\xff\xff\xff"

(* The receive rings.  Hardware receive-side scaling: the controller
   hashes each accepted frame into one of N RX queues, and each queue
   interrupts through its own MSI-X vector, so a flow's receive work
   starts on the CPU its vector is routed to.  [classify] models the
   on-card hash/indirection table the driver programs; it runs in the
   device, so it charges no CPU cycles.  A card without RSS is a card
   with one queue, interrupting on its own line. *)
type t = {
  machine : Machine.t;
  wire : Wire.t;
  mac : mac;
  irq : int;
  rx_ring : int; (* depth of each queue *)
  mutable queues : bytes Queue.t array;
  mutable vectors : int array; (* irq line raised by each queue *)
  mutable classify : bytes -> int;
  mutable port : Wire.port option;
  mutable dropped : int;
  mutable tx : int;
  mutable rx : int;
}

let dst_of frame = if Bytes.length frame >= 6 then Bytes.sub_string frame 0 6 else ""

let create ~machine ~wire ~mac ~irq ?(rx_ring = 32) () =
  if String.length mac <> 6 then invalid_arg "Nic.create: mac must be 6 bytes";
  let t =
    { machine; wire; mac; irq; rx_ring; queues = [| Queue.create () |]; vectors = [| irq |];
      classify = (fun _ -> 0); port = None; dropped = 0; tx = 0; rx = 0 }
  in
  let rx frame =
    let dst = dst_of frame in
    if String.equal dst t.mac || String.equal dst broadcast then begin
      let n = Array.length t.queues in
      let q = if n = 1 then 0 else t.classify frame mod n in
      if Queue.length t.queues.(q) >= t.rx_ring then t.dropped <- t.dropped + 1
      else begin
        Queue.add frame t.queues.(q);
        t.rx <- t.rx + 1;
        if n > 1 then Cost.count_rss_steered ();
        Machine.raise_irq t.machine ~irq:t.vectors.(q)
      end
    end
  in
  t.port <- Some (Wire.attach wire ~rx);
  t

(* [set_rss t ~vectors ~classify] programs the indirection table: queue [q]
   receives frames with [classify frame mod n = q] and interrupts on line
   [vectors.(q)].  Each queue has its own [rx_ring]-deep ring. *)
let set_rss t ~vectors ~classify =
  if Array.length vectors = 0 then invalid_arg "Nic.set_rss: no queues";
  t.queues <- Array.init (Array.length vectors) (fun _ -> Queue.create ());
  t.vectors <- Array.copy vectors;
  t.classify <- classify

let rx_queues t = Array.length t.queues

let mac t = t.mac
let irq t = t.irq

let min_frame = 60

let transmit t frame =
  let frame =
    if Bytes.length frame >= min_frame then frame
    else begin
      let padded = Bytes.make min_frame '\000' in
      Bytes.blit frame 0 padded 0 (Bytes.length frame);
      padded
    end
  in
  (* Bus-master DMA out of driver memory: cheaper than a CPU copy. *)
  Cost.charge Wire (Bytes.length frame);
  t.tx <- t.tx + 1;
  let at = Machine.now t.machine in
  match t.port with
  | Some port -> ignore (Wire.send t.wire port frame ~at)
  | None -> assert false

(* Scatter-gather transmit: the controller walks an iovec of fragments,
   reading each in place — the one unavoidable gather on a zero-copy send
   path, and it happens here, in the DMA engine, at DMA rate (charged per
   byte by [transmit] above), not as a CPU memcpy.  The blit below is the
   simulated medium's bookkeeping, exactly like the [Bytes.sub] a linear
   transmit does in the driver. *)
let transmit_v t frags =
  let len = List.fold_left (fun a (_, _, n) -> a + n) 0 frags in
  let frame = Bytes.create len in
  let at = ref 0 in
  List.iter
    (fun (data, off, n) ->
      Bytes.blit data off frame !at n;
      at := !at + n)
    frags;
  Cost.count_sg_xmit ();
  transmit t frame

(* Up to [max] frames off one queue, oldest first: the one pop, a
   receive drain's chunk (Netisr.rx_drain).  Built front to back, so a
   chunk of one costs one cons cell and nothing is reversed. *)
let rec take_rx queue max =
  if max <= 0 || Queue.is_empty queue then []
  else
    let frame = Queue.take queue in
    frame :: take_rx queue (max - 1)

let pop_rx_burst t ~q ~max = take_rx t.queues.(q) max

let rx_pending t = Array.fold_left (fun n q -> n + Queue.length q) 0 t.queues
let rx_dropped t = t.dropped
let tx_count t = t.tx
let rx_count t = t.rx
