(* ENCAPSULATED LEGACY CODE — Linux 2.0.29-style Ethernet drivers.
 *
 * One driver core with the per-chip "personalities" of the donor tree's
 * fifty-odd drivers.  The code keeps Linux's structure: a `struct device'
 * with open/stop/hard_start_xmit entry points, an interrupt handler that
 * pulls frames off the card and feeds netif_rx, and eth_type_trans for
 * protocol demux.  Everything traffics in sk_buffs.
 *)

let eth_hlen = 14
let eth_p_ip = 0x0800
let eth_p_arp = 0x0806

type device = {
  name : string; (* eth0, eth1, ... *)
  model : string;
  hw : Nic.t;
  dev_addr : string; (* station MAC *)
  mutable opened : bool;
  (* The upcall into the stack: the frames one interrupt drains alone
     (one each) or one batched poll hands up (Cost.config.rx_batch > 1). *)
  mutable netif_rx : Skbuff.sk_buff list -> unit;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable irq_requested : bool;
  mutable napi_scheduled : bool; (* poll pending; the line stays masked *)
}

(* The chips this donor tree has drivers for; a probe matches the model
   string the "card" reports, as the ISA/PCI probe would. *)
let supported_models =
  [ "NE2000"; "3c509"; "3c59x"; "3c905"; "tulip"; "eepro100"; "lance"; "rtl8139";
    "smc-ultra"; "de4x5" ]

let nothing_rx (_ : Skbuff.sk_buff list) = ()

(* eth_type_trans: strip the link header, note the protocol. *)
let eth_type_trans skb =
  let off = skb.Skbuff.head in
  let proto =
    (Char.code (Bytes.get skb.Skbuff.skb_data (off + 12)) lsl 8)
    lor Char.code (Bytes.get skb.Skbuff.skb_data (off + 13))
  in
  skb.Skbuff.protocol <- proto;
  proto

(* Wrap one received DMA buffer in an sk_buff (the card DMAed it; no CPU
   copy).  The per-frame hardware work (ring handling, device programming)
   is charged per frame whatever the batch budget; the budget changes only
   how many frames ride one upcall into the stack. *)
let wrap_rx dev frame =
  Cost.charge Driver Cost.config.linux_driver_pkt_cycles;
  let skb = Skbuff.skb_wrap frame in
  skb.Skbuff.dev_name <- dev.name;
  ignore (eth_type_trans skb);
  dev.rx_packets <- dev.rx_packets + 1;
  skb

(* A chunk's frames as sk_buffs, in order (no closure per chunk). *)
let rec wrap_all dev = function
  | [] -> []
  | frame :: rest ->
      let skb = wrap_rx dev frame in
      skb :: wrap_all dev rest

(* Interrupt-mitigation window: a busy machine's local clock may run far
   ahead of wire time, and the poll must not wait out that whole lead —
   unbounded RX delay would stall ACK processing into the peers'
   retransmit timers.  The poll fires when the CPU frees up or when this
   timer expires, whichever is sooner, like a NIC's coalescing timer. *)
let napi_coalesce_ns = 100_000

(* The receive interrupt, built once when the device opens.  Both the
   interrupt and the poll drain the ring through the machine's netisr
   (Netisr.rx_drain), which hands each RSS home CPU its slice of a chunk
   and runs it in place on a hit (every frame at one CPU), so the
   per-frame driver work, the glue crossing and the protocol input all
   charge the home CPU.  With the default budget the interrupt drains the
   ring frame by frame, one upcall each.  With a batch budget
   (Cost.config.rx_batch > 1) the interrupt masks the line and schedules
   the NAPI-style poll: frames that arrived while the CPU was busy (or
   during the coalescing window) are already in the ring, and the poll
   hands them up [rx_batch] at a time, each home CPU's slice of a chunk
   one upcall, until the ring is empty, then unmasks and reverts to
   interrupts.  Draining fully before unmasking bounds ring occupancy:
   leaving frames behind for another window is how rings overflow and
   drops turn into peer retransmit timeouts.  This is Linux's interrupt
   mitigation loop: under light load it degenerates to one interrupt,
   one frame, no added latency. *)
let device_interrupt machine dev =
  let isr = Netisr.for_machine machine in
  let deliver frames = dev.netif_rx (wrap_all dev frames) in
  let poll () =
    dev.napi_scheduled <- false;
    Netisr.rx_drain isr dev.hw ~q:0 ~budget:(max 1 Cost.config.rx_batch) deliver;
    Machine.unmask_irq machine ~irq:(Nic.irq dev.hw)
  in
  fun () ->
    if Cost.config.rx_batch <= 1 then Netisr.rx_drain isr dev.hw ~q:0 ~budget:1 deliver
    else if Nic.rx_pending dev.hw > 0 && not dev.napi_scheduled then begin
      dev.napi_scheduled <- true;
      Machine.mask_irq machine ~irq:(Nic.irq dev.hw);
      let wnow = World.now (Machine.world machine) in
      let lead = max 0 (Machine.now machine - wnow) in
      ignore (Machine.at machine (wnow + min lead napi_coalesce_ns) poll)
    end

(* A probe names the cards it finds on its machine eth0, eth1, ... in bus
   order. *)
let probe_devices osenv =
  Bus.hardware (Osenv.machine osenv)
  |> List.filter_map (function
       | Bus.Hw_nic { model; nic } when List.mem model supported_models -> Some (model, nic)
       | Bus.Hw_nic _ | Bus.Hw_disk _ | Bus.Hw_serial _ -> None)
  |> List.mapi (fun i (model, nic) ->
         { name = "eth" ^ string_of_int i;
           model;
           hw = nic;
           dev_addr = Nic.mac nic;
           opened = false;
           netif_rx = nothing_rx;
           napi_scheduled = false;
           tx_packets = 0;
           rx_packets = 0;
           irq_requested = false })

let dev_open osenv dev ~rx =
  if dev.opened then Result.Error Error.Busy
  else begin
    dev.netif_rx <- rx;
    let handler = device_interrupt (Osenv.machine osenv) dev in
    match Osenv.irq_request osenv ~irq:(Nic.irq dev.hw) ~handler with
    | Ok () ->
        dev.irq_requested <- true;
        dev.opened <- true;
        Ok ()
    | Result.Error _ as e -> e
  end

let dev_stop osenv dev =
  if dev.opened then begin
    Osenv.irq_free osenv ~irq:(Nic.irq dev.hw);
    dev.opened <- false;
    dev.netif_rx <- nothing_rx
  end

(* hard_start_xmit: hand a fully-formed frame to the card. *)
let hard_start_xmit dev skb =
  if not dev.opened then Error.fail Error.Nodev;
  Cost.charge Driver Cost.config.linux_driver_pkt_cycles;
  dev.tx_packets <- dev.tx_packets + 1;
  if Skbuff.skb_is_nonlinear skb then
    (* Nonlinear sk_buff: program the card's scatter-gather ring with the
       fragment list — the controller gathers in place, no CPU flatten. *)
    Nic.transmit_v dev.hw (Skbuff.skb_fragments skb)
  else begin
    (* The card DMAs straight out of the sk_buff's contiguous data. *)
    let frame = Bytes.sub skb.Skbuff.skb_data skb.Skbuff.head skb.Skbuff.len in
    Nic.transmit dev.hw frame
  end

(* Build the 14-byte header in the skb's headroom (eth_header). *)
let eth_header skb ~src ~dst ~proto =
  let off = Skbuff.skb_push skb eth_hlen in
  Bytes.blit_string dst 0 skb.Skbuff.skb_data off 6;
  Bytes.blit_string src 0 skb.Skbuff.skb_data (off + 6) 6;
  Bytes.set skb.Skbuff.skb_data (off + 12) (Char.chr (proto lsr 8));
  Bytes.set skb.Skbuff.skb_data (off + 13) (Char.chr (proto land 0xff));
  skb.Skbuff.link_ready <- true
