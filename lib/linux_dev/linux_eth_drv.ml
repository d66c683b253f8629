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

(* Interrupt-mitigation window: a busy machine's local clock may run far
   ahead of wire time, and the poll must not wait out that whole lead —
   unbounded RX delay would stall ACK processing into the peers'
   retransmit timers.  The poll fires when the CPU frees up or when this
   timer expires, whichever is sooner, like a NIC's coalescing timer. *)
let napi_coalesce_ns = 100_000

(* Hand each RSS home CPU its slice of a burst as [up cpu slice], arrival
   order kept within a slice (a flow always maps to one CPU, so per-flow
   order is kept).  A burst whose frames share one home CPU — every burst
   at one CPU — is one slice, handed up as it is, not rebuilt. *)
let rec same_cpu ~ncpus cpu = function
  | [] -> true
  | frame :: rest -> Rss.cpu_of_frame ~ncpus frame = cpu && same_cpu ~ncpus cpu rest

let group_by_cpu ~ncpus frames up =
  match frames with
  | [] -> ()
  | first :: _ ->
      let cpu = Rss.cpu_of_frame ~ncpus first in
      if same_cpu ~ncpus cpu frames then up cpu frames
      else begin
        let groups = ref [] in
        List.iter
          (fun frame ->
            let cpu = Rss.cpu_of_frame ~ncpus frame in
            match List.assoc_opt cpu !groups with
            | Some r -> r := frame :: !r
            | None -> groups := !groups @ [ (cpu, ref [ frame ]) ])
          frames;
        List.iter (fun (cpu, r) -> up cpu (List.rev !r)) !groups
      end

(* The NAPI-style poll (Cost.config.rx_batch > 1): frames that arrived
   while the CPU was busy (or during the coalescing window) are already in
   the ring; hand them up [budget] at a time, each home CPU's slice of a
   chunk ONE upcall, until the ring is empty, then unmask and revert to
   interrupts.  Draining fully before unmasking bounds ring
   occupancy — leaving frames behind for another window is how rings
   overflow and drops turn into peer retransmit timeouts.  This is exactly
   Linux's interrupt mitigation loop: under light load it degenerates to
   one interrupt, one frame, no added latency. *)
let rec napi_drain dev ~ncpus ~budget up =
  match Nic.pop_rx_burst dev.hw ~q:0 ~max:budget with
  | [] -> ()
  | frames ->
      group_by_cpu ~ncpus frames up;
      napi_drain dev ~ncpus ~budget up

(* The receive interrupt, built once when the device opens.  Every frame
   goes to its RSS home CPU through the machine's netisr, which runs it in
   place on a hit (every frame at one CPU), so the per-frame driver work,
   the glue crossing and the protocol input all charge the home CPU.  With
   the default budget the ring drains frame by frame, one upcall each;
   with a batch budget the frames stay in the ring and the poll above is
   scheduled. *)
let device_interrupt machine dev =
  let ncpus = Machine.ncpus machine in
  let isr = Netisr.for_machine machine in
  let rx_one frame = dev.netif_rx [ wrap_rx dev frame ] in
  let rx_burst frames = dev.netif_rx (List.map (wrap_rx dev) frames) in
  let up cpu frames = ignore (Netisr.dispatch isr ~cpu rx_burst frames) in
  let poll () =
    dev.napi_scheduled <- false;
    napi_drain dev ~ncpus ~budget:(max 1 Cost.config.rx_batch) up;
    Machine.unmask_irq machine ~irq:(Nic.irq dev.hw)
  in
  fun () ->
    if Cost.config.rx_batch <= 1 then Netisr.rx_drain isr dev.hw ~q:0 rx_one
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
