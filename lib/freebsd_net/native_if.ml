(* The FreeBSD kernel's own mbuf-native Ethernet attachment — the Table 1/2
 * "FreeBSD" baseline.  An fxp-class busmaster with scatter-gather DMA:
 * outbound mbuf chains are handed to the card fragment by fragment (no CPU
 * flattening copy), inbound frames are loaned to the stack as external
 * mbuf storage (no copy).  There is deliberately NO glue here: this is the
 * monolithic configuration the OSKit numbers are compared against.
 *)

let attach stack nic =
  let machine = stack.Bsd_socket.machine in
  (* No glue, so none is charged: the COM faces a native kernel exports
     cost what the direct calls cost. *)
  Machine.bind_kernel machine Machine.Native;
  let ifp = stack.Bsd_socket.ifp in
  ifp.Netif.if_hwaddr <- Nic.mac nic;
  let xmit m =
    Cost.charge Driver Cost.config.linux_driver_pkt_cycles;
    (* Gather DMA: the controller reads each mbuf fragment in place,
       costed inside [Nic.transmit_v] at DMA rate — no CPU flatten. *)
    Nic.transmit_v nic (Mbuf.m_fragments m);
    (* The controller is done with the fragments; retire the chain
       (cluster storage shared with the socket buffer just drops a
       reference). *)
    Mbuf.m_freem m
  in
  (* The card refuses nothing; no burst is ever held for it. *)
  ifp.Netif.if_start <-
    (fun ms ->
      List.iter xmit ms;
      []);
  let deliver =
    List.iter (fun frame ->
        Cost.charge Driver Cost.config.linux_driver_pkt_cycles;
        Netif.ether_input ifp (Mbuf.m_ext_wrap frame ~off:0 ~len:(Bytes.length frame)))
  in
  (* Hardware RSS: one RX queue per CPU, programmed with the same
     symmetric flow hash the stack shards by, each queue's MSI-X vector
     routed to its CPU — so a flow's frames interrupt their home CPU
     directly and even interrupt entry lands there.  Queue 0 keeps the
     card's own line (at one CPU it is the only queue, and the card
     classifies nothing); the other vectors borrow spare PIC lines (the
     testbed uses 0/4/9 for timer/serial/NIC and 13/14 for disks).  The
     handler re-derives each frame's home CPU and hands it to the netisr,
     which direct-dispatches on a hit; frames the hardware couldn't steer
     to their home CPU (more CPUs than vectors, non-IP traffic) cross
     through the netisr queues instead of being misdelivered. *)
  let ncpus = Machine.ncpus machine in
  let spares = [| 5; 6; 7; 8; 11; 12; 15 |] in
  let queues = min ncpus (1 + Array.length spares) in
  let vectors = Array.init queues (fun q -> if q = 0 then Nic.irq nic else spares.(q - 1)) in
  Nic.set_rss nic ~vectors ~classify:(fun frame -> Rss.cpu_of_frame ~ncpus frame);
  let isr = Netisr.for_machine machine in
  Array.iteri
    (fun q line ->
      Machine.set_irq_handler machine ~irq:line (fun () ->
          Netisr.rx_drain isr nic ~q ~budget:1 deliver);
      Machine.set_irq_affinity machine ~irq:line ~cpu:q;
      Machine.unmask_irq machine ~irq:line)
    vectors
