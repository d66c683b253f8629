(* ENCAPSULATED LEGACY CODE — if_ether.c: ARP's mbuf framing and input
 * hook.  The resolution table, waiter queue and request backoff are the
 * shared lib/inet Arp_resolver; this file only builds and receives the
 * 28-byte message in mbufs.
 *)

(* Build one ether/IP ARP message in a fresh mbuf and send it.  Best
   effort, as the resolver requires: a refused mbuf is a frame lost on the
   wire, and must not raise — retries fire from a timer callback. *)
let send_arp ifp ~op ~dst_mac ~target_mac ~target_ip =
  try
    let m = Mbuf.m_gethdr () in
    let off = Mbuf.m_put m Codec.arp_len in
    Codec.write_arp m.Mbuf.m_data ~off ~op ~sha:ifp.Netif.if_hwaddr ~spa:ifp.Netif.if_addr
      ~tha:target_mac ~tpa:target_ip;
    Netif.ether_output ifp m ~dst_mac ~ethertype:Netif.ethertype_arp
  with Memfault.Nomem -> ()

let arp_input ifp arp m =
  let len = Mbuf.m_length m in
  if len < Codec.arp_len then Mbuf.m_freem m
  else begin
    let m = Mbuf.m_pullup m Codec.arp_len in
    Arp_resolver.input arp ~my_ip:ifp.Netif.if_addr m.Mbuf.m_data ~off:m.Mbuf.m_off ~len
      ~release:(fun () -> Mbuf.m_freem m)
  end

let attach ifp machine =
  let arp = Arp_resolver.create machine ~send:(send_arp ifp) in
  Netif.set_proto_input ifp ~ethertype:Netif.ethertype_arp
    (fun m -> try arp_input ifp arp m with Memfault.Nomem -> ());
  arp
