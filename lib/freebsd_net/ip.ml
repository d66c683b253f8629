(* ENCAPSULATED LEGACY CODE — ip_input.c / ip_output.c.
 *
 * IPv4 with header checksum, fragmentation on output when the datagram
 * exceeds the interface MTU, and reassembly on input (ipq queues keyed by
 * (src, dst, id, proto), dropped after a timeout as in the donor).
 * Transport protocols register input handlers; locally-addressed output is
 * looped back above the interface layer.
 *)

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17
let default_ttl = 64
let frag_ttl_ns = 30_000_000_000 (* 30 s reassembly lifetime *)

type frag = { frag_off : int; frag_more : bool; frag_data : Mbuf.mbuf }

type reass_q = {
  key : int32 * int32 * int * int; (* src, dst, id, proto *)
  mutable frags : frag list;
  mutable expires : int;
}

type t = {
  ifp : Netif.ifnet;
  arp : Arp_resolver.t;
  machine : Machine.t;
  mutable ip_id : int;
  mutable protos : (int * (src:int32 -> dst:int32 -> Mbuf.mbuf -> unit)) list;
  mutable reass : reass_q list;
  mutable ipackets : int;
  mutable opackets : int;
  mutable ofragments : int;
  mutable reassembled : int;
  mutable badsum : int;
  mutable noroute : int;       (* output dropped: destination off-subnet *)
  mutable reass_expired : int; (* fragments freed past the 30 s lifetime *)
  mutable arp_drops : int;     (* packets freed when ARP gave up on them *)
  mutable nomem_drops : int;   (* input datagrams dropped for want of an mbuf *)
}

let set_proto t ~proto handler =
  t.protos <- (proto, handler) :: List.remove_assoc proto t.protos

(* Build the 20-byte header in front of [m] and emit one (possibly
   already-fragmented) IP packet. *)
let emit t m ~proto ~src ~dst ~ttl ~id ~frag_off ~more_frags =
  let m = Mbuf.m_prepend m Codec.ip_hlen in
  Codec.write_ip m.Mbuf.m_data ~off:m.Mbuf.m_off ~total:(Mbuf.m_length m) ~id ~more_frags
    ~frag_off ~ttl ~proto ~src ~dst;
  t.opackets <- t.opackets + 1;
  (* Route: same subnet -> ARP; otherwise no route in this little world.
     Both failure paths count and free rather than raise — emit runs from
     timer events (TCP retransmit), where an exception would take down the
     whole simulation, not just this packet. *)
  if Netif.same_subnet t.ifp dst then
    Arp_resolver.resolve t.arp dst
      ~on_drop:(fun () ->
        t.arp_drops <- t.arp_drops + 1;
        Mbuf.m_freem m)
      (fun mac ->
        Netif.ether_output t.ifp m ~dst_mac:mac ~ethertype:Netif.ethertype_ip)
  else begin
    t.noroute <- t.noroute + 1;
    Mbuf.m_freem m
  end

let rec output t ~proto ~src ~dst ?(ttl = default_ttl) m =
  if Int32.equal dst t.ifp.Netif.if_addr then begin
    (* Local delivery: loop straight back up. *)
    match List.assoc_opt proto t.protos with
    | Some input ->
        t.ipackets <- t.ipackets + 1;
        input ~src ~dst m
    | None -> Mbuf.m_freem m
  end
  else begin
    let id = t.ip_id in
    t.ip_id <- (t.ip_id + 1) land 0xffff;
    let payload = Mbuf.m_length m in
    let max_payload = (t.ifp.Netif.if_mtu - Codec.ip_hlen) land lnot 7 in
    if payload + Codec.ip_hlen <= t.ifp.Netif.if_mtu then
      emit t m ~proto ~src ~dst ~ttl ~id ~frag_off:0 ~more_frags:false
    else begin
      (* Fragment: each piece carries a multiple of 8 bytes except the
         last. *)
      let rec pieces off =
        if off < payload then begin
          let n = min max_payload (payload - off) in
          let more = off + n < payload in
          let piece = Mbuf.m_copym m ~off ~len:n in
          t.ofragments <- t.ofragments + 1;
          emit t piece ~proto ~src ~dst ~ttl ~id ~frag_off:off ~more_frags:more;
          pieces (off + n)
        end
      in
      pieces 0;
      (* The pieces share the original's cluster storage; dropping the
         original just decrements those references. *)
      Mbuf.m_freem m
    end
  end

and input t m =
  let len = Mbuf.m_length m in
  if len < Codec.ip_hlen then Mbuf.m_freem m
  else begin
    let m = Mbuf.m_pullup m Codec.ip_hlen in
    match Codec.parse_ip m.Mbuf.m_data ~off:m.Mbuf.m_off ~len with
    | None -> Mbuf.m_freem m (* bad header lengths: dropped like a runt *)
    | Some h ->
        let m = Mbuf.m_pullup m h.Codec.ihl in
        if Codec.cksum_bytes m.Mbuf.m_data ~off:m.Mbuf.m_off ~len:h.Codec.ihl <> 0 then begin
          t.badsum <- t.badsum + 1;
          Mbuf.m_freem m
        end
        else if not (Int32.equal h.Codec.dst t.ifp.Netif.if_addr) then
          Mbuf.m_freem m (* not ours: drop *)
        else begin
          t.ipackets <- t.ipackets + 1;
          (* Trim link-layer padding beyond the IP total length. *)
          let excess = len - h.Codec.total in
          if excess > 0 then Mbuf.m_adj m (-excess);
          Mbuf.m_adj m h.Codec.ihl;
          let { Codec.src; dst; proto; id; more_frags = more; frag_off; _ } = h in
          if (not more) && frag_off = 0 then deliver t ~proto ~src ~dst m
          else reass_insert t ~key:(src, dst, id, proto) ~frag_off ~more m
        end
  end

and deliver t ~proto ~src ~dst m =
  match List.assoc_opt proto t.protos with
  | Some input -> input ~src ~dst m
  | None -> Mbuf.m_freem m

and reass_insert t ~key ~frag_off ~more m =
  let now = Machine.now t.machine in
  let live, expired = List.partition (fun q -> q.expires > now) t.reass in
  List.iter
    (fun q ->
      List.iter
        (fun f ->
          t.reass_expired <- t.reass_expired + 1;
          Mbuf.m_freem f.frag_data)
        q.frags)
    expired;
  t.reass <- live;
  let q =
    match List.find_opt (fun q -> q.key = key) t.reass with
    | Some q -> q
    | None ->
        let q = { key; frags = []; expires = now + frag_ttl_ns } in
        t.reass <- q :: t.reass;
        q
  in
  q.frags <- { frag_off; frag_more = more; frag_data = m } :: q.frags;
  (* Complete when a no-more-fragments piece exists and the byte ranges
     cover [0, end) without gaps. *)
  let sorted = List.sort (fun a b -> Int.compare a.frag_off b.frag_off) q.frags in
  let rec covered expect = function
    | [] -> None
    | f :: rest ->
        if f.frag_off > expect then None
        else begin
          let e = f.frag_off + Mbuf.m_length f.frag_data in
          if f.frag_more then covered (max expect e) rest
          else if rest = [] then Some e
          else None
        end
  in
  match covered 0 sorted with
  | None -> ()
  | Some total ->
      t.reass <- List.filter (fun x -> x != q) t.reass;
      t.reassembled <- t.reassembled + 1;
      (* Splice the pieces into one chain (ranges may overlap; take the
         leading part of each). *)
      let buf = Bytes.create total in
      List.iter
        (fun f ->
          let len = min (Mbuf.m_length f.frag_data) (total - f.frag_off) in
          Mbuf.m_copy_into f.frag_data ~off:0 ~len ~dst:buf ~dst_pos:f.frag_off)
        sorted;
      List.iter (fun f -> Mbuf.m_freem f.frag_data) sorted;
      let whole = Mbuf.m_ext_wrap buf ~off:0 ~len:total in
      let src, dst, _, proto = key in
      deliver t ~proto ~src ~dst whole

let attach ifp arp machine =
  let t =
    { ifp; arp; machine; ip_id = 1; protos = []; reass = []; ipackets = 0; opackets = 0;
      ofragments = 0; reassembled = 0; badsum = 0; noroute = 0; reass_expired = 0;
      arp_drops = 0; nomem_drops = 0 }
  in
  Netif.set_proto_input ifp ~ethertype:Netif.ethertype_ip
    (fun m ->
      (* The header pullup can fail under the allocation injector; count
         the drop here so it never reaches the driver as an exception. *)
      try input t m with Memfault.Nomem -> t.nomem_drops <- t.nomem_drops + 1);
  t
