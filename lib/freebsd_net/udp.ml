(* ENCAPSULATED LEGACY CODE — udp_usrreq.c. *)

let udp_hlen = Codec.udp_hlen

type pcb = {
  mutable lport : int;
  mutable laddr : int32;
  mutable rport : int;
  mutable raddr : int32;
  rcv_q : (int32 * int * bytes) Queue.t; (* src ip, src port, payload *)
  mutable rcv_hiwat : int;
  mutable rcv_cc : int;
  mutable on_readable : unit -> unit;
  mutable dropped : int;
}

type t = {
  ip : Ip.t;
  mutable pcbs : pcb list;
  (* hashed demux (lib/inet): exact 4-tuple key for connected pcbs,
     (0, 0, lport) for wildcard binds.  Rebuilt on bind/alloc/detach — the
     only places lport changes. *)
  demux : pcb Demux.t;
  ports : Port_alloc.t;  (* the pcbs' lport use counts, ephemeral cursor *)
  mutable badlen : int;    (* runts and length fields the datagram cannot hold *)
  mutable badsum : int;    (* datagrams dropped on checksum failure *)
  mutable noport : int;    (* datagrams with no listening pcb *)
  mutable fulldrops : int; (* datagrams dropped at a full socket buffer *)
  mutable unreach_sent : int; (* demux misses answered with ICMP port unreachable *)
  mutable icmp_ratelimited : int; (* unreachables suppressed by the token bucket *)
  mutable nomem_drops : int; (* datagrams dropped for want of an mbuf *)
  icmp_bucket : Token_bucket.t; (* so a UDP scan cannot amplify *)
}

let hash_add t p =
  if p.lport <> 0 then Demux.add t.demux ~raddr:p.raddr ~rport:p.rport ~lport:p.lport p

let hash_remove t p = Demux.remove t.demux ~raddr:p.raddr ~rport:p.rport ~lport:p.lport ~same:(( == ) p)

let icmp_allowed t =
  Token_bucket.allow t.icmp_bucket
  || begin
       t.icmp_ratelimited <- t.icmp_ratelimited + 1;
       false
     end

(* An unbound pcb (lport 0) is never hashed: a datagram to port 0 must
   not land on whichever socket is unbound. *)
let find_pcb t ~src ~sport ~dport =
  Demux.lookup_dgram t.demux ~raddr:src ~rport:sport ~lport:dport

let attach ip =
  let t =
    { ip; pcbs = []; demux = Demux.create 16; ports = Port_alloc.create ~lo:49152 ~hi:65535;
      badlen = 0; badsum = 0; noport = 0; fulldrops = 0; unreach_sent = 0;
      icmp_ratelimited = 0; nomem_drops = 0; icmp_bucket = Token_bucket.create ip.Ip.machine }
  in
  let input ~src ~dst:_ m =
    (* Consumes m: the payload is copied out, so the chain is always freed. *)
    let total = Mbuf.m_length m in
    let m = if total < udp_hlen then m else Mbuf.m_pullup m udp_hlen in
    (match Codec.parse_udp m.Mbuf.m_data ~off:m.Mbuf.m_off ~len:total with
    | None -> t.badlen <- t.badlen + 1
    | Some { Codec.uh_sport = sport; uh_dport = dport; uh_ulen = ulen; uh_sum = csum } ->
        let sum_ok =
          csum = 0
          || In_cksum.cksum_chain m ~off:0 ~len:ulen
               ~init:(Codec.pseudo_header ~src ~dst:t.ip.Ip.ifp.Netif.if_addr
                        ~proto:Ip.proto_udp ~len:ulen)
             = 0
        in
        if not sum_ok then t.badsum <- t.badsum + 1
        else begin
          match find_pcb t ~src ~sport ~dport with
          | None ->
              (* No listener: answer with ICMP port unreachable (the
                 donor's icmp_error), quoting the UDP header so the
                 sender can match the error to a socket. *)
              t.noport <- t.noport + 1;
              if icmp_allowed t then begin
                t.unreach_sent <- t.unreach_sent + 1;
                Icmp.send_port_unreach t.ip ~dst:src
                  ~payload:(Mbuf.m_copydata m ~off:0 ~len:udp_hlen)
              end
          | Some p ->
              let len = ulen - udp_hlen in
              if p.rcv_cc + len > p.rcv_hiwat then begin
                p.dropped <- p.dropped + 1;
                t.fulldrops <- t.fulldrops + 1
              end
              else begin
                let payload = Mbuf.m_copydata m ~off:udp_hlen ~len in
                Queue.add (src, sport, payload) p.rcv_q;
                p.rcv_cc <- p.rcv_cc + len;
                p.on_readable ()
              end
        end);
    Mbuf.m_freem m
  in
  let input ~src ~dst m =
    try input ~src ~dst m
    with Memfault.Nomem ->
      (* Allocation failures on the receive path (header pullup, the ICMP
         reply) degrade to a counted drop, never a crash. *)
      t.nomem_drops <- t.nomem_drops + 1
  in
  Ip.set_proto ip ~proto:Ip.proto_udp (fun ~src ~dst m -> input ~src ~dst m);
  t

let create_pcb t =
  let p =
    { lport = 0; laddr = 0l; rport = 0; raddr = 0l; rcv_q = Queue.create ();
      rcv_hiwat = 64 * 1024; rcv_cc = 0; on_readable = (fun () -> ()); dropped = 0 }
  in
  t.pcbs <- p :: t.pcbs;
  p

let bind t pcb ~port =
  if List.exists (fun x -> x != pcb && x.lport = port) t.pcbs then
    Result.Error Error.Addrinuse
  else begin
    hash_remove t pcb;
    if List.memq pcb t.pcbs then Port_alloc.move t.ports ~old:pcb.lport port;
    pcb.lport <- port;
    pcb.laddr <- t.ip.Ip.ifp.Netif.if_addr;
    hash_add t pcb;
    Ok ()
  end

let detach t pcb =
  if List.memq pcb t.pcbs then begin
    t.pcbs <- List.filter (fun x -> x != pcb) t.pcbs;
    Port_alloc.release t.ports pcb.lport
  end;
  hash_remove t pcb

let rec output t pcb ~dst ~dport ~src ~src_pos ~len =
  if pcb.lport = 0 then begin
    match Port_alloc.alloc t.ports with
    | Ok p ->
        Port_alloc.use t.ports p;
        pcb.lport <- p;
        hash_add t pcb
    | Error e -> Error.fail e
  end;
  try output_dgram t pcb ~dst ~dport ~src ~src_pos ~len
  with Memfault.Nomem ->
    (* ENOBUFS to the caller: the socket layer surfaces it as an error
       result, the application's retry is the backpressure loop. *)
    t.nomem_drops <- t.nomem_drops + 1;
    raise (Error.Error Error.Nomem)

and output_dgram t pcb ~dst ~dport ~src ~src_pos ~len =
  let m = Mbuf.m_gethdr () in
  let off = Mbuf.m_put m udp_hlen in
  let d = m.Mbuf.m_data in
  let ulen = udp_hlen + len in
  Codec.write_udp d ~off ~sport:pcb.lport ~dport ~ulen;
  if len > 0 then Mbuf.m_append m ~src ~src_pos ~len;
  let laddr = t.ip.Ip.ifp.Netif.if_addr in
  let sum =
    In_cksum.cksum_chain m ~off:0 ~len:ulen
      ~init:(Codec.pseudo_header ~src:laddr ~dst ~proto:Ip.proto_udp ~len:ulen)
  in
  Bytes.set_uint16_be d (off + 6) (if sum = 0 then 0xffff else sum);
  Ip.output t.ip ~proto:Ip.proto_udp ~src:laddr ~dst m

(* Take one datagram off the receive queue. *)
let recv pcb =
  match Queue.take_opt pcb.rcv_q with
  | None -> None
  | Some ((_, _, payload) as dgram) ->
      pcb.rcv_cc <- pcb.rcv_cc - Bytes.length payload;
      Some dgram
