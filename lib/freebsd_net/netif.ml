(* ENCAPSULATED LEGACY CODE — if_ethersubr.c / if.c: the BSD network-interface
 * layer.  An ifnet carries the interface addresses and the link to the
 * driver below; ether_output prepends the 14-byte header and hands the
 * frame down, ether_input strips it and dispatches on ethertype to the
 * protocols that registered above (ARP, IP).
 *
 * The send queue is the donor's if_snd, drained by if_start.  Only an
 * interface bound through the batched glue has one.  A frame is queued
 * there only while a burst is held open ([with_burst]); the queue
 * crosses to the driver in one call when the outermost hold closes.
 * Otherwise every frame goes down alone.
 *)

let eth_hlen = 14
let ethertype_ip = 0x0800
let ethertype_arp = 0x0806
let ether_broadcast = "\xff\xff\xff\xff\xff\xff"

(* The donor's ifqmaxlen.  A full queue is handed down at once rather
   than dropped: the hold batches frames, it does not buffer them. *)
let ifqmaxlen = 50

type ifqueue = {
  (* A burst of full frames to the driver in one call, every frame
     attempted; returns the error of each frame the driver refused. *)
  ifq_xmit_v : Mbuf.mbuf list -> Error.t list;
  mutable ifq_hold : int; (* open [with_burst] holds *)
  mutable ifq_head : Mbuf.mbuf list; (* held frames, newest first *)
  mutable ifq_len : int;
}

type ifnet = {
  if_name : string;
  mutable if_hwaddr : string; (* learned from the bound device *)
  mutable if_addr : int32; (* IP, host order *)
  mutable if_mask : int32;
  mutable if_mtu : int; (* payload above the ether header *)
  mutable if_xmit : Mbuf.mbuf -> (unit, Error.t) result; (* full frame to the driver *)
  mutable if_snd : ifqueue option; (* None: every frame goes down alone *)
  mutable if_protos : (int * (Mbuf.mbuf -> unit)) list; (* ethertype -> input *)
  mutable if_ipackets : int;
  mutable if_opackets : int;
  mutable if_idrops : int; (* input frames dropped for want of an mbuf *)
  mutable if_oerrors : int; (* output frames the driver refused, a closed device say *)
  mutable if_onomem : int; (* output frames the driver refused for want of a buffer *)
}

let create ~name ~hwaddr =
  if String.length hwaddr <> 6 then invalid_arg "Netif.create: hwaddr";
  { if_name = name; if_hwaddr = hwaddr; if_addr = 0l; if_mask = 0l; if_mtu = 1500;
    if_xmit = (fun _ -> Ok ()); if_snd = None; if_protos = []; if_ipackets = 0;
    if_opackets = 0; if_idrops = 0; if_oerrors = 0; if_onomem = 0 }

let set_vectored_xmit ifp xmit_v =
  ifp.if_snd <- Some { ifq_xmit_v = xmit_v; ifq_hold = 0; ifq_head = []; ifq_len = 0 }

let set_proto_input ifp ~ethertype handler =
  ifp.if_protos <- (ethertype, handler) :: List.remove_assoc ethertype ifp.if_protos

let ifconfig ifp ~addr ~mask =
  ifp.if_addr <- addr;
  ifp.if_mask <- mask

let same_subnet ifp other =
  Int32.logand other ifp.if_mask = Int32.logand ifp.if_addr ifp.if_mask

(* An output frame the driver refused with [e], counted by cause. *)
let count_refused ifp = function
  | Error.Nomem -> ifp.if_onomem <- ifp.if_onomem + 1
  | _ -> ifp.if_oerrors <- ifp.if_oerrors + 1

(* if_start: hand the whole send queue to the driver in one call. *)
let if_start ifp q =
  match q.ifq_head with
  | [] -> ()
  | held ->
      q.ifq_head <- [];
      q.ifq_len <- 0;
      List.iter (count_refused ifp) (q.ifq_xmit_v (List.rev held))

let release ifp q =
  q.ifq_hold <- q.ifq_hold - 1;
  if q.ifq_hold = 0 then if_start ifp q

(* [with_burst ifp f a b] runs [f a b] with the send queue held, and
   drains the queue in one call when the outermost hold closes, on a
   normal return or an exception.  On an interface with no send queue
   this is exactly [f a b] and allocates nothing.  [f] must not sleep: a
   held frame waits for the hold to close. *)
let with_burst ifp f a b =
  match ifp.if_snd with
  | Some q -> (
      q.ifq_hold <- q.ifq_hold + 1;
      match f a b with
      | r ->
          release ifp q;
          r
      | exception e ->
          release ifp q;
          raise e)
  | None -> f a b

(* ether_output: m is the payload (IP datagram / ARP message). *)
let ether_output ifp m ~dst_mac ~ethertype =
  let m = Mbuf.m_prepend m eth_hlen in
  let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
  Bytes.blit_string dst_mac 0 d o 6;
  Bytes.blit_string ifp.if_hwaddr 0 d (o + 6) 6;
  Bytes.set d (o + 12) (Char.chr (ethertype lsr 8));
  Bytes.set d (o + 13) (Char.chr (ethertype land 0xff));
  ifp.if_opackets <- ifp.if_opackets + 1;
  match ifp.if_snd with
  | Some q when q.ifq_hold > 0 ->
      q.ifq_head <- m :: q.ifq_head;
      q.ifq_len <- q.ifq_len + 1;
      if q.ifq_len >= ifqmaxlen then if_start ifp q
  | _ -> ( match ifp.if_xmit m with Ok () -> () | Error e -> count_refused ifp e)

(* ether_input: m is the full frame.  Consumes the chain: protocol inputs
   take ownership, drops retire it. *)
let ether_input_frame ifp m =
  if Mbuf.m_length m < eth_hlen then Mbuf.m_freem m (* runt frame *)
  else begin
    ifp.if_ipackets <- ifp.if_ipackets + 1;
    let m = Mbuf.m_pullup m eth_hlen in
    let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
    let ethertype = (Char.code (Bytes.get d (o + 12)) lsl 8) lor Char.code (Bytes.get d (o + 13)) in
    Mbuf.m_adj m eth_hlen;
    match List.assoc_opt ethertype ifp.if_protos with
    | Some input -> input m
    | None -> Mbuf.m_freem m (* unknown protocol: dropped, as in the donor *)
  end

(* This is the one receive entry for both the mbuf-native attachment and
   the COM glue, i.e. interrupt level: an allocation failure anywhere on
   the input path that nobody above converted must become a counted frame
   drop here, never an exception into the driver.  The chain is left to
   the GC — a pullup may already have consumed part of it. *)
let ether_input ifp m =
  try ether_input_frame ifp m
  with Memfault.Nomem -> ifp.if_idrops <- ifp.if_idrops + 1
