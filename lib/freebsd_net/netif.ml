(* ENCAPSULATED LEGACY CODE — if_ethersubr.c / if.c: the BSD network-interface
 * layer.  An ifnet carries the interface addresses and the link to the
 * driver below; ether_output prepends the 14-byte header and hands the
 * frame down, ether_input strips it and dispatches on ethertype to the
 * protocols that registered above (ARP, IP).
 *
 * The driver takes frames as a list, in one call: [if_start].  A frame
 * that goes down alone is a list of one.  Only an interface bound
 * through the batched glue holds a burst: there a frame is queued on the
 * send queue (the donor's if_snd) while a burst is held open
 * ([with_burst]), and the queue crosses to the driver in one call when
 * the outermost hold closes.
 *)

let eth_hlen = 14
let ethertype_ip = 0x0800
let ethertype_arp = 0x0806
let ether_broadcast = "\xff\xff\xff\xff\xff\xff"

(* The donor's ifqmaxlen.  A full queue is handed down at once rather
   than dropped: the hold batches frames, it does not buffer them. *)
let ifqmaxlen = 50

type ifnet = {
  if_name : string;
  mutable if_hwaddr : string; (* learned from the bound device *)
  mutable if_addr : int32; (* IP, host order *)
  mutable if_mask : int32;
  mutable if_mtu : int; (* payload above the ether header *)
  (* Full frames to the driver in one call, every frame attempted;
     returns the error of each frame the driver refused. *)
  mutable if_start : Mbuf.mbuf list -> Error.t list;
  mutable if_bursts : bool; (* the driver takes a held burst in one call *)
  mutable if_hold : int; (* open [with_burst] holds *)
  mutable if_snd : Mbuf.mbuf list; (* held frames, newest first *)
  mutable if_snd_len : int;
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
    if_start = (fun _ -> []); if_bursts = false; if_hold = 0; if_snd = []; if_snd_len = 0;
    if_protos = []; if_ipackets = 0; if_opackets = 0; if_idrops = 0; if_oerrors = 0;
    if_onomem = 0 }

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

(* Hand [frames] to the driver in one call, counting each refusal. *)
let start ifp frames =
  match ifp.if_start frames with [] -> () | errs -> List.iter (count_refused ifp) errs

(* Hand the whole send queue down. *)
let flush ifp =
  match ifp.if_snd with
  | [] -> ()
  | held ->
      ifp.if_snd <- [];
      ifp.if_snd_len <- 0;
      start ifp (List.rev held)

let release ifp =
  ifp.if_hold <- ifp.if_hold - 1;
  if ifp.if_hold = 0 then flush ifp

(* [with_burst ifp f a b] runs [f a b] with the send queue held, and
   drains the queue in one call when the outermost hold closes, on a
   normal return or an exception.  On an interface that holds no burst
   this is exactly [f a b] and allocates nothing.  [f] must not sleep: a
   held frame waits for the hold to close. *)
let with_burst ifp f a b =
  if not ifp.if_bursts then f a b
  else begin
    ifp.if_hold <- ifp.if_hold + 1;
    match f a b with
    | r ->
        release ifp;
        r
    | exception e ->
        release ifp;
        raise e
  end

(* ether_output: m is the payload (IP datagram / ARP message). *)
let ether_output ifp m ~dst_mac ~ethertype =
  let m = Mbuf.m_prepend m eth_hlen in
  let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
  Bytes.blit_string dst_mac 0 d o 6;
  Bytes.blit_string ifp.if_hwaddr 0 d (o + 6) 6;
  Bytes.set d (o + 12) (Char.chr (ethertype lsr 8));
  Bytes.set d (o + 13) (Char.chr (ethertype land 0xff));
  ifp.if_opackets <- ifp.if_opackets + 1;
  if ifp.if_hold > 0 then begin
    ifp.if_snd <- m :: ifp.if_snd;
    ifp.if_snd_len <- ifp.if_snd_len + 1;
    if ifp.if_snd_len >= ifqmaxlen then flush ifp
  end
  else start ifp [ m ]

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
