(* The RFC wire formats, written once for both stacks: 32-bit sequence
   arithmetic, the Internet checksum, and the byte layouts of the IPv4
   header (RFC 791), the UDP header (RFC 768), the TCP header with its MSS
   and window-scale options (RFC 793, RFC 1323) and the Ethernet/IPv4 ARP
   message (RFC 826).  Each stack keeps its own buffers (mbuf chains,
   sk_buffs), charges and policy: what it advertises, which options it
   offers and how it stores a zero TCP checksum are arguments here.

   Parsing checks every length field against the bytes actually present
   before anything is read through it, and returns [None] for a header
   that fails: a crafted frame becomes one dropped packet, never an
   out-of-bounds read that takes the simulation down. *)

(* --- 32-bit modular sequence arithmetic (the SEQ_LT macro family) --- *)

let m32 x = x land 0xffffffff

let seq_diff a b =
  let d = m32 (a - b) in
  if d >= 0x80000000 then d - 0x100000000 else d

let seq_lt a b = seq_diff a b < 0
let seq_leq a b = seq_diff a b <= 0
let seq_gt a b = seq_diff a b > 0
let seq_geq a b = seq_diff a b >= 0

(* --- the Internet checksum (RFC 1071) --- *)

(* Add bytes [off, off+len) of [data] into the running sum; [swapped] says
   the first byte is the low half of a word, an odd alignment carried
   across fragment boundaries.  Whole words are added 16 bits at a time. *)
let sum_bytes data off len (sum, swapped) =
  let stop = off + len in
  let s = ref sum and i = ref off in
  if swapped && len > 0 then begin
    s := !s + Char.code (Bytes.get data off);
    incr i
  end;
  while !i + 1 < stop do
    s := !s + Bytes.get_uint16_be data !i;
    i := !i + 2
  done;
  if !i < stop then (!s + (Char.code (Bytes.get data !i) lsl 8), true)
  else (!s, swapped && len = 0)

let fold sum =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go sum

let finish sum = lnot (fold sum) land 0xffff

(* Charged per byte: on the testbed CPU this pass over the data was a
   visible part of per-packet cost. *)
let cksum_bytes ?(init = 0) data ~off ~len =
  Cost.charge_checksum len;
  let sum, _ = sum_bytes data off len (init, false) in
  finish sum

(* Iovec checksum: one pass over an ordered (backing, off, len) fragment
   list, carrying the odd-byte alignment across fragment boundaries.  This
   is the checksum-with-gather half of the scatter-gather send path: a
   chain (or a nonlinear sk_buff) is summed fragment by fragment in place,
   never flattened first. *)
let cksum_frags ?(init = 0) frags =
  let total = List.fold_left (fun a (_, _, len) -> a + len) 0 frags in
  Cost.charge_checksum total;
  let acc =
    List.fold_left (fun acc (data, off, len) -> sum_bytes data off len acc) (init, false) frags
  in
  finish (fst acc)

(* Partial sum of the TCP/UDP pseudo header (not folded, not negated). *)
let pseudo_header ~src ~dst ~proto ~len =
  let hi v = Int32.to_int (Int32.shift_right_logical v 16) land 0xffff in
  let lo v = Int32.to_int v land 0xffff in
  hi src + lo src + hi dst + lo dst + proto + len

(* --- IPv4 --- *)

let ip_hlen = 20

type ip = {
  ihl : int; (* header length in bytes *)
  total : int; (* datagram length from the header *)
  id : int;
  more_frags : bool;
  frag_off : int; (* in bytes *)
  proto : int;
  src : int32;
  dst : int32;
}

(* The option-less 20-byte header at [off], its checksum computed and
   stored. *)
let write_ip d ~off ~total ~id ~more_frags ~frag_off ~ttl ~proto ~src ~dst =
  Bytes.set d off '\x45';
  Bytes.set d (off + 1) '\000';
  Bytes.set_uint16_be d (off + 2) total;
  Bytes.set_uint16_be d (off + 4) id;
  Bytes.set_uint16_be d (off + 6) ((if more_frags then 0x2000 else 0) lor (frag_off lsr 3));
  Bytes.set d (off + 8) (Char.chr ttl);
  Bytes.set d (off + 9) (Char.chr proto);
  Bytes.set_uint16_be d (off + 10) 0;
  Bytes.set_int32_be d (off + 12) src;
  Bytes.set_int32_be d (off + 16) dst;
  Bytes.set_uint16_be d (off + 10) (cksum_bytes d ~off ~len:ip_hlen)

(* The header of a datagram of [len] bytes, of which the fixed 20 at [off]
   are readable.  Requires 20 <= IHL*4 <= total length <= [len]; the
   checksum is the caller's to verify over [ihl] bytes. *)
let parse_ip d ~off ~len =
  if len < ip_hlen then None
  else begin
    let ihl = (Char.code (Bytes.get d off) land 0xf) * 4 in
    let total = Bytes.get_uint16_be d (off + 2) in
    if ihl < ip_hlen || total < ihl || total > len then None
    else begin
      let fword = Bytes.get_uint16_be d (off + 6) in
      Some
        { ihl; total; id = Bytes.get_uint16_be d (off + 4);
          more_frags = fword land 0x2000 <> 0; frag_off = (fword land 0x1fff) lsl 3;
          proto = Char.code (Bytes.get d (off + 9));
          src = Bytes.get_int32_be d (off + 12); dst = Bytes.get_int32_be d (off + 16) }
    end
  end

(* --- UDP --- *)

let udp_hlen = 8

type udp = { uh_sport : int; uh_dport : int; uh_ulen : int; uh_sum : int }

(* The header at [off] with a zero checksum; [ulen] counts the header. *)
let write_udp d ~off ~sport ~dport ~ulen =
  Bytes.set_uint16_be d off sport;
  Bytes.set_uint16_be d (off + 2) dport;
  Bytes.set_uint16_be d (off + 4) ulen;
  Bytes.set_uint16_be d (off + 6) 0

(* The header of a [len]-byte datagram whose first [min len 8] bytes at
   [off] are readable.  Requires 8 <= length field <= [len]. *)
let parse_udp d ~off ~len =
  if len < udp_hlen then None
  else begin
    let ulen = Bytes.get_uint16_be d (off + 4) in
    if ulen < udp_hlen || ulen > len then None
    else
      Some
        { uh_sport = Bytes.get_uint16_be d off; uh_dport = Bytes.get_uint16_be d (off + 2);
          uh_ulen = ulen; uh_sum = Bytes.get_uint16_be d (off + 6) }
  end

(* --- TCP --- *)

let tcp_hlen = 20

type tcp = {
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  hlen : int; (* data offset in bytes *)
  flags : int;
  win : int; (* the raw 16-bit field, unscaled *)
  mss : int option;
  wscale : int option;
}

let tcp_header_len ~mss ~wscale =
  tcp_hlen + (if mss = None then 0 else 4) + if wscale = None then 0 else 4

(* The header at [off] with a zero checksum: MSS first, then NOP + the
   3-byte window-scale option, the donor layout.  [win] is the field as
   sent — each stack scales and clamps its own window. *)
let write_tcp d ~off ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale =
  let hlen = tcp_header_len ~mss ~wscale in
  Bytes.set_uint16_be d off sport;
  Bytes.set_uint16_be d (off + 2) dport;
  Bytes.set_int32_be d (off + 4) (Int32.of_int (m32 seq));
  Bytes.set_int32_be d (off + 8) (Int32.of_int (m32 ack));
  Bytes.set d (off + 12) (Char.chr ((hlen / 4) lsl 4));
  Bytes.set d (off + 13) (Char.chr flags);
  Bytes.set_uint16_be d (off + 14) win;
  Bytes.set_uint16_be d (off + 16) 0;
  Bytes.set_uint16_be d (off + 18) 0;
  let o = off + tcp_hlen in
  (match mss with
  | Some v ->
      Bytes.set d o '\002';
      Bytes.set d (o + 1) '\004';
      Bytes.set_uint16_be d (o + 2) v
  | None -> ());
  match wscale with
  | Some s ->
      let o = off + hlen - 4 in
      Bytes.set d o '\001';
      Bytes.set d (o + 1) '\003';
      Bytes.set d (o + 2) '\003';
      Bytes.set d (o + 3) (Char.chr (s land 0xff))
  | None -> ()

(* RFC 793 leaves the encoding of an all-zero sum open: BSD writes its
   one's-complement twin 0xffff ([zero_as_ones]), Linux writes it raw. *)
let set_tcp_cksum d ~off ~zero_as_ones sum =
  Bytes.set_uint16_be d (off + 16) (if zero_as_ones && sum = 0 then 0xffff else sum)

(* MSS and window-scale offers among the options in [p, hlen); a malformed
   option ends the scan rather than reading past the data offset. *)
let rec scan_options d off hlen p mss wscale =
  if p >= hlen then mss, wscale
  else
    match Char.code (Bytes.get d (off + p)) with
    | 0 -> mss, wscale
    | 1 -> scan_options d off hlen (p + 1) mss wscale
    | kind ->
        let olen = if p + 1 < hlen then max 2 (Char.code (Bytes.get d (off + p + 1))) else 2 in
        if p + olen > hlen then mss, wscale
        else if kind = 2 && olen = 4 then
          scan_options d off hlen (p + olen) (Some (Bytes.get_uint16_be d (off + p + 2))) wscale
        else if kind = 3 && olen = 3 then
          scan_options d off hlen (p + olen) mss (Some (Char.code (Bytes.get d (off + p + 2))))
        else scan_options d off hlen (p + olen) mss wscale

(* The header of a [len]-byte segment whose first [min len 60] bytes at
   [off] are readable.  Requires 20 <= data offset*4 <= [len]. *)
let parse_tcp d ~off ~len =
  if len < tcp_hlen then None
  else begin
    let hlen = (Char.code (Bytes.get d (off + 12)) lsr 4) * 4 in
    if hlen < tcp_hlen || hlen > len then None
    else begin
      let mss, wscale = scan_options d off hlen tcp_hlen None None in
      Some
        { sport = Bytes.get_uint16_be d off; dport = Bytes.get_uint16_be d (off + 2);
          seq = m32 (Int32.to_int (Bytes.get_int32_be d (off + 4)));
          ack = m32 (Int32.to_int (Bytes.get_int32_be d (off + 8)));
          hlen; flags = Char.code (Bytes.get d (off + 13));
          win = Bytes.get_uint16_be d (off + 14); mss; wscale }
    end
  end

(* --- ARP over Ethernet/IPv4 --- *)

let arp_len = 28
let arp_request = 1
let arp_reply = 2

type arp = { op : int; sha : string; spa : int32; tpa : int32 }

let write_arp d ~off ~op ~sha ~spa ~tha ~tpa =
  Bytes.set_uint16_be d off 1;
  Bytes.set_uint16_be d (off + 2) 0x0800;
  Bytes.set d (off + 4) '\006';
  Bytes.set d (off + 5) '\004';
  Bytes.set_uint16_be d (off + 6) op;
  Bytes.blit_string sha 0 d (off + 8) 6;
  Bytes.set_int32_be d (off + 14) spa;
  Bytes.blit_string tha 0 d (off + 18) 6;
  Bytes.set_int32_be d (off + 24) tpa

(* A message of [len] bytes at [off]; only the Ethernet/IPv4 form (hrd 1,
   pro 0x0800, hln 6, pln 4) is ours. *)
let parse_arp d ~off ~len =
  if
    len < arp_len
    || Bytes.get_uint16_be d off <> 1
    || Bytes.get_uint16_be d (off + 2) <> 0x0800
    || Bytes.get d (off + 4) <> '\006'
    || Bytes.get d (off + 5) <> '\004'
  then None
  else
    Some
      { op = Bytes.get_uint16_be d (off + 6); sha = Bytes.sub_string d (off + 8) 6;
        spa = Bytes.get_int32_be d (off + 14); tpa = Bytes.get_int32_be d (off + 24) }
