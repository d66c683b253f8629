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

(* Unchecked native-order loads, for after one range check. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap16 : int -> int = "%bswap16"

let fold sum =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go sum

(* Add bytes [off, off+len) of [data] into the running sum [sum]; [odd]
   says the first byte is the low half of a word, an odd alignment carried
   across fragment boundaries (the next range is odd iff [odd] differs
   from [len]'s parity).  The range is checked once; then eight bytes are
   added per load, as two 32-bit halves — congruent mod 0xffff to their
   16-bit words — in host order, so on a little-endian host the folded
   word sum is byte-swapped once (RFC 1071 s2).  The 16- and 8-bit tail
   is added big-endian, and an odd range's sum is swapped into place. *)
let sum_bytes data off len sum odd =
  if off < 0 || len < 0 || off > Bytes.length data - len then invalid_arg "Codec.sum_bytes";
  let stop = off + len in
  let s = ref 0 and i = ref off in
  while !i + 8 <= stop do
    let w = get64u data !i in
    s := !s + (Int64.to_int w land 0xffffffff) + Int64.to_int (Int64.shift_right_logical w 32);
    i := !i + 8
  done;
  if not Sys.big_endian then s := swap16 (fold !s);
  while !i + 1 < stop do
    s := !s + Bytes.get_uint16_be data !i;
    i := !i + 2
  done;
  if !i < stop then s := !s + (Char.code (Bytes.get data !i) lsl 8);
  sum + if odd then swap16 (fold !s) else !s

let finish sum = lnot (fold sum) land 0xffff

(* A checksum memo over [data] (Io_if.cksum_memo): slot [c] holds the
   folded sum of bytes [c*chunk, (c+1)*chunk), first byte high, or -1 while
   unsummed; [chunk] is even.  Within [off, off+len) the whole chunks lie
   in slots [first, last); the partial chunks at either edge are not
   memoized.

   [sum_bytes data off len sum odd] through [memo]: whole chunks are added
   from their slots, each summed and stored first if its slot is empty,
   and the edges are summed.  Whole chunks are even-sized, so they all sit
   at the parity the head edge leaves, and their total is swapped into
   place once, as [sum_bytes] does for an odd range. *)
let sum_memo ~memo ~chunk data off len sum odd =
  if off < 0 || len < 0 || off > Bytes.length data - len
     || Array.length memo * chunk < Bytes.length data
  then invalid_arg "Codec.sum_memo";
  let first = (off + chunk - 1) / chunk and last = (off + len) / chunk in
  if first >= last then sum_bytes data off len sum odd
  else begin
    let head = (first * chunk) - off and tail_at = last * chunk in
    let sum = sum_bytes data off head sum odd in
    let odd = odd <> (head land 1 = 1) in
    let s = ref 0 in
    for c = first to last - 1 do
      let v = memo.(c) in
      if v >= 0 then s := !s + v
      else begin
        let v = fold (sum_bytes data (c * chunk) chunk 0 false) in
        memo.(c) <- v;
        s := !s + v
      end
    done;
    let sum = sum + if odd then swap16 (fold !s) else !s in
    sum_bytes data tail_at (off + len - tail_at) sum odd
  end

(* The bytes [sum_memo] would read over the same range now: the edges and
   every whole chunk whose slot is empty. *)
let memo_cold_bytes ~memo ~chunk off len =
  let first = (off + chunk - 1) / chunk and last = (off + len) / chunk in
  if first >= last then len
  else begin
    let n = ref (len - ((last - first) * chunk)) in
    for c = first to last - 1 do
      if memo.(c) < 0 then n := !n + chunk
    done;
    !n
  end

(* Charged per byte: on the testbed CPU this pass over the data was a
   visible part of per-packet cost. *)
let cksum_bytes ?(init = 0) data ~off ~len =
  let sum = sum_bytes data off len init false in
  Cost.charge_checksum len;
  finish sum

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
