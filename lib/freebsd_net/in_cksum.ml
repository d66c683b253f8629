(* ENCAPSULATED LEGACY CODE — the Internet checksum (in_cksum.c), as an
 * mbuf walk over the shared lib/inet Codec summer.
 *)

(* Checksum over a whole mbuf chain starting [off] bytes in, for [len]
   bytes, folded with an initial partial sum (the pseudo-header).  Each
   mbuf's range is summed in place, carrying the odd-byte boundary between
   mbufs exactly as the donor does; this is also the checksum-with-gather
   half of the scatter-gather send path, a chain never flattened first.
   A chain too short for [len] raises before anything is charged. *)
let cksum_chain ?(init = 0) m ~off ~len =
  if off < 0 || len < 0 then invalid_arg "cksum_chain: negative range";
  let rec go m off len sum odd =
    if len = 0 then sum
    else if off >= m.Mbuf.m_len then next m (off - m.m_len) len sum odd
    else begin
      let n = min len (m.m_len - off) in
      let sum = Codec.sum_bytes m.m_data (m.m_off + off) n sum odd in
      if n = len then sum else next m 0 (len - n) sum (odd <> (n land 1 = 1))
    end
  and next m off len sum odd =
    match m.Mbuf.m_next with
    | Some nx -> go nx off len sum odd
    | None -> invalid_arg "cksum_chain: chain too short"
  in
  let sum = go m off len init false in
  Cost.charge_checksum len;
  Codec.finish sum
