(* ENCAPSULATED LEGACY CODE — the Internet checksum (in_cksum.c), as an
 * mbuf walk over the shared lib/inet Codec summer.
 *)

(* Checksum over a whole mbuf chain starting [off] bytes in, for [len]
   bytes, folded with an initial partial sum (the pseudo-header).  Each
   mbuf's range is summed in place, carrying the odd-byte boundary between
   mbufs exactly as the donor does; this is also the checksum-with-gather
   half of the scatter-gather send path, a chain never flattened first.
   An mbuf over loaned storage with a checksum memo (a sendfile block) is
   summed through it: whole memo chunks already summed are added, not
   read.  One charge covers the bytes actually read — every byte of a
   chain without memos.  A chain too short for [len] raises before
   anything is charged. *)
let cksum_chain ?(init = 0) m ~off ~len =
  if off < 0 || len < 0 then invalid_arg "cksum_chain: negative range";
  let rec go m off len sum odd read =
    if len = 0 then finish sum read
    else if off >= m.Mbuf.m_len then next m (off - m.m_len) len sum odd read
    else begin
      let n = min len (m.m_len - off) and at = m.m_off + off in
      (* Count before summing: summing fills the memo's empty slots. *)
      let read =
        match m.m_store with
        | Mbuf.Loaned memo -> read + Codec.memo_cold_bytes ~memo ~chunk:Io_if.cksum_chunk at n
        | Mbuf.(Pool_small | Pool_clust | Foreign) -> read + n
      in
      let sum =
        match m.m_store with
        | Mbuf.Loaned memo -> Codec.sum_memo ~memo ~chunk:Io_if.cksum_chunk m.m_data at n sum odd
        | Mbuf.(Pool_small | Pool_clust | Foreign) -> Codec.sum_bytes m.m_data at n sum odd
      in
      if n = len then finish sum read else next m 0 (len - n) sum (odd <> (n land 1 = 1)) read
    end
  and next m off len sum odd read =
    match m.Mbuf.m_next with
    | Some nx -> go nx off len sum odd read
    | None -> invalid_arg "cksum_chain: chain too short"
  and finish sum read =
    Cost.charge_checksum read;
    Codec.finish sum
  in
  go m off len init false 0
