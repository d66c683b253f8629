(* ENCAPSULATED LEGACY CODE — the Internet checksum (in_cksum.c), as an
 * mbuf adapter over the shared lib/inet Codec summer.
 *)

(* Checksum over a whole mbuf chain starting [off] bytes in, for [len]
   bytes, folded with an initial partial sum (the pseudo-header).  The
   chain's fragment view and the iovec summer do the work, carrying the
   odd-byte boundary between mbufs exactly as the donor does, so the
   TCP/UDP output paths exercise the same code the gather path does. *)
let cksum_chain ?(init = 0) m ~off ~len =
  Codec.cksum_frags ~init (Mbuf.m_fragments ~off ~len m)
