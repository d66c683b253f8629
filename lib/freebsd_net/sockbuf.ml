(* ENCAPSULATED LEGACY CODE — the socket buffer (sys/socketvar.h, uipc_socket2.c).
 *
 * An mbuf chain with a byte count and a high-water mark.  The send buffer
 * holds unacknowledged + unsent data; TCP transmits from it by m_copym
 * (sharing clusters) and drops acknowledged bytes from the front.  The
 * receive path appends whole mbuf chains, so data that arrived zero-copy
 * stays zero-copy until soreceive copies it to the user.
 *)

type t = { mutable sb_mb : Mbuf.mbuf option; mutable sb_cc : int; mutable sb_hiwat : int }

let create ~hiwat = { sb_mb = None; sb_cc = 0; sb_hiwat = hiwat }
let space sb = max 0 (sb.sb_hiwat - sb.sb_cc)

(* The send low-water mark: the free space at which a writer is woken
   (sowriteable).  soreserve sets it to one cluster, capped at the high
   water mark. *)
let lowat sb = min Mbuf.mclbytes sb.sb_hiwat

(* Append raw bytes (the sosend path: one real copy, user -> cluster). *)
let sbappend_bytes sb ~src ~src_pos ~len =
  (match sb.sb_mb with
  | Some head -> Mbuf.m_append head ~src ~src_pos ~len
  | None ->
      let head = Mbuf.m_gethdr () in
      Mbuf.m_append head ~src ~src_pos ~len;
      sb.sb_mb <- Some head);
  sb.sb_cc <- sb.sb_cc + len

(* sbappend_bytes degraded for memory pressure: when the allocation-
   failure injector stops m_append mid-chain, account for whatever
   actually landed and report it, instead of leaving sb_cc short of the
   chain (which would corrupt the stream).  Returns bytes taken. *)
let sbappend_bytes_nomem sb ~src ~src_pos ~len =
  try
    sbappend_bytes sb ~src ~src_pos ~len;
    len
  with Memfault.Nomem ->
    let have = match sb.sb_mb with Some h -> Mbuf.m_length h | None -> 0 in
    let taken = have - sb.sb_cc in
    (match sb.sb_mb with Some h -> h.Mbuf.m_pkthdr_len <- have | None -> ());
    sb.sb_cc <- have;
    taken
let sbappend_chain sb m =
  let len = Mbuf.m_length m in
  (match sb.sb_mb with
  | Some head -> Mbuf.m_cat head m
  | None -> sb.sb_mb <- Some m);
  sb.sb_cc <- sb.sb_cc + len

(* Drop [n] bytes from the front (acknowledged data / consumed data). *)
let sbdrop sb n =
  let n = min n sb.sb_cc in
  (match sb.sb_mb with
  | None -> ()
  | Some head ->
      Mbuf.m_adj head n;
      if sb.sb_cc - n = 0 then begin
        Mbuf.m_freem head;
        sb.sb_mb <- None
      end
      else begin
        (* Shed — and retire — leading empty mbufs so the chain does not
           grow forever.  Detach before freeing so m_free releases just the
           one record. *)
        let rec strip m =
          if m.Mbuf.m_len = 0 then
            match m.Mbuf.m_next with
            | Some nx ->
                m.Mbuf.m_next <- None;
                Mbuf.m_free m;
                strip nx
            | None -> m
          else m
        in
        let head' = strip head in
        head'.Mbuf.m_pkthdr_len <- sb.sb_cc - n;
        sb.sb_mb <- Some head'
      end);
  sb.sb_cc <- sb.sb_cc - n

(* Copy a range out (soreceive's copy to the user buffer). *)
let copy_out sb ~off ~len ~dst ~dst_pos =
  match sb.sb_mb with
  | None -> invalid_arg "Sockbuf.copy_out: empty"
  | Some head -> Mbuf.m_copy_into head ~off ~len ~dst ~dst_pos

(* A shared-storage view of a range (tcp_output's m_copym). *)
let copy_range sb ~off ~len =
  match sb.sb_mb with
  | None -> invalid_arg "Sockbuf.copy_range: empty"
  | Some head -> Mbuf.m_copym head ~off ~len
