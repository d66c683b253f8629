(* ENCAPSULATED LEGACY CODE — 4.4BSD/FreeBSD 2.1.5-style mbufs.
 *
 * The BSD network stack's packet buffer: small fixed-size mbufs chained
 * through m_next, with large payloads held in shared "clusters" (external
 * storage).  Packets are therefore frequently DIScontiguous — the property
 * whose mismatch with Linux's contiguous sk_buffs produces the extra copy
 * on the OSKit send path (Section 5).
 *
 * External storage is reference-shared by m_copym, as in the donor: a
 * retransmitted TCP segment aliases the socket buffer's clusters rather
 * than copying them.  Because the storage is shared, it is never written
 * through an mbuf: m_write refuses ext mbufs, and the one path that needs
 * to mutate a chain in place (the glue's bufio buf_write) goes through
 * m_makewritable first, which un-shares the storage copy-on-write.
 *
 * Storage is pooled (the donor's mbuf free list / MCLALLOC cache): m_get,
 * m_gethdr and m_getclust recycle retired buffers from fixed-size Bpools
 * instead of paying a fresh allocation per packet, and m_free/m_freem
 * return storage to the pools once the last reference drops.  Loaned
 * (m_ext_wrap) storage is foreign and is never recycled here.
 *)

let msize = 128 (* donor MSIZE *)
let mlen = msize - 20 (* data bytes in an ordinary mbuf *)
let mhlen = msize - 28 (* data bytes in a packet-header mbuf *)
let mclbytes = 2048 (* cluster size *)

(* Where an mbuf's backing storage came from, so m_free knows whether (and
   where) to recycle it.  [Loaned] storage is foreign too: a sendfile
   block, with the block's checksum memo (Io_if.file_frag's fr_sums),
   which In_cksum reads and fills.  m_copym aliases share the storage and
   so carry the memo; m_makewritable's private copy is [Foreign], without
   one. *)
type storage = Pool_small | Pool_clust | Foreign | Loaned of Io_if.cksum_memo

type mbuf = {
  mutable m_next : mbuf option;
  mutable m_data : bytes; (* backing storage *)
  mutable m_off : int; (* start of valid data *)
  mutable m_len : int;
  mutable m_ext : bool; (* external (cluster or loaned) storage: shared, never written *)
  mutable m_pkthdr_len : int; (* total packet length; head mbuf only *)
  mutable m_store : storage;
  mutable m_refs : int ref; (* shared by every mbuf aliasing this storage *)
  mutable m_freed : bool;
  mutable m_on_free : (unit -> unit) option;
      (* Fired once, when the LAST alias of this storage is retired (the
         shared m_refs cell hits 0) — the TX-completion hook the sendfile
         path uses to unpin loaned buffer-cache blocks.  m_copym copies
         propagate it alongside m_refs, so retransmit aliases keep the
         block pinned until the final free. *)
}

let stats_allocated = ref 0
let stats_freed = ref 0

(* The donor's mbuf free list and cluster cache: retired storage is reused
   instead of allocated per packet. *)
let small_pool = Bpool.create ~size:msize ()
let clust_pool = Bpool.create ~size:mclbytes ()

let m_get () =
  incr stats_allocated;
  { m_next = None; m_data = Bpool.get small_pool; m_off = msize - mlen; m_len = 0;
    m_ext = false; m_pkthdr_len = 0; m_store = Pool_small; m_refs = ref 1;
    m_freed = false; m_on_free = None }

let m_gethdr () =
  let m = m_get () in
  m.m_off <- msize - mhlen;
  m

let m_getclust () =
  (* Two acquisitions, as in the donor's MGET + MCLGET: the mbuf header
     (always a freelist hit here) and the cluster (charged by the pool). *)
  Cost.charge_pool_alloc ();
  incr stats_allocated;
  { m_next = None; m_data = Bpool.get clust_pool; m_off = 0; m_len = 0; m_ext = true;
    m_pkthdr_len = 0; m_store = Pool_clust; m_refs = ref 1; m_freed = false;
    m_on_free = None }

(* MEXTADD: loan foreign storage to the chain with no copy — how received
   frames that arrive contiguous are mapped straight into the stack.  The
   loaned bytes are never recycled by this module. *)
let m_ext_wrap buf ~off ~len =
  Cost.charge_pool_alloc ();
  incr stats_allocated;
  { m_next = None; m_data = buf; m_off = off; m_len = len; m_ext = true;
    m_pkthdr_len = len; m_store = Foreign; m_refs = ref 1; m_freed = false;
    m_on_free = None }

(* m_ext_wrap with a free callback (MEXTADD's ext_free): [on_free] runs
   when the last alias of the loaned storage is retired.  The sendfile
   path wraps pinned buffer-cache fragments this way; on_free is the
   unpin, so the block stays wired exactly as long as any socket buffer,
   in-flight segment or retransmit alias still references it.  [sums] is
   the block's checksum memo, if it has one. *)
let m_ext_wrap_free buf ~off ~len ~sums ~on_free =
  let m = m_ext_wrap buf ~off ~len in
  m.m_on_free <- Some on_free;
  (match sums with Some memo -> m.m_store <- Loaned memo | None -> ());
  m

(* MFREE: retire one mbuf.  Its storage goes back to the owning pool when
   the last alias drops; the record itself is dead afterwards. *)
let m_free m =
  if m.m_freed then invalid_arg "m_free: double free";
  m.m_freed <- true;
  incr stats_freed;
  let r = m.m_refs in
  decr r;
  if !r = 0 then begin
    (match m.m_store with
    | Pool_small -> Bpool.put small_pool m.m_data
    | Pool_clust -> Bpool.put clust_pool m.m_data
    | Foreign | Loaned _ -> ());
    match m.m_on_free with Some f -> f () | None -> ()
  end

let rec m_freem m =
  let next = m.m_next in
  m.m_next <- None;
  m_free m;
  match next with Some n -> m_freem n | None -> ()

let m_length m =
  let rec go acc = function None -> acc | Some x -> go (acc + x.m_len) x.m_next in
  go m.m_len m.m_next

let rec m_last m = match m.m_next with None -> m | Some n -> m_last n

let m_cat a b =
  (m_last a).m_next <- Some b;
  a.m_pkthdr_len <- m_length a

(* Headroom available for prepending in the first mbuf. *)
let m_leadingspace m = if m.m_ext then 0 else m.m_off

let m_tailspace m =
  (* Never write into external storage: it may be shared or loaned. *)
  if m.m_ext then 0 else Bytes.length m.m_data - m.m_off - m.m_len

(* Reserve [n] bytes at the tail of (the first mbuf of) a chain under
   construction, returning their offset within m_data. *)
let m_put m n =
  if m_tailspace m < n then invalid_arg "m_put: no space";
  let at = m.m_off + m.m_len in
  m.m_len <- m.m_len + n;
  m.m_pkthdr_len <- m.m_pkthdr_len + n;
  at

(* M_PREPEND: make room for [n] bytes of header in front. *)
let m_prepend m n =
  if m_leadingspace m >= n then begin
    m.m_off <- m.m_off - n;
    m.m_len <- m.m_len + n;
    m.m_pkthdr_len <- m.m_pkthdr_len + n;
    m
  end
  else begin
    (* Validate before allocating, or the failure path skews the cost
       accounting and the allocation counters. *)
    if n > mhlen then invalid_arg "m_prepend: header larger than MHLEN";
    let hdr = m_gethdr () in
    hdr.m_len <- n;
    hdr.m_next <- Some m;
    hdr.m_pkthdr_len <- n + m_length m;
    hdr
  end

(* m_adj: trim [n] bytes from the front (n > 0) or back (n < 0). *)
let m_adj m n =
  if n >= 0 then begin
    let rec front m n =
      if n > 0 then
        if m.m_len >= n then begin
          m.m_off <- m.m_off + n;
          m.m_len <- m.m_len - n
        end
        else begin
          let eat = m.m_len in
          m.m_off <- m.m_off + eat;
          m.m_len <- 0;
          match m.m_next with Some nx -> front nx (n - eat) | None -> ()
        end
    in
    front m n;
    m.m_pkthdr_len <- max 0 (m.m_pkthdr_len - n)
  end
  else begin
    let want = m_length m + n in
    let rec back m remaining =
      let keep = min m.m_len remaining in
      m.m_len <- keep;
      let remaining = remaining - keep in
      if remaining = 0 then begin
        (* The detached tail is dead: retire it. *)
        (match m.m_next with Some tail -> m_freem tail | None -> ());
        m.m_next <- None
      end
      else match m.m_next with Some nx -> back nx remaining | None -> ()
    in
    back m (max 0 want);
    m.m_pkthdr_len <- max 0 want
  end

(* m_copydata: copy a byte range out of a chain (a real copy, charged). *)
let m_copy_into m ~off ~len ~dst ~dst_pos =
  if len > 0 then Cost.charge_copy len;
  let rec go m off len dst_pos =
    if len > 0 then
      if off >= m.m_len then
        match m.m_next with
        | Some nx -> go nx (off - m.m_len) len dst_pos
        | None -> invalid_arg "m_copydata: chain too short"
      else begin
        let n = min len (m.m_len - off) in
        Bytes.blit m.m_data (m.m_off + off) dst dst_pos n;
        match m.m_next with
        | Some nx -> go nx 0 (len - n) (dst_pos + n)
        | None -> if len - n > 0 then invalid_arg "m_copydata: chain too short"
      end
  in
  go m off len dst_pos

let m_copydata m ~off ~len =
  let dst = Bytes.create len in
  m_copy_into m ~off ~len ~dst ~dst_pos:0;
  dst

(* Copy-on-write: give every mbuf overlapping [off, off+len) private,
   writable storage.  Shared cluster or loaned storage is replaced by an
   exact-size private copy (the old storage's reference drops; pooled
   storage recycles once the last alias is gone). *)
let m_makewritable m ~off ~len =
  let unshare x =
    if x.m_ext then begin
      Cost.charge_alloc ();
      Cost.charge_copy x.m_len;
      let priv = Bytes.create x.m_len in
      Bytes.blit x.m_data x.m_off priv 0 x.m_len;
      let r = x.m_refs in
      decr r;
      if !r = 0 then begin
        (match x.m_store with
        | Pool_small -> Bpool.put small_pool x.m_data
        | Pool_clust -> Bpool.put clust_pool x.m_data
        | Foreign | Loaned _ -> ());
        match x.m_on_free with Some f -> f () | None -> ()
      end;
      x.m_data <- priv;
      x.m_off <- 0;
      x.m_ext <- false;
      x.m_store <- Foreign;
      x.m_refs <- ref 1;
      x.m_on_free <- None
    end
  in
  let rec go m off len =
    if len > 0 then
      if off >= m.m_len then
        match m.m_next with
        | Some nx -> go nx (off - m.m_len) len
        | None -> invalid_arg "m_makewritable: chain too short"
      else begin
        let n = min len (m.m_len - off) in
        unshare m;
        match m.m_next with
        | Some nx -> go nx 0 (len - n)
        | None -> if len - n > 0 then invalid_arg "m_makewritable: chain too short"
      end
  in
  go m off len

(* m_copyback-style write into a chain (must fit).  Refuses external
   storage: it is shared (m_copym aliases, loaned receive buffers) and a
   write here would corrupt data held elsewhere — callers that must mutate
   go through m_makewritable first. *)
let m_write m ~off ~src ~src_pos ~len =
  if len > 0 then Cost.charge_copy len;
  let rec go m off len src_pos =
    if len > 0 then
      if off >= m.m_len then
        match m.m_next with
        | Some nx -> go nx (off - m.m_len) len src_pos
        | None -> invalid_arg "m_write: chain too short"
      else begin
        if m.m_ext then invalid_arg "m_write: external storage is shared";
        let n = min len (m.m_len - off) in
        Bytes.blit src src_pos m.m_data (m.m_off + off) n;
        match m.m_next with
        | Some nx -> go nx 0 (len - n) (src_pos + n)
        | None -> if len - n > 0 then invalid_arg "m_write: chain too short"
      end
  in
  go m off len src_pos

(* m_copym: a new chain covering [off, off+len) of the original.  External
   storage is shared (no data copy); interior small-mbuf data is copied. *)
let m_copym m ~off ~len =
  if len <= 0 then invalid_arg "m_copym: empty range";
  (* Gather the (source mbuf, offset, length) segments covering the range,
     then share or copy each. *)
  let rec segments m off len acc =
    if len = 0 then List.rev acc
    else if off >= m.m_len then
      match m.m_next with
      | Some nx -> segments nx (off - m.m_len) len acc
      | None -> invalid_arg "m_copym: chain too short"
    else begin
      let n = min len (m.m_len - off) in
      let acc = (m, off, n) :: acc in
      if len = n then List.rev acc
      else
        match m.m_next with
        | Some nx -> segments nx 0 (len - n) acc
        | None -> invalid_arg "m_copym: chain too short"
    end
  in
  let piece_of (src, off, n) =
    if src.m_ext then begin
      (* Share the external storage: no data copy, one more reference. *)
      Cost.charge_pool_alloc ();
      incr stats_allocated;
      incr src.m_refs;
      { m_next = None; m_data = src.m_data; m_off = src.m_off + off; m_len = n;
        m_ext = true; m_pkthdr_len = 0; m_store = src.m_store; m_refs = src.m_refs;
        m_freed = false; m_on_free = src.m_on_free }
    end
    else begin
      let c = m_get () in
      Cost.charge_copy n;
      Bytes.blit src.m_data (src.m_off + off) c.m_data c.m_off n;
      c.m_len <- n;
      c
    end
  in
  let pieces = List.map piece_of (segments m off len []) in
  let rec link = function
    | [] -> assert false
    | [ last ] -> last
    | first :: rest ->
        first.m_next <- Some (link rest);
        first
  in
  let head = link pieces in
  head.m_pkthdr_len <- len;
  head

(* m_pullup: make the first [n] bytes contiguous in the head mbuf. *)
let m_pullup m n =
  if m.m_len >= n then m
  else begin
    if n > mclbytes then invalid_arg "m_pullup: request too large";
    let head = if n <= mhlen then m_gethdr () else m_getclust () in
    let data = m_copydata m ~off:0 ~len:n in
    Bytes.blit data 0 head.m_data head.m_off n;
    head.m_len <- n;
    head.m_pkthdr_len <- m_length m;
    (* Skip the pulled-up bytes in the old chain. *)
    m_adj m n;
    if m_length m > 0 then head.m_next <- Some m else m_freem m;
    head
  end

(* Append payload, filling tailspace then adding clusters. *)
let m_append m ~src ~src_pos ~len =
  Cost.charge_copy len;
  let rec go tail src_pos len =
    if len > 0 then begin
      let space = m_tailspace tail in
      if space > 0 && not tail.m_ext then begin
        let n = min space len in
        Bytes.blit src src_pos tail.m_data (tail.m_off + tail.m_len) n;
        tail.m_len <- tail.m_len + n;
        go tail (src_pos + n) (len - n)
      end
      else begin
        let c = m_getclust () in
        let n = min mclbytes len in
        Bytes.blit src src_pos c.m_data 0 n;
        c.m_len <- n;
        tail.m_next <- Some c;
        go c (src_pos + n) (len - n)
      end
    end
  in
  go (m_last m) src_pos len;
  m.m_pkthdr_len <- m_length m

(* The chain as an iovec: ordered (backing, off, len) fragments covering
   [off, off+len) with no copy.  This is the scatter-gather view a
   busmaster NIC (or the bufio buf_map_v contract) consumes directly —
   the paper's missing piece on the OSKit send path, where discontiguous
   chains were flattened instead.  Zero-length mbufs contribute nothing. *)
let m_fragments ?(off = 0) ?len m =
  let len = match len with Some l -> l | None -> m_length m - off in
  if len < 0 || off < 0 then invalid_arg "m_fragments: negative range";
  let rec go m off len acc =
    if len = 0 then List.rev acc
    else if off >= m.m_len then
      match m.m_next with
      | Some nx -> go nx (off - m.m_len) len acc
      | None -> invalid_arg "m_fragments: chain too short"
    else begin
      let n = min len (m.m_len - off) in
      let acc = (m.m_data, m.m_off + off, n) :: acc in
      if len = n then List.rev acc
      else
        match m.m_next with
        | Some nx -> go nx 0 (len - n) acc
        | None -> invalid_arg "m_fragments: chain too short"
    end
  in
  go m off len []

(* Number of mbufs in the chain (diagnostics; drives the contiguity check
   in the glue). *)
let m_count m =
  let rec go acc = function None -> acc | Some x -> go (acc + 1) x.m_next in
  go 1 m.m_next

(* Drop every cached buffer and zero the counters: independent simulations
   in one process must all start from a cold cache or virtual times drift
   between otherwise identical runs. *)
let pool_reset () =
  Bpool.drain small_pool;
  Bpool.drain clust_pool;
  Bpool.reset_stats small_pool;
  Bpool.reset_stats clust_pool;
  stats_allocated := 0;
  stats_freed := 0

(* Flatten a chain to plain bytes WITHOUT charging (diagnostic use only). *)
let m_to_bytes_uncharged m =
  let len = m_length m in
  let dst = Bytes.create len in
  let rec go m dst_pos =
    Bytes.blit m.m_data m.m_off dst dst_pos m.m_len;
    match m.m_next with Some nx -> go nx (dst_pos + m.m_len) | None -> ()
  in
  go m 0;
  dst
