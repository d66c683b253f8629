(* ENCAPSULATED LEGACY CODE — the 4.4BSD buffer cache (vfs_bio.c).
 *
 * bread/bwrite/bdwrite/brelse over a block device, with an LRU of clean
 * buffers, a hash on block number, and delayed writes flushed by sync.
 * The device below is reached through the OSKit blkio interface the glue
 * was handed at mount time — the run-time binding of Section 4.2.2.
 *
 * Pinning (PR 10): a buffer's [b_refs] doubles as its pin count.  The
 * sendfile path maps cache blocks straight into socket buffers, so a
 * block may stay referenced long after the fs call that faulted it in
 * returns — until the last transmitted byte is acknowledged.  Eviction
 * therefore (a) never touches a buffer with [b_refs > 0], and (b) picks
 * the true least-recently-used unreferenced buffer (oldest [b_lru_tick],
 * not hash-iteration order).  If everything is pinned the cache grows
 * past [max_bufs], as BSD's does under wired pages, and it shrinks back
 * as the references go: a fault-in evicts down to make room, and so does
 * the release ([brelse], [unpin]) of a buffer's last reference, so once
 * every reference is released the cache holds at most [max_bufs].
 *
 * Mapping: a device that keeps its blocks in memory (the RAM disk) may
 * export {!Io_if.blkmap}, and then a reader's miss ([bread_ro],
 * [bread_loan]) maps the device's page as the buffer instead of reading
 * the block into a buffer of its own: no device read, no copy, no 4 KB
 * allocated.  It still counts as a miss ([maps] counts the mapped ones).
 * Mapped bytes never change: the device gives a mapped page fresh bytes
 * before it writes there (copy-on-write), so a mapped buffer is never
 * written in place and never dirty, and eviction just drops it.  A writer
 * ([bread], [getblk_nofill]) first gives a mapped buffer bytes of its own
 * ([make_private]): [bread] copies the page, charging the copy the read
 * it replaces would have, and [getblk_nofill] takes fresh bytes, charging
 * nothing.  A device without the face, or a block the device does not
 * store as one page (a [bsize] other than the page's), is read by
 * copying, as a disk is.
 *
 * Checksum memo: a block loaned to sendfile carries one
 * ({!Io_if.cksum_memo}, made on the block's first loan), which the
 * network stack fills as it sums the block's bytes and reuses on the next
 * send of the same bytes.  The memo belongs to the device block, not to
 * the buffer that holds it: the cache keeps memos by block number
 * ([sums]), eviction keeps the memo, and [bread_loan] attaches it again
 * when it faults the block back in, so a block evicted under pressure is
 * not summed again when it returns.  This rests on the assumption the
 * cached bytes already make: while the file system is mounted, the device
 * is written only through this cache.  The cache does not know who writes
 * a block, so every access that may change the bytes ([bread],
 * [getblk_nofill]) resets the block's memo, cached or not; only the two
 * that promise to read alone, a loan ([bread_loan]) and a read
 * ([bread_ro]), keep it.  The reset is in place, because socket buffers
 * and retransmit queues may still hold the memo through their own pins —
 * except for a mapped buffer's: its writer takes new bytes and a new memo,
 * and the old memo stays with the loans of the old bytes, which no longer
 * change.  [drop_sums]
 * forgets a block's memo; the file system calls it when it frees the
 * block, so the memos number at most one per allocated block that has
 * held loaned file data, each 1/8 of its block's size.  How much of the
 * block a buffer holds does not touch the memo: a loan maps only bytes the
 * buffer holds, and reading the rest of the block changes none of them.
 *
 * Short buffers (BSD's [b_bcount]): a buffer holds the first [b_bcount]
 * bytes of its block, and a read asks for as many as it needs.  The file
 * system's file reads ask for the file's bytes in its last direct block
 * rounded up to a fragment (FFS's [blksize]), so a small file's tail
 * costs its fragments on the device, not a whole block.  A later read
 * that needs more of a cached block reads only the rest ([b_bcount] up to
 * the new size); [getblk_nofill] claims the whole block, and a write
 * pushes the bytes the buffer holds.  Every writer reaches its block
 * through [bread] or [getblk_nofill], which hold it whole, so a dirty
 * buffer is always whole.  A mapped buffer holds its whole block.
 *)

type buf = {
  b_blkno : int;
  mutable b_data : bytes; (* a mapped buffer's is the device's page *)
  mutable b_bcount : int; (* bytes of the block held, from its start *)
  mutable b_dirty : bool;
  mutable b_mapped : bool; (* [b_data] is mapped from the device, not a copy *)
  mutable b_refs : int;
  mutable b_lru_tick : int;
  mutable b_sums : Io_if.cksum_memo option; (* the block's memo (see [sums]) *)
}

type t = {
  dev : Io_if.blkio;
  map : Io_if.blkmap option; (* the device's block-mapping face, if it exports one *)
  bsize : int;
  cache : (int, buf) Hashtbl.t;
  mutable unreferenced : int; (* cached buffers with [b_refs = 0]: eviction's candidates *)
  sums : (int, Io_if.cksum_memo) Hashtbl.t; (* checksum memos by block number *)
  max_bufs : int;
  mutable tick : int;
  mutable reads : int; (* device reads actually issued *)
  mutable writes : int;
  mutable read_bytes : int; (* bytes those reads fetched *)
  mutable written_bytes : int;
  mutable maps : int; (* misses served by mapping the device's page *)
  mutable peak : int; (* most buffers resident at once *)
  mutable hits : int;
  mutable misses : int; (* lookups that had to read the block, or the rest of it *)
  mutable evictions : int; (* buffers pushed out under pressure *)
  mutable pins : int; (* sendfile pins taken (cumulative) *)
  mutable unpins : int; (* sendfile pins released (cumulative) *)
}

let create ?(max_bufs = 64) ~bsize dev =
  { dev; map = Result.to_option (Com.query dev.Io_if.bio_unknown Io_if.blkmap_iid); bsize;
    cache = Hashtbl.create 64; unreferenced = 0; sums = Hashtbl.create 64; max_bufs; tick = 0;
    reads = 0; writes = 0; read_bytes = 0; written_bytes = 0; maps = 0; peak = 0; hits = 0;
    misses = 0; evictions = 0; pins = 0; unpins = 0 }

(* Read the block's bytes [b_bcount, upto) into the buffer. *)
let device_read t b ~upto =
  let from = b.b_bcount and n = upto - b.b_bcount in
  t.reads <- t.reads + 1;
  t.read_bytes <- t.read_bytes + n;
  match
    t.dev.Io_if.bio_read ~buf:b.b_data ~pos:from ~offset:((b.b_blkno * t.bsize) + from) ~amount:n
  with
  | Ok m when m = n -> b.b_bcount <- upto
  | Ok _ -> Error.fail Error.Io
  | Result.Error e -> Error.fail e

(* Write the bytes the buffer holds. *)
let device_write t b =
  let n = b.b_bcount in
  t.writes <- t.writes + 1;
  t.written_bytes <- t.written_bytes + n;
  match t.dev.Io_if.bio_write ~buf:b.b_data ~pos:0 ~offset:(b.b_blkno * t.bsize) ~amount:n with
  | Ok m when m = n -> b.b_dirty <- false
  | Ok _ -> Error.fail Error.Io
  | Result.Error e -> Error.fail e

(* Evict the least recently used unreferenced buffer (writing it out first
   if it is dirty — BSD pushes delayed writes under pressure; a mapped
   buffer is never dirty and is just dropped).  Referenced buffers —
   including sendfile pins — are never victims: their bytes may be queued
   for DMA right now.  Call only when some buffer is unreferenced. *)
let evict_one t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ b ->
      if b.b_refs = 0 then
        match !victim with
        | Some v when v.b_lru_tick <= b.b_lru_tick -> ()
        | _ -> victim := Some b)
    t.cache;
  Option.iter
    (fun b ->
      if b.b_dirty then device_write t b;
      Hashtbl.remove t.cache b.b_blkno;
      t.unreferenced <- t.unreferenced - 1;
      t.evictions <- t.evictions + 1)
    !victim

(* Evict until at most [n] buffers remain, or every one left is
   referenced (then the cache stays grown, as BSD's does under wired
   pages, until the references are released). *)
let rec shrink t n =
  if Hashtbl.length t.cache > n && t.unreferenced > 0 then begin
    evict_one t;
    shrink t n
  end

(* Take a reference: an unreferenced buffer is a victim no longer. *)
let reference t b =
  if b.b_refs = 0 then t.unreferenced <- t.unreferenced - 1;
  b.b_refs <- b.b_refs + 1

let count_lookup t ~hit =
  if hit then begin
    t.hits <- t.hits + 1;
    Cost.count_bufcache_hit ()
  end
  else begin
    t.misses <- t.misses + 1;
    Cost.count_bufcache_miss ()
  end

(* The cached buffer of [blkno], referenced, if there is one.  A lookup
   that finds it holding the first [size] bytes is a hit; one that must
   fault the block in, or read the rest of a short buffer, is a miss. *)
let lookup t blkno ~size =
  t.tick <- t.tick + 1;
  let found = Hashtbl.find_opt t.cache blkno in
  count_lookup t ~hit:(match found with Some b -> b.b_bcount >= size | None -> false);
  Option.iter
    (fun b ->
      reference t b;
      b.b_lru_tick <- t.tick)
    found;
  found

(* A new referenced buffer of [blkno] over [data], holding its first
   [bcount] bytes, entered after evicting down to make room for it. *)
let enter t blkno data ~bcount ~mapped =
  shrink t (t.max_bufs - 1);
  let b =
    { b_blkno = blkno; b_data = data; b_bcount = bcount; b_dirty = false; b_mapped = mapped;
      b_refs = 1; b_lru_tick = t.tick; b_sums = Hashtbl.find_opt t.sums blkno }
  in
  Hashtbl.replace t.cache blkno b;
  t.peak <- max t.peak (Hashtbl.length t.cache);
  b

let empty t blkno = enter t blkno (Bytes.make t.bsize '\000') ~bcount:0 ~mapped:false

(* The buffer of [blkno], to hold at least its first [size] bytes once
   the caller reads any it lacks: a miss faults in an empty buffer. *)
let getblk t blkno ~size =
  match lookup t blkno ~size with Some b -> b | None -> empty t blkno

let new_memo t = Array.make (t.bsize / Io_if.cksum_chunk) (-1)

let clear_sums b =
  match b.b_sums with Some sums -> Array.fill sums 0 (Array.length sums) (-1) | None -> ()

(* A writer's buffer: a mapped one first takes bytes of its own — a
   charged copy of the page when [copy], else fresh ones its caller
   overwrites whole — and a new memo if it had one.  The old memo stays
   with the loans of the page, whose bytes never change. *)
let make_private t b ~copy =
  if b.b_mapped then begin
    b.b_data <-
      (if copy then begin
         Cost.charge_copy t.bsize;
         Bytes.copy b.b_data
       end
       else Bytes.make t.bsize '\000');
    b.b_mapped <- false;
    if Option.is_some b.b_sums then begin
      let sums = new_memo t in
      if Hashtbl.mem t.sums b.b_blkno then Hashtbl.replace t.sums b.b_blkno sums;
      b.b_sums <- Some sums
    end
  end

(* bread: a referenced buffer with the block's whole contents, its own to
   change.  A block faulted back in has its memo attached again, so this
   resets it too. *)
let bread t blkno =
  let b = getblk t blkno ~size:t.bsize in
  make_private t b ~copy:true;
  if b.b_bcount < t.bsize then device_read t b ~upto:t.bsize;
  clear_sums b;
  b

(* getblk-without-read: caller will overwrite the whole block. *)
let getblk_nofill t blkno =
  let b = getblk t blkno ~size:0 in
  make_private t b ~copy:false;
  b.b_bcount <- t.bsize;
  clear_sums b;
  b

(* The device's page of [blkno], when the device maps it in place. *)
let map_block t blkno =
  Option.bind t.map (fun m ->
      match m.Io_if.bm_map ~offset:(blkno * t.bsize) ~amount:t.bsize with
      | Some (page, 0) when Bytes.length page = t.bsize -> Some page
      | Some _ | None -> None)

(* bread for a caller that only reads the bytes (a file read, or the file
   system reading its metadata), of which it needs the first [size]: keeps
   the block's checksum memo.  A miss maps the whole block when the device
   allows it, and reads from the device otherwise. *)
let bread_ro t blkno ~size =
  let b =
    match lookup t blkno ~size with
    | Some b -> b
    | None -> (
        match map_block t blkno with
        | Some page ->
            t.maps <- t.maps + 1;
            enter t blkno page ~bcount:t.bsize ~mapped:true
        | None -> empty t blkno)
  in
  if b.b_bcount < size then device_read t b ~upto:size;
  b

(* bread_ro for a loan to sendfile, whose consumers only read the bytes:
   keeps the block's checksum memo, making it if absent. *)
let bread_loan t blkno ~size =
  let b = bread_ro t blkno ~size in
  (match b.b_sums with
  | Some _ -> ()
  | None ->
      let sums = new_memo t in
      Hashtbl.replace t.sums blkno sums;
      b.b_sums <- Some sums);
  b

(* The block is no longer the file system's (it was freed): forget its
   memo, reset first.  A pinned buffer keeps the memo object, which socket
   buffers hold through their pins and the block's next writer must still
   reset; it dies with the buffer. *)
let drop_sums t blkno =
  match Hashtbl.find_opt t.sums blkno with
  | None -> ()
  | Some sums -> (
      Array.fill sums 0 (Array.length sums) (-1);
      Hashtbl.remove t.sums blkno;
      match Hashtbl.find_opt t.cache blkno with
      | Some b when b.b_refs = 0 -> b.b_sums <- None
      | Some _ | None -> ())

(* Drop one reference; the last one lets a cache grown past [max_bufs]
   by references shrink back. *)
let brelse t b =
  if b.b_refs > 0 then begin
    b.b_refs <- b.b_refs - 1;
    if b.b_refs = 0 then begin
      t.unreferenced <- t.unreferenced + 1;
      shrink t t.max_bufs
    end
  end

(* ---- sendfile pins ----
 *
 * The same reference count as bread/brelse, but accounted separately so
 * the cache stats show how much of the working set is wired by in-flight
 * transmits.  A mapping typically starts from a [bread] reference and
 * converts it with [pin_held]; every additional consumer takes [pin] and
 * each pin comes back through [unpin]. *)

let pin t b =
  reference t b;
  t.pins <- t.pins + 1

(* Adopt an already-held reference (e.g. bread's) as a pin: counts the pin
   without re-referencing. *)
let pin_held t (_ : buf) = t.pins <- t.pins + 1

let unpin t b =
  brelse t b;
  t.unpins <- t.unpins + 1

(* bdwrite: mark dirty, write later. *)
let bdwrite b = b.b_dirty <- true

(* bwrite: write through now.  (The file system's bawrite, which BSD
   starts without waiting, is this call too: the blkio below completes
   every request before it returns.) *)
let bwrite t b = device_write t b

let sync t =
  let dirty = Hashtbl.fold (fun _ b acc -> if b.b_dirty then b :: acc else acc) t.cache [] in
  List.iter (device_write t) (List.sort (fun a b -> Int.compare a.b_blkno b.b_blkno) dirty)

let stats t = t.reads, t.writes, t.hits

type cache_stats = {
  cs_reads : int;
  cs_writes : int;
  cs_read_bytes : int; (* device bytes read *)
  cs_written_bytes : int; (* device bytes written *)
  cs_maps : int; (* misses served by mapping the device's page: no read *)
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_pins : int;
  cs_unpins : int;
  cs_cached : int; (* buffers currently resident *)
  cs_peak : int; (* most buffers resident at once *)
  cs_pinned : int; (* buffers currently referenced (refs > 0) *)
  cs_memos : int; (* checksum memos kept, cached blocks or not *)
}

let cache_stats t =
  let pinned = Hashtbl.fold (fun _ b acc -> if b.b_refs > 0 then acc + 1 else acc) t.cache 0 in
  { cs_reads = t.reads; cs_writes = t.writes; cs_read_bytes = t.read_bytes;
    cs_written_bytes = t.written_bytes; cs_maps = t.maps; cs_hits = t.hits; cs_misses = t.misses;
    cs_evictions = t.evictions; cs_pins = t.pins; cs_unpins = t.unpins;
    cs_cached = Hashtbl.length t.cache; cs_peak = t.peak; cs_pinned = pinned;
    cs_memos = Hashtbl.length t.sums }
