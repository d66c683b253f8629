(* ENCAPSULATED LEGACY CODE — a 4.4BSD FFS-style file system (ufs/ffs),
 * structurally reduced but on-disk-real: a superblock, inode and block
 * bitmaps, a fixed inode table, and data blocks addressed through 12
 * direct pointers plus single and double indirect blocks.  Directories
 * are files of fixed-size entries.  All device access goes through the
 * buffer cache.
 *
 * Everything here is keyed by inode number; the glue (Fs_glue) wraps the
 * VFS-granularity operations in the OSKit's COM dir/file interfaces.
 *
 * Name cache (4.4BSD vfs_cache.c's cache_lookup/cache_enter/cache_purge):
 * [dir_lookup] answers a (directory inode, name) it has found before from
 * [ncache] instead of reading every dirent up to the target again.  It
 * keeps positive entries only, each the dirent's slot and inode; a miss
 * scans the directory ([dir_scan]) and enters what it finds.  Every dirent
 * write purges the directory's entries (entering, removing and renaming a
 * name, and rewriting a moved directory's ".."), and freeing an inode
 * purges the entries of the directory it was, so a reused inode number
 * never answers with its last life's names.
 *
 * Freeing a block also drops the buffer cache's checksum memo for it
 * ([Buf.drop_sums]): the memos outlive eviction, but not the block.
 *
 * Device I/O as ffs_read/ffs_write do it.  A file read ([read],
 * [map_blocks]) faults a block in at [blksize]: a file's last direct
 * block only up to its last byte rounded up to a fragment (bsize/8), every
 * other block whole (FFS gives the blocks past the twelve direct ones no
 * fragments).  A write that reaches the end of a block writes it to the
 * device at once (ffs_write's bawrite); only a partial block is a delayed
 * write.  A partial write reads the block whole first, so a block read
 * short fetches the rest before it is changed.  Neither rule touches the
 * checksum memo: a short read keeps it as a whole one would, and every
 * write still reaches its block through a call that resets it.
 *
 * Every access that only reads a block — a file read, the sendfile
 * mapping, and the superblock, bitmap, inode and indirect-block reads —
 * goes through [Buf.bread_ro] (or [bread_loan]), so on a device that maps
 * its blocks a miss copies nothing; only a writer reaches a block through
 * [Buf.bread] or [getblk_nofill].
 *)

let bsize = 4096
let fsize = bsize / 8 (* a fragment *)
let magic = 0x4F465331
let inode_size = 128
let inodes_per_block = bsize / inode_size
let ndirect = 12
let nindirect = bsize / 4 (* 1024 block pointers per indirect block *)
let dirent_size = 32
let max_name = 27
let root_ino = 2

type kind = K_free | K_file | K_dir

type inode = {
  ino : int;
  mutable i_kind : kind;
  mutable i_nlink : int;
  mutable i_size : int;
  i_direct : int array; (* ndirect entries *)
  mutable i_sind : int; (* single indirect block, 0 = none *)
  mutable i_dind : int; (* double indirect *)
}

type sb = {
  mutable nblocks : int;
  mutable ninodes : int;
  ibmap_start : int;
  ibmap_blocks : int;
  bbmap_start : int;
  bbmap_blocks : int;
  itab_start : int;
  itab_blocks : int;
  data_start : int;
}

type t = {
  bc : Buf.t;
  sb : sb;
  icache : (int, inode) Hashtbl.t;
  ncache : (int, (string, int * int) Hashtbl.t) Hashtbl.t; (* dir ino -> name -> (slot, ino) *)
  mutable allocated_blocks : int;
}

exception Fs_error of Error.t

let fail e = raise (Fs_error e)

(* ---- the name cache ---- *)

let cache_purge t ino = Hashtbl.remove t.ncache ino

let cache_lookup t dnode name =
  match Hashtbl.find_opt t.ncache dnode.ino with
  | Some names -> Hashtbl.find_opt names name
  | None -> None

let cache_enter t dnode name hit =
  let names =
    match Hashtbl.find_opt t.ncache dnode.ino with
    | Some names -> names
    | None ->
        let names = Hashtbl.create 16 in
        Hashtbl.replace t.ncache dnode.ino names;
        names
  in
  Hashtbl.replace names name hit

(* ---- superblock encode/decode ---- *)

let sb_write t =
  let b = Buf.getblk_nofill t.bc 0 in
  let d = b.Buf.b_data in
  Bytes.fill d 0 bsize '\000';
  let w i v = Bytes.set_int32_le d (4 * i) (Int32.of_int v) in
  w 0 magic;
  w 1 t.sb.nblocks;
  w 2 t.sb.ninodes;
  w 3 t.sb.ibmap_start;
  w 4 t.sb.ibmap_blocks;
  w 5 t.sb.bbmap_start;
  w 6 t.sb.bbmap_blocks;
  w 7 t.sb.itab_start;
  w 8 t.sb.itab_blocks;
  w 9 t.sb.data_start;
  Buf.bwrite t.bc b;
  Buf.brelse t.bc b

let sb_read bc =
  let b = Buf.bread_ro bc 0 ~size:bsize in
  let d = b.Buf.b_data in
  let r i = Int32.to_int (Bytes.get_int32_le d (4 * i)) in
  let result =
    if r 0 <> magic then None
    else
      Some
        { nblocks = r 1; ninodes = r 2; ibmap_start = r 3; ibmap_blocks = r 4;
          bbmap_start = r 5; bbmap_blocks = r 6; itab_start = r 7; itab_blocks = r 8;
          data_start = r 9 }
  in
  Buf.brelse bc b;
  result

(* ---- bitmaps ---- *)

let bitmap_get t ~start idx =
  let blk = start + (idx / (bsize * 8)) in
  let bit = idx mod (bsize * 8) in
  let b = Buf.bread_ro t.bc blk ~size:bsize in
  let v = Char.code (Bytes.get b.Buf.b_data (bit / 8)) land (1 lsl (bit mod 8)) <> 0 in
  Buf.brelse t.bc b;
  v

let bitmap_set t ~start idx value =
  let blk = start + (idx / (bsize * 8)) in
  let bit = idx mod (bsize * 8) in
  let b = Buf.bread t.bc blk in
  let byte = Char.code (Bytes.get b.Buf.b_data (bit / 8)) in
  let byte' =
    if value then byte lor (1 lsl (bit mod 8)) else byte land lnot (1 lsl (bit mod 8))
  in
  Bytes.set b.Buf.b_data (bit / 8) (Char.chr byte');
  Buf.bdwrite b;
  Buf.brelse t.bc b

(* First fit from bit 0: each bitmap block is looked up once per scan and
   its bits tested in place. *)
let bitmap_find_clear t ~start ~limit =
  let per_block = bsize * 8 in
  let rec scan base =
    if base >= limit then None
    else begin
      let b = Buf.bread_ro t.bc (start + (base / per_block)) ~size:bsize in
      let stop = min per_block (limit - base) in
      let rec bit i =
        if i >= stop then None
        else if Char.code (Bytes.get b.Buf.b_data (i / 8)) land (1 lsl (i mod 8)) <> 0 then
          bit (i + 1)
        else Some (base + i)
      in
      let found = bit 0 in
      Buf.brelse t.bc b;
      if found = None then scan (base + per_block) else found
    end
  in
  scan 0

(* ---- block allocation ---- *)

let zero_block t blk =
  let b = Buf.getblk_nofill t.bc blk in
  Bytes.fill b.Buf.b_data 0 bsize '\000';
  Buf.bdwrite b;
  Buf.brelse t.bc b

let balloc t =
  match
    bitmap_find_clear t ~start:t.sb.bbmap_start ~limit:(t.sb.nblocks - t.sb.data_start)
  with
  | None -> fail Error.Nospc
  | Some idx ->
      bitmap_set t ~start:t.sb.bbmap_start idx true;
      t.allocated_blocks <- t.allocated_blocks + 1;
      let blk = t.sb.data_start + idx in
      zero_block t blk;
      blk

let bfree t blk =
  if blk <> 0 then begin
    bitmap_set t ~start:t.sb.bbmap_start (blk - t.sb.data_start) false;
    Buf.drop_sums t.bc blk;
    t.allocated_blocks <- t.allocated_blocks - 1
  end

(* ---- inodes ---- *)

let inode_loc t ino =
  let blk = t.sb.itab_start + (ino / inodes_per_block) in
  let off = ino mod inodes_per_block * inode_size in
  blk, off

let iread t ino =
  let blk, off = inode_loc t ino in
  let b = Buf.bread_ro t.bc blk ~size:bsize in
  let d = b.Buf.b_data in
  let r i = Int32.to_int (Bytes.get_int32_le d (off + (4 * i))) in
  let kind = match Bytes.get_uint16_le d off with 1 -> K_file | 2 -> K_dir | _ -> K_free in
  let node =
    { ino;
      i_kind = kind;
      i_nlink = Bytes.get_uint16_le d (off + 2);
      i_size = r 1;
      i_direct = Array.init ndirect (fun i -> r (2 + i));
      i_sind = r (2 + ndirect);
      i_dind = r (3 + ndirect) }
  in
  Buf.brelse t.bc b;
  node

let iupdate t node =
  let blk, off = inode_loc t node.ino in
  let b = Buf.bread t.bc blk in
  let d = b.Buf.b_data in
  let w i v = Bytes.set_int32_le d (off + (4 * i)) (Int32.of_int v) in
  Bytes.set_uint16_le d off
    (match node.i_kind with K_free -> 0 | K_file -> 1 | K_dir -> 2);
  Bytes.set_uint16_le d (off + 2) node.i_nlink;
  w 1 node.i_size;
  Array.iteri (fun i v -> w (2 + i) v) node.i_direct;
  w (2 + ndirect) node.i_sind;
  w (3 + ndirect) node.i_dind;
  Buf.bdwrite b;
  Buf.brelse t.bc b

let iget t ino =
  if ino < 0 || ino >= t.sb.ninodes then fail Error.Inval;
  match Hashtbl.find_opt t.icache ino with
  | Some n -> n
  | None ->
      let n = iread t ino in
      Hashtbl.replace t.icache ino n;
      n

let ialloc t kind =
  match bitmap_find_clear t ~start:t.sb.ibmap_start ~limit:t.sb.ninodes with
  | None -> fail Error.Nospc
  | Some ino ->
      bitmap_set t ~start:t.sb.ibmap_start ino true;
      let node =
        { ino; i_kind = kind; i_nlink = 0; i_size = 0;
          i_direct = Array.make ndirect 0; i_sind = 0; i_dind = 0 }
      in
      Hashtbl.replace t.icache ino node;
      iupdate t node;
      node

(* ---- bmap: file block -> disk block ---- *)

let read_ptr t blk idx =
  let b = Buf.bread_ro t.bc blk ~size:bsize in
  let v = Int32.to_int (Bytes.get_int32_le b.Buf.b_data (4 * idx)) in
  Buf.brelse t.bc b;
  v

let write_ptr t blk idx v =
  let b = Buf.bread t.bc blk in
  Bytes.set_int32_le b.Buf.b_data (4 * idx) (Int32.of_int v);
  Buf.bdwrite b;
  Buf.brelse t.bc b

let rec bmap t node fblk ~alloc =
  if fblk < ndirect then begin
    let blk = node.i_direct.(fblk) in
    if blk <> 0 || not alloc then blk
    else begin
      let blk = balloc t in
      node.i_direct.(fblk) <- blk;
      iupdate t node;
      blk
    end
  end
  else if fblk < ndirect + nindirect then begin
    let idx = fblk - ndirect in
    if node.i_sind = 0 then
      if not alloc then 0
      else begin
        node.i_sind <- balloc t;
        iupdate t node;
        bmap t node fblk ~alloc
      end
    else begin
      let blk = read_ptr t node.i_sind idx in
      if blk <> 0 || not alloc then blk
      else begin
        let blk = balloc t in
        write_ptr t node.i_sind idx blk;
        blk
      end
    end
  end
  else begin
    let idx = fblk - ndirect - nindirect in
    if idx >= nindirect * nindirect then fail Error.Fbig;
    if node.i_dind = 0 then
      if not alloc then 0
      else begin
        node.i_dind <- balloc t;
        iupdate t node;
        bmap t node fblk ~alloc
      end
    else begin
      let l1 = idx / nindirect and l2 = idx mod nindirect in
      let mid = read_ptr t node.i_dind l1 in
      let mid =
        if mid <> 0 then mid
        else if not alloc then 0
        else begin
          let m = balloc t in
          write_ptr t node.i_dind l1 m;
          m
        end
      in
      if mid = 0 then 0
      else begin
        let blk = read_ptr t mid l2 in
        if blk <> 0 || not alloc then blk
        else begin
          let blk = balloc t in
          write_ptr t mid l2 blk;
          blk
        end
      end
    end
  end

(* ---- file read/write ---- *)

(* FFS's blksize: the bytes of file block [fblk] a read needs — the file's
   bytes in it rounded up to a fragment if it is the file's last direct
   block, else the whole block. *)
let blksize node fblk =
  if fblk >= ndirect || node.i_size >= (fblk + 1) * bsize then bsize
  else (node.i_size - (fblk * bsize) + fsize - 1) / fsize * fsize

let read t node ~off ~len ~dst ~dst_pos =
  if off < 0 then fail Error.Inval;
  let len = max 0 (min len (node.i_size - off)) in
  let rec go off len dst_pos copied =
    if len = 0 then copied
    else begin
      let fblk = off / bsize and boff = off mod bsize in
      let n = min len (bsize - boff) in
      let blk = bmap t node fblk ~alloc:false in
      (if blk = 0 then Bytes.fill dst dst_pos n '\000' (* hole *)
       else begin
         let b = Buf.bread_ro t.bc blk ~size:(blksize node fblk) in
         Cost.charge_copy n;
         Bytes.blit b.Buf.b_data boff dst dst_pos n;
         Buf.brelse t.bc b
       end);
      go (off + n) (len - n) (dst_pos + n) (copied + n)
    end
  in
  go off len dst_pos 0

(* Map [off, off+len) (clamped to the file size) as pinned buffer-cache
   fragments — the fs half of the sendfile path.  Each fragment's backing
   block is faulted in through the bread path (so it hits or populates the
   cache like any read; [bread_loan] also keeps the block's checksum memo,
   which every fragment carries) and its reference is kept as the
   mapping's pin instead of being brelse'd; the caller releases each
   fragment exactly once, and may take further holds for bytes it keeps in
   flight.  Returns [None] if the range crosses a hole: loaning out the
   shared zero page would let an aliasing writer corrupt every hole in the
   fs, so holes take the copy path. *)
let map_blocks t node ~off ~len =
  if off < 0 then fail Error.Inval;
  let len = max 0 (min len (node.i_size - off)) in
  let release_all acc = List.iter (fun f -> f.Io_if.fr_release ()) acc in
  let rec go off len acc =
    if len = 0 then Some (List.rev acc)
    else begin
      let fblk = off / bsize and boff = off mod bsize in
      let n = min len (bsize - boff) in
      let blk = bmap t node fblk ~alloc:false in
      if blk = 0 then begin
        release_all acc;
        None
      end
      else begin
        let b = Buf.bread_loan t.bc blk ~size:(blksize node fblk) in
        (* bread's reference becomes the mapping's pin. *)
        Buf.pin_held t.bc b;
        let frag =
          { Io_if.fr_data = b.Buf.b_data; fr_off = boff; fr_len = n; fr_sums = b.Buf.b_sums;
            fr_hold = (fun () -> Buf.pin t.bc b);
            fr_release = (fun () -> Buf.unpin t.bc b) }
        in
        go (off + n) (len - n) (frag :: acc)
      end
    end
  in
  go off len []

let write t node ~off ~len ~src ~src_pos =
  if off < 0 then fail Error.Inval;
  let rec go off len src_pos written =
    if len = 0 then written
    else begin
      let fblk = off / bsize and boff = off mod bsize in
      let n = min len (bsize - boff) in
      let blk = bmap t node fblk ~alloc:true in
      let whole = boff = 0 && n = bsize in
      let b = if whole then Buf.getblk_nofill t.bc blk else Buf.bread t.bc blk in
      Cost.charge_copy n;
      Bytes.blit src src_pos b.Buf.b_data boff n;
      (* A filled block goes to the device now (ffs_write's bawrite). *)
      if boff + n = bsize then Buf.bwrite t.bc b else Buf.bdwrite b;
      Buf.brelse t.bc b;
      go (off + n) (len - n) (src_pos + n) (written + n)
    end
  in
  let written = go off len src_pos 0 in
  if written > 0 && off + written > node.i_size then begin
    node.i_size <- off + written;
    iupdate t node
  end;
  written

(* Free all blocks past [size] and shrink.  The kept part of a partial last
   block has its tail zeroed, as ffs_truncate does, so a file that grows
   again reads zeros there (ffs_truncate then writes the block at once;
   here it stays a delayed write, like any partial block). *)
let truncate t node size =
  if size < node.i_size then begin
    (if size mod bsize <> 0 then
       let blk = bmap t node (size / bsize) ~alloc:false in
       if blk <> 0 then begin
         let b = Buf.bread t.bc blk in
         Bytes.fill b.Buf.b_data (size mod bsize) (bsize - (size mod bsize)) '\000';
         Buf.bdwrite b;
         Buf.brelse t.bc b
       end);
    let keep_blocks = (size + bsize - 1) / bsize in
    let last_fblk = (node.i_size + bsize - 1) / bsize in
    for fblk = keep_blocks to last_fblk - 1 do
      let blk = bmap t node fblk ~alloc:false in
      if blk <> 0 then begin
        bfree t blk;
        (* Clear the pointer. *)
        if fblk < ndirect then node.i_direct.(fblk) <- 0
        else if fblk < ndirect + nindirect then
          write_ptr t node.i_sind (fblk - ndirect) 0
        else begin
          let idx = fblk - ndirect - nindirect in
          let mid = read_ptr t node.i_dind (idx / nindirect) in
          if mid <> 0 then write_ptr t mid (idx mod nindirect) 0
        end
      end
    done;
    (* Release indirect blocks that became useless. *)
    if keep_blocks <= ndirect && node.i_sind <> 0 then begin
      bfree t node.i_sind;
      node.i_sind <- 0
    end;
    if keep_blocks <= ndirect + nindirect && node.i_dind <> 0 then begin
      for l1 = 0 to nindirect - 1 do
        let mid = read_ptr t node.i_dind l1 in
        if mid <> 0 then bfree t mid
      done;
      bfree t node.i_dind;
      node.i_dind <- 0
    end
  end;
  node.i_size <- size;
  iupdate t node

let ifree t node =
  cache_purge t node.ino;
  truncate t node 0;
  node.i_kind <- K_free;
  node.i_nlink <- 0;
  iupdate t node;
  bitmap_set t ~start:t.sb.ibmap_start node.ino false;
  Hashtbl.remove t.icache node.ino

(* ---- directories ---- *)

let dirent_count node = node.i_size / dirent_size

let dirent_read t node idx =
  let buf = Bytes.create dirent_size in
  let n = read t node ~off:(idx * dirent_size) ~len:dirent_size ~dst:buf ~dst_pos:0 in
  if n <> dirent_size then fail Error.Io;
  let ino = Int32.to_int (Bytes.get_int32_le buf 0) in
  let namelen = Char.code (Bytes.get buf 4) in
  if ino = 0 then None else Some (ino, Bytes.sub_string buf 5 (min namelen max_name))

let dirent_write t node idx ~ino ~name =
  cache_purge t node.ino;
  let buf = Bytes.make dirent_size '\000' in
  Bytes.set_int32_le buf 0 (Int32.of_int ino);
  Bytes.set buf 4 (Char.chr (String.length name));
  Bytes.blit_string name 0 buf 5 (String.length name);
  ignore (write t node ~off:(idx * dirent_size) ~len:dirent_size ~src:buf ~src_pos:0)

let check_name name =
  if name = "" || String.length name > max_name || String.contains name '/' then
    fail Error.Nametoolong

(* The linear scan: [name]'s slot and inode, reading every dirent before
   it. *)
let dir_scan t dnode name =
  if dnode.i_kind <> K_dir then fail Error.Notdir;
  let n = dirent_count dnode in
  let rec go i =
    if i >= n then None
    else
      match dirent_read t dnode i with
      | Some (ino, nm) when nm = name -> Some (i, ino)
      | Some _ | None -> go (i + 1)
  in
  go 0

let dir_lookup t dnode name =
  if dnode.i_kind <> K_dir then fail Error.Notdir;
  match cache_lookup t dnode name with
  | Some _ as hit -> hit
  | None ->
      let found = dir_scan t dnode name in
      Option.iter (cache_enter t dnode name) found;
      found

let dir_enter t dnode ~name ~ino =
  check_name name;
  if dir_lookup t dnode name <> None then fail Error.Exist;
  (* Reuse a hole if one exists. *)
  let n = dirent_count dnode in
  let rec find_slot i =
    if i >= n then n else match dirent_read t dnode i with None -> i | Some _ -> find_slot (i + 1)
  in
  dirent_write t dnode (find_slot 0) ~ino ~name

let dir_remove t dnode ~name =
  match dir_lookup t dnode name with
  | None -> fail Error.Noent
  | Some (idx, ino) ->
      dirent_write t dnode idx ~ino:0 ~name:"";
      ino

let dir_entries t dnode =
  if dnode.i_kind <> K_dir then fail Error.Notdir;
  let n = dirent_count dnode in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match dirent_read t dnode i with
      | Some (_, nm) when nm <> "." && nm <> ".." -> go (i + 1) (nm :: acc)
      | Some _ | None -> go (i + 1) acc
  in
  go 0 []

let dir_is_empty t dnode = dir_entries t dnode = []

(* ---- high-level operations (single path component, as the COM
   interface demands) ---- *)

let create_file t dnode ~name =
  check_name name;
  if dir_lookup t dnode name <> None then fail Error.Exist;
  let node = ialloc t K_file in
  node.i_nlink <- 1;
  iupdate t node;
  dir_enter t dnode ~name ~ino:node.ino;
  node

let make_dir t dnode ~name =
  check_name name;
  if dir_lookup t dnode name <> None then fail Error.Exist;
  let node = ialloc t K_dir in
  node.i_nlink <- 2;
  iupdate t node;
  dir_enter t node ~name:"." ~ino:node.ino;
  dir_enter t node ~name:".." ~ino:dnode.ino;
  dir_enter t dnode ~name ~ino:node.ino;
  dnode.i_nlink <- dnode.i_nlink + 1;
  iupdate t dnode;
  node

(* Hard link: a second name for an existing file inode. *)
let link t ~from_dir ~from_name ~to_dir ~to_name =
  check_name to_name;
  match dir_lookup t from_dir from_name with
  | None -> fail Error.Noent
  | Some (_, ino) ->
      let node = iget t ino in
      if node.i_kind = K_dir then fail Error.Isdir;
      if dir_lookup t to_dir to_name <> None then fail Error.Exist;
      dir_enter t to_dir ~name:to_name ~ino;
      node.i_nlink <- node.i_nlink + 1;
      iupdate t node

let unlink t dnode ~name =
  match dir_lookup t dnode name with
  | None -> fail Error.Noent
  | Some (_, ino) ->
      let node = iget t ino in
      if node.i_kind = K_dir then fail Error.Isdir;
      ignore (dir_remove t dnode ~name);
      node.i_nlink <- node.i_nlink - 1;
      if node.i_nlink <= 0 then ifree t node else iupdate t node

let remove_dir t dnode ~name =
  if name = "." || name = ".." then fail Error.Inval;
  match dir_lookup t dnode name with
  | None -> fail Error.Noent
  | Some (_, ino) ->
      let node = iget t ino in
      if node.i_kind <> K_dir then fail Error.Notdir;
      if not (dir_is_empty t node) then fail Error.Notempty;
      ignore (dir_remove t dnode ~name);
      dnode.i_nlink <- dnode.i_nlink - 1;
      iupdate t dnode;
      node.i_nlink <- 0;
      ifree t node

let rename t src_dir ~src_name dst_dir ~dst_name =
  check_name dst_name;
  match dir_lookup t src_dir src_name with
  | None -> fail Error.Noent
  | Some (_, ino) ->
      let node = iget t ino in
      (match dir_lookup t dst_dir dst_name with
      | Some (_, existing_ino) ->
          if existing_ino = ino then ()
          else begin
            let existing = iget t existing_ino in
            if existing.i_kind = K_dir then fail Error.Exist
            else unlink t dst_dir ~name:dst_name
          end
      | None -> ());
      if dir_lookup t dst_dir dst_name = None then dir_enter t dst_dir ~name:dst_name ~ino;
      ignore (dir_remove t src_dir ~name:src_name);
      if node.i_kind = K_dir && src_dir.ino <> dst_dir.ino then begin
        (* Fix "..". *)
        (match dir_lookup t node ".." with
        | Some (idx, _) -> dirent_write t node idx ~ino:dst_dir.ino ~name:".."
        | None -> ());
        src_dir.i_nlink <- src_dir.i_nlink - 1;
        dst_dir.i_nlink <- dst_dir.i_nlink + 1;
        iupdate t src_dir;
        iupdate t dst_dir
      end

(* ---- mkfs / mount ---- *)

let newfs ?max_bufs dev =
  let bytes = dev.Io_if.getsize () in
  let nblocks = bytes / bsize in
  if nblocks < 16 then fail Error.Nospc;
  let ninodes = max 64 (nblocks / 8) in
  let ibmap_blocks = (ninodes + (bsize * 8) - 1) / (bsize * 8) in
  let itab_blocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  (* Rough: one bit per remaining block. *)
  let bbmap_blocks = (nblocks + (bsize * 8) - 1) / (bsize * 8) in
  let ibmap_start = 1 in
  let bbmap_start = ibmap_start + ibmap_blocks in
  let itab_start = bbmap_start + bbmap_blocks in
  let data_start = itab_start + itab_blocks in
  if data_start >= nblocks then fail Error.Nospc;
  let sb =
    { nblocks; ninodes; ibmap_start; ibmap_blocks; bbmap_start; bbmap_blocks; itab_start;
      itab_blocks; data_start }
  in
  let bc = Buf.create ?max_bufs ~bsize dev in
  let t = { bc; sb; icache = Hashtbl.create 64; ncache = Hashtbl.create 16; allocated_blocks = 0 } in
  (* Zero the metadata area. *)
  for blk = ibmap_start to data_start - 1 do
    zero_block t blk
  done;
  sb_write t;
  (* Reserve inodes 0..2 (0 = nil, 1 = reserved, 2 = root). *)
  bitmap_set t ~start:sb.ibmap_start 0 true;
  bitmap_set t ~start:sb.ibmap_start 1 true;
  bitmap_set t ~start:sb.ibmap_start root_ino true;
  let root =
    { ino = root_ino; i_kind = K_dir; i_nlink = 2; i_size = 0;
      i_direct = Array.make ndirect 0; i_sind = 0; i_dind = 0 }
  in
  Hashtbl.replace t.icache root_ino root;
  iupdate t root;
  dir_enter t root ~name:"." ~ino:root_ino;
  dir_enter t root ~name:".." ~ino:root_ino;
  Buf.sync bc;
  t

let mount ?max_bufs dev =
  let bc = Buf.create ?max_bufs ~bsize dev in
  match sb_read bc with
  | None -> fail Error.Inval
  | Some sb ->
      let t = { bc; sb; icache = Hashtbl.create 64; ncache = Hashtbl.create 16; allocated_blocks = 0 } in
      (* Count allocated data blocks for statistics. *)
      let limit = sb.nblocks - sb.data_start in
      for i = 0 to limit - 1 do
        if bitmap_get t ~start:sb.bbmap_start i then
          t.allocated_blocks <- t.allocated_blocks + 1
      done;
      t

let sync t = Buf.sync t.bc
let root t = iget t root_ino
let free_blocks t = t.sb.nblocks - t.sb.data_start - t.allocated_blocks
