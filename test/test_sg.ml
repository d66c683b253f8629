(* The scatter-gather send path (Cost.config.sg_tx): iovec checksums,
   nonlinear sk_buffs, the glue's zero-copy crossing, the recognition-query
   cache, the NIC gather engine, and a ttcp under loss with the path on. *)

let ok = Endpoint.ok

let with_sg_tx v f = Cost.with_config { Cost.config with Cost.sg_tx = v } f

(* Cut [s] into fragments at [cuts] (sorted positions), each fragment
   carried in its own backing array at a nonzero offset so stale-offset
   bugs surface. *)
let frags_of_cuts s cuts =
  let n = String.length s in
  let edges = 0 :: List.sort compare cuts @ [ n ] in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.filter_map
    (fun (a, b) ->
      if b <= a then None
      else begin
        let pad = 3 + (a mod 5) in
        let backing = Bytes.make (pad + (b - a) + 2) '\xee' in
        Bytes.blit_string s a backing pad (b - a);
        Some (backing, pad, b - a)
      end)
    (pairs edges)

(* An mbuf chain over [frags] ([Bytes.empty] for none), each loaned in
   place. *)
let chain_of_frags frags =
  let wrap (backing, off, len) = Mbuf.m_ext_wrap backing ~off ~len in
  match frags with
  | [] -> wrap (Bytes.empty, 0, 0)
  | first :: rest ->
      let head = wrap first in
      List.iter (fun f -> Mbuf.m_cat head (wrap f)) rest;
      head

(* ---- the Internet checksum against an RFC 1071 reference ---- *)

(* RFC 1071 by the book, one byte at a time: a byte is the high half of
   its 16-bit word at an even position and the low half at an odd one,
   [odd] shifting every position by one.  The one's-complement sum of a
   nonzero total is its residue mod 0xffff, written 0xffff for 0; only an
   all-zero total sums to 0. *)
let rfc1071 ?(init = 0) ?(odd = false) b ~off ~len =
  let s = ref init in
  for k = 0 to len - 1 do
    let v = Char.code (Bytes.get b (off + k)) in
    s := !s + if (k + Bool.to_int odd) land 1 = 0 then v lsl 8 else v
  done;
  let ones = if !s = 0 then 0 else 1 + ((!s - 1) mod 0xffff) in
  0xffff - ones

type fill = Random | Zeros | Ones

let fill_gen = QCheck.Gen.(frequency [ 6, return Random; 1, return Zeros; 1, return Ones ])
let fill_name = function Random -> "random" | Zeros -> "0x00" | Ones -> "0xff"

let bytes_of_fill fill st n =
  match fill with
  | Random -> Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))
  | Zeros -> Bytes.make n '\x00'
  | Ones -> Bytes.make n '\xff'

(* 0, a pseudo-header-sized sum, or a large partial sum. *)
let init_gen =
  QCheck.Gen.(oneof [ return 0; int_bound 0x3ffff; map (fun x -> x land ((1 lsl 40) - 1)) int ])

let len_gen = QCheck.Gen.(frequency [ 20, int_bound 4096; 1, return 65535 ])

(* The range starts [align] bytes into word-aligned storage, with random
   bytes on both sides, so a load that strays outside it shows. *)
let cksum_bytes_vs_reference =
  QCheck.Test.make ~count:500 ~name:"cksum_bytes == RFC 1071 reference"
    (QCheck.make
       ~print:(fun ((fill, len, align, init, odd), _) ->
         Printf.sprintf "fill=%s len=%d align=%d init=%d odd=%b" (fill_name fill) len align
           init odd)
       QCheck.Gen.(
         pair
           (tup5 fill_gen len_gen (int_bound 7) init_gen bool)
           (int_bound 1_000_000)))
    (fun ((fill, len, align, init, odd), seed) ->
      let st = Random.State.make [| seed |] in
      let b = Bytes.cat (bytes_of_fill Random st align) (bytes_of_fill fill st len) in
      let b = Bytes.cat b (bytes_of_fill Random st (Random.State.int st 8)) in
      Codec.cksum_bytes ~init b ~off:align ~len = rfc1071 ~init b ~off:align ~len
      && Codec.finish (Codec.sum_bytes b align len init odd)
         = rfc1071 ~init ~odd b ~off:align ~len)

(* The same bytes cut into mbufs at arbitrary (often odd) boundaries, each
   piece at its own offset in its own storage, summed from a nonzero
   offset into the chain. *)
let cksum_chain_vs_reference =
  QCheck.Test.make ~count:300 ~name:"cksum_chain == RFC 1071 reference"
    (QCheck.make ~print:(fun ((fill, n, _, _), cuts, _) ->
         Printf.sprintf "fill=%s n=%d cuts=[%s]" (fill_name fill) n
           (String.concat ";" (List.map string_of_int cuts)))
       QCheck.Gen.(
         triple
           (quad fill_gen len_gen init_gen (int_bound 1_000_000))
           (list_size (int_bound 12) (int_bound 65535))
           (pair (int_bound 65535) (int_bound 65535))))
    (fun ((fill, n, init, seed), cuts, (o, l)) ->
      let st = Random.State.make [| seed |] in
      let flat = bytes_of_fill fill st n in
      let cuts = List.map (fun c -> c mod (n + 1)) cuts in
      let m = chain_of_frags (frags_of_cuts (Bytes.to_string flat) cuts) in
      let off = o mod (n + 1) in
      let len = l mod (n - off + 1) in
      In_cksum.cksum_chain ~init m ~off ~len = rfc1071 ~init flat ~off ~len)

(* ---- mbuf chain checksum == linear checksum ---- *)

let cksum_chain_equiv =
  QCheck.Test.make ~count:200 ~name:"cksum_chain == cksum_bytes over any split"
    QCheck.(
      pair (string_of_size Gen.(1 -- 200)) (small_list (int_bound 199)))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
      let flat = Bytes.of_string s in
      let expect = Codec.cksum_bytes flat ~off:0 ~len:n in
      let got = In_cksum.cksum_chain (chain_of_frags (frags_of_cuts s cuts)) ~off:0 ~len:n in
      expect = got)

let test_cksum_chain_odd_boundaries () =
  (* Odd-length mbufs force the byte-swap carry across the seam. *)
  let s = "\x01\x02\x03\x04\x05\x06\x07" in
  let flat = Bytes.of_string s in
  let expect = Codec.cksum_bytes flat ~off:0 ~len:7 in
  List.iter
    (fun cuts ->
      Alcotest.(check int)
        (Printf.sprintf "cuts at [%s]" (String.concat ";" (List.map string_of_int cuts)))
        expect
        (In_cksum.cksum_chain (chain_of_frags (frags_of_cuts s cuts)) ~off:0 ~len:7))
    [ [ 1 ]; [ 3 ]; [ 1; 2 ]; [ 1; 2; 3; 4; 5; 6 ]; [ 5 ]; [ 2; 5 ] ];
  (* Empty mbufs contribute nothing, wherever they fall. *)
  let m = chain_of_frags ((Bytes.empty, 0, 0) :: frags_of_cuts s [ 3 ]) in
  Mbuf.m_cat m (chain_of_frags []);
  Mbuf.m_cat m (chain_of_frags (frags_of_cuts s [ 1 ]));
  Alcotest.(check int) "empty mbufs at the seams" expect
    (In_cksum.cksum_chain m ~off:0 ~len:7);
  Alcotest.(check int) "empty range" (Codec.finish 0) (In_cksum.cksum_chain m ~off:3 ~len:0)

(* Run [f] on a fresh machine at 1 GHz + 1 Hz, where a charge of c cycles
   (0 < c <= 10^9) takes c - 1 ns: its busy time falls short of the
   checksum cycles by the number of charges.  Returns that number, the
   counted checksum bytes and [f]'s outcome. *)
let charged f =
  Cost.with_config { Cost.config with Cost.cpu_hz = 1_000_000_001 } (fun () ->
      let pc = Machine.create (World.create ()) in
      Cost.reset_counters ();
      let r = Machine.run_in pc (fun () -> try Ok (f ()) with e -> Error e) in
      let bytes = Cost.counters.Cost.checksummed_bytes in
      let cycles = bytes * Cost.config.Cost.checksum_cycles_per_byte in
      (cycles - Machine.cpu_busy_ns pc ~cpu:0, bytes, r))

let test_cksum_chain_charges_once () =
  let frags = frags_of_cuts (String.make 100 'c') [ 33; 67 ] in
  let m = chain_of_frags frags in
  let charges, bytes, _ = charged (fun () -> In_cksum.cksum_chain m ~off:0 ~len:100) in
  Alcotest.(check (pair int int)) "whole chain: one charge, 100 bytes" (1, 100) (charges, bytes);
  let charges, bytes, _ = charged (fun () -> In_cksum.cksum_chain m ~off:5 ~len:90) in
  Alcotest.(check (pair int int)) "from an offset: one charge, len bytes" (1, 90) (charges, bytes);
  let charges, bytes, _ =
    charged (fun () -> Codec.cksum_bytes (Bytes.make 64 'c') ~off:3 ~len:61)
  in
  Alcotest.(check (pair int int)) "flat: one charge, len bytes" (1, 61) (charges, bytes)

let test_cksum_range_errors () =
  let raises what f =
    let charges, bytes, r = charged f in
    (match r with
    | Error (Invalid_argument _) -> ()
    | Error e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    | Ok v -> Alcotest.failf "%s: returned %#x" what v);
    Alcotest.(check (pair int int)) (what ^ ": nothing charged") (0, 0) (charges, bytes)
  in
  let b = Bytes.make 16 'x' in
  raises "bytes: negative offset" (fun () -> Codec.cksum_bytes b ~off:(-1) ~len:4);
  raises "bytes: negative length" (fun () -> Codec.cksum_bytes b ~off:0 ~len:(-1));
  raises "bytes: one past the end" (fun () -> Codec.cksum_bytes b ~off:9 ~len:8);
  raises "bytes: offset past the end" (fun () -> Codec.cksum_bytes b ~off:17 ~len:0);
  let m = chain_of_frags (frags_of_cuts (String.make 10 'y') [ 3; 7 ]) in
  raises "chain: one byte short" (fun () -> In_cksum.cksum_chain m ~off:0 ~len:11);
  raises "chain: offset past the end" (fun () -> In_cksum.cksum_chain m ~off:10 ~len:1);
  raises "chain: short from an offset" (fun () -> In_cksum.cksum_chain m ~off:4 ~len:7);
  raises "chain: negative offset" (fun () -> In_cksum.cksum_chain m ~off:(-1) ~len:2)

(* ---- the checksum memo of a sendfile block ---- *)

(* [len] bytes of a loaned block from [off], checksummed as TCP sums a
   sendfile segment: one mbuf over the block carrying its memo, behind a
   one-byte mbuf when [odd] so the block's bytes start at an odd stream
   offset.  Returns the checksum and the bytes charged. *)
let memo_cksum ~init (b : Buf.buf) ~odd ~off ~len =
  let m = Mbuf.m_ext_wrap_free b.Buf.b_data ~off ~len ~sums:b.Buf.b_sums ~on_free:ignore in
  let m =
    if odd then begin
      let h = Mbuf.m_ext_wrap (Bytes.make 1 '\x5a') ~off:0 ~len:1 in
      Mbuf.m_cat h m;
      h
    end
    else m
  in
  let _, bytes, r =
    charged (fun () -> In_cksum.cksum_chain ~init m ~off:0 ~len:(len + Bool.to_int odd))
  in
  match r with Ok sum -> (sum, bytes) | Error e -> raise e

(* For any block contents, initial sum and parity: a warm-up range summed
   through a cold memo, then a second range twice (partly warm, then fully
   warm), then the second range again after a write through an ordinary
   bread.  Every pass must equal the flat RFC 1071 sum of the same bytes
   and charge exactly the edges plus the whole chunks it found cold; the
   write resets every chunk. *)
let memo_vs_reference =
  let chunk = Io_if.cksum_chunk and bsize = 4096 in
  QCheck.Test.make ~count:300 ~name:"checksum memo == RFC 1071; charges edges + cold chunks"
    (QCheck.make
       ~print:(fun ((fill, init, seed, odd), ((o1, l1), (o2, l2))) ->
         Printf.sprintf "fill=%s init=%d seed=%d odd=%b warm-up=(%d,%d) range=(%d,%d)"
           (fill_name fill) init seed odd o1 l1 o2 l2)
       QCheck.Gen.(
         pair
           (quad fill_gen init_gen (int_bound 1_000_000) bool)
           (pair (pair (int_bound bsize) (int_bound bsize)) (pair (int_bound bsize) (int_bound bsize)))))
    (fun ((fill, init, seed, odd), ((o1, l1), (o2, l2))) ->
      let st = Random.State.make [| seed |] in
      let bc = Buf.create ~bsize (Mem_blkio.make ~bytes:(16 * bsize) ()) in
      let w = Buf.getblk_nofill bc 0 in
      Bytes.blit (bytes_of_fill fill st bsize) 0 w.Buf.b_data 0 bsize;
      Buf.brelse bc w;
      let b = Buf.bread_loan bc 0 ~size:bsize in
      (* The model: which chunks the memo holds. *)
      let warm = Array.make (bsize / chunk) false in
      let pass (off, len) =
        let first = (off + chunk - 1) / chunk and last = (off + len) / chunk in
        let cold = ref 0 in
        for c = first to last - 1 do
          if not warm.(c) then incr cold;
          warm.(c) <- true
        done;
        let edges = len - (chunk * max 0 (last - first)) in
        let flat =
          Bytes.cat (if odd then Bytes.make 1 '\x5a' else Bytes.empty) (Bytes.sub b.Buf.b_data off len)
        in
        let sum, read = memo_cksum ~init b ~odd ~off ~len in
        sum = rfc1071 ~init flat ~off:0 ~len:(Bytes.length flat)
        && read = Bool.to_int odd + edges + (chunk * !cold)
      in
      let range o l =
        let off = o mod (bsize + 1) in
        (off, l mod (bsize - off + 1))
      in
      let warm_up = range o1 l1 and ((off, len) as r) = range o2 l2 in
      let cold_ok = pass warm_up in
      let partly_ok = pass r in
      let fully_ok = pass r in
      let x = Buf.bread bc 0 in
      let at = if len > 0 then off + (seed mod len) else seed mod bsize in
      Bytes.set x.Buf.b_data at (Char.chr (Char.code (Bytes.get x.Buf.b_data at) lxor 0x5a));
      Buf.bdwrite x;
      Buf.brelse bc x;
      Array.fill warm 0 (Array.length warm) false;
      let rewritten_ok = pass r in
      Buf.brelse bc b;
      cold_ok && partly_ok && fully_ok && rewritten_ok)

(* ---- the memo's lifetime: the device block's, not the buffer's ---- *)

(* A file system on a RAM disk, through its COM faces: a six-block file
   [memo], and a second file [pressure] of [npressure] blocks whose
   reading evicts every unpinned block of the 64-block buffer cache.
   Returns the memo file's bytes as written, the buffer cache, the file
   and the eviction. *)
let npressure = 80

let memo_fs ?(dev = Mem_blkio.make ~bytes:(1024 * 4096) ()) () =
  let bytes = Bytes.init (6 * 4096) (fun i -> Char.chr (((i * 31) + (i / 4096)) land 0xff)) in
  let fs, root = ok (Fs_glue.newfs_fs dev) in
  let create name content =
    let f = ok (root.Io_if.d_create name) in
    let n = Bytes.length content in
    Alcotest.(check int) (name ^ " written") n
      (ok (f.Io_if.f_write ~buf:content ~pos:0 ~offset:0 ~amount:n));
    f
  in
  let f = create "memo" bytes in
  let p = create "pressure" (Bytes.make (npressure * 4096) 'p') in
  let evict () =
    let buf = Bytes.create (npressure * 4096) in
    ignore (ok (p.Io_if.f_read ~buf ~pos:0 ~offset:0 ~amount:(npressure * 4096)))
  in
  (bytes, fs.Ffs.bc, f, evict)

(* Map [off, off+len) of [f] and checksum it as TCP sums a sendfile
   segment: one mbuf per fragment, each carrying its block's memo.
   Returns whether the sum equals the flat RFC 1071 sum of [content] (the
   file's bytes, as written) there, and the bytes charged. *)
let frags_cksum frags content ~off ~len =
  let m =
    match
      List.map
        (fun fr ->
          Mbuf.m_ext_wrap_free fr.Io_if.fr_data ~off:fr.Io_if.fr_off ~len:fr.Io_if.fr_len
            ~sums:fr.Io_if.fr_sums ~on_free:ignore)
        frags
    with
    | [] -> Alcotest.fail "empty mapping"
    | head :: rest ->
        List.iter (Mbuf.m_cat head) rest;
        head
  in
  let _, bytes, r = charged (fun () -> In_cksum.cksum_chain m ~off:0 ~len) in
  match r with
  | Ok sum -> (sum = rfc1071 content ~off ~len, bytes)
  | Error e -> raise e

let loan_cksum (f : Io_if.file) content ~off ~len =
  let fm = ok (Com.query f.Io_if.f_unknown Io_if.filemap_iid) in
  let frags = ok (fm.Io_if.fm_map_blocks ~offset:off ~amount:len) in
  let r = frags_cksum frags content ~off ~len in
  Io_if.frags_release frags;
  r

(* The range every memo test sums: four blocks' worth from byte 100, so
   the first and last fragments have partial chunks at their outer edges
   (28 bytes before the first whole chunk, 36 after the last). *)
let memo_off = 100
let memo_len = 4 * 4096
let memo_edges = 28 + 36

let check_pass what (sum_ok, charged) want =
  Alcotest.(check bool) (what ^ ": sum == RFC 1071") true sum_ok;
  Alcotest.(check int) (what ^ ": bytes charged") want charged

(* Loan and sum, evict the blocks under pressure, loan again: the blocks
   were faulted back in from the device, and only the edges are summed. *)
let memo_survives_eviction () =
  let content, bc, f, evict = memo_fs () in
  check_pass "cold" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_len;
  check_pass "warm" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_edges;
  evict ();
  let misses = (Buf.cache_stats bc).Buf.cs_misses in
  check_pass "after eviction" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_edges;
  Alcotest.(check int) "all five blocks were faulted back in" 5
    ((Buf.cache_stats bc).Buf.cs_misses - misses);
  Alcotest.(check int) "one memo per loaned block" 5 (Buf.cache_stats bc).Buf.cs_memos

(* A write that faults an evicted block back in resets the block's memo:
   a partial write into block 1 (through bread) and a whole-block write
   into block 2 (through getblk_nofill), each after eviction.  The next
   loan sums both blocks whole, and the new bytes' sum is right. *)
let memo_reset_by_write_after_eviction () =
  let content, bc, f, evict = memo_fs () in
  check_pass "cold" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_len;
  let write ~at b =
    let n = Bytes.length b in
    Alcotest.(check int) "rewritten" n (ok (f.Io_if.f_write ~buf:b ~pos:0 ~offset:at ~amount:n));
    Bytes.blit b 0 content at n
  in
  evict ();
  let misses = (Buf.cache_stats bc).Buf.cs_misses in
  write ~at:(4096 + 1000) (Bytes.make 300 '\x5a');
  evict ();
  write ~at:(2 * 4096) (Bytes.make 4096 '\xa5');
  Alcotest.(check bool) "both writes faulted their block in" true
    ((Buf.cache_stats bc).Buf.cs_misses - misses >= 2);
  check_pass "after the writes" (loan_cksum f content ~off:memo_off ~len:memo_len)
    (memo_edges + (2 * 4096))

(* Truncate the file to one block and regrow it with new bytes: the freed
   blocks' memos are dropped, the regrown file reuses those blocks, and
   they are summed again whole.  On a RAM disk read by copying, so a
   reused block is the same buffer. *)
let memo_dropped_when_block_freed () =
  let content, bc, f, evict =
    memo_fs ~dev:(Test_fs.copy_dev (Mem_blkio.make ~bytes:(1024 * 4096) ())) ()
  in
  let fm = ok (Com.query f.Io_if.f_unknown Io_if.filemap_iid) in
  let blocks () =
    let frags = ok (fm.Io_if.fm_map_blocks ~offset:0 ~amount:(6 * 4096)) in
    Io_if.frags_release frags;
    List.map (fun fr -> fr.Io_if.fr_data) frags
  in
  check_pass "cold" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_len;
  let before = blocks () in
  let memos = (Buf.cache_stats bc).Buf.cs_memos in
  ok (f.Io_if.f_setsize 4096);
  Alcotest.(check int) "the five freed blocks' memos dropped" (memos - 5)
    (Buf.cache_stats bc).Buf.cs_memos;
  let regrown = Bytes.init (5 * 4096) (fun i -> Char.chr (((i * 7) + 3) land 0xff)) in
  Alcotest.(check int) "regrown" (5 * 4096)
    (ok (f.Io_if.f_write ~buf:regrown ~pos:0 ~offset:4096 ~amount:(5 * 4096)));
  Bytes.blit regrown 0 content 4096 (5 * 4096);
  Alcotest.(check bool) "the regrown file reuses the freed blocks" true
    (List.for_all2 ( == ) before (blocks ()));
  (* Blocks 1-3 whole, and the one whole chunk of block 4's fragment. *)
  check_pass "regrown" (loan_cksum f content ~off:memo_off ~len:memo_len)
    (memo_edges + (3 * 4096) + 64);
  evict ();
  check_pass "regrown, after eviction" (loan_cksum f content ~off:memo_off ~len:memo_len)
    memo_edges

(* Copy-on-write under a loan.  On a RAM disk that maps its blocks, a
   loan of blocks faulted in cold is the device's pages themselves.
   Rewriting block 1 in part (through [bread]) and block 2 whole (through
   [getblk_nofill]), then syncing, gives the writers and the device new
   bytes: the loan keeps the old bytes and the old memo, summing to the old
   bytes' RFC 1071 sum from its edges alone, before and after a new loan
   has summed the new bytes under new memos.  Mapped again after eviction,
   the blocks read the new bytes. *)
let memo_loan_is_snapshot () =
  let content, bc, f, evict = memo_fs () in
  let old = Bytes.copy content in
  let maps () = (Buf.cache_stats bc).Buf.cs_maps in
  let frags_bytes frags =
    Bytes.concat Bytes.empty
      (List.map (fun fr -> Bytes.sub fr.Io_if.fr_data fr.Io_if.fr_off fr.Io_if.fr_len) frags)
  in
  let map () =
    let fm = ok (Com.query f.Io_if.f_unknown Io_if.filemap_iid) in
    ok (fm.Io_if.fm_map_blocks ~offset:memo_off ~amount:memo_len)
  in
  evict ();
  let maps0 = maps () in
  let loan = map () in
  Alcotest.(check int) "the loan's five blocks mapped" 5 (maps () - maps0);
  check_pass "loan, cold" (frags_cksum loan old ~off:memo_off ~len:memo_len) memo_len;
  let write ~at b =
    let n = Bytes.length b in
    Alcotest.(check int) "rewritten" n (ok (f.Io_if.f_write ~buf:b ~pos:0 ~offset:at ~amount:n));
    Bytes.blit b 0 content at n
  in
  write ~at:(4096 + 1000) (Bytes.make 300 '\x5a');
  write ~at:(2 * 4096) (Bytes.make 4096 '\xa5');
  ok (f.Io_if.f_sync ());
  let old_bytes = Bytes.sub old memo_off memo_len in
  Alcotest.(check bool) "the loan keeps the old bytes" true (Bytes.equal old_bytes (frags_bytes loan));
  check_pass "loan, after the writes" (frags_cksum loan old ~off:memo_off ~len:memo_len) memo_edges;
  check_pass "new loan" (loan_cksum f content ~off:memo_off ~len:memo_len) (memo_edges + (2 * 4096));
  check_pass "old loan, after the new one" (frags_cksum loan old ~off:memo_off ~len:memo_len)
    memo_edges;
  Io_if.frags_release loan;
  evict ();
  let maps0 = maps () in
  let again = map () in
  Alcotest.(check int) "mapped again" 5 (maps () - maps0);
  Alcotest.(check bool) "a new mapping reads the new bytes" true
    (Bytes.equal (Bytes.sub content memo_off memo_len) (frags_bytes again));
  Io_if.frags_release again

(* A file read between two loans reads the blocks without changing them,
   so it keeps their memos: the second loan sums only the edges. *)
let memo_kept_by_read () =
  let content, _, f, _ = memo_fs () in
  check_pass "cold" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_len;
  let buf = Bytes.create memo_len in
  Alcotest.(check int) "read" memo_len
    (ok (f.Io_if.f_read ~buf ~pos:0 ~offset:memo_off ~amount:memo_len));
  Alcotest.(check bool) "the read returns the bytes as written" true
    (Bytes.equal buf (Bytes.sub content memo_off memo_len));
  check_pass "after the read" (loan_cksum f content ~off:memo_off ~len:memo_len) memo_edges

(* ---- nonlinear sk_buffs ---- *)

let test_skb_of_frags_linearize_roundtrip () =
  let s = "one-fragment+two-fragment+three" in
  let frags = frags_of_cuts s [ 4; 13; 26 ] in
  let skb = Skbuff.skb_of_frags frags in
  Alcotest.(check bool) "nonlinear" true (Skbuff.skb_is_nonlinear skb);
  Alcotest.(check int) "len is the fragment total" (String.length s) skb.Skbuff.len;
  Alcotest.(check int) "no tailroom on a nonlinear skb" 0 (Skbuff.skb_tailroom skb);
  let lin = Skbuff.skb_linearize skb in
  Alcotest.(check bool) "linearized" false (Skbuff.skb_is_nonlinear lin);
  Alcotest.(check string) "bytes preserved" s
    (Bytes.sub_string lin.Skbuff.skb_data lin.Skbuff.head lin.Skbuff.len);
  (* A linear skb linearizes to itself. *)
  Alcotest.(check bool) "linear identity" true (Skbuff.skb_linearize lin == lin)

let test_nonlinear_skb_bufio_read () =
  let s = "abcdefghij" in
  let skb = Skbuff.skb_of_frags (frags_of_cuts s [ 3; 7 ]) in
  let io = Linux_glue.bufio_of_skb skb in
  Alcotest.(check bool) "nonlinear skb does not map flat" true (io.Io_if.buf_map () = None);
  (match io.Io_if.buf_map_v () with
  | Some frags ->
      Alcotest.(check int) "maps as an iovec" (String.length s)
        (List.fold_left (fun a (_, _, l) -> a + l) 0 frags)
  | None -> Alcotest.fail "buf_map_v failed on a nonlinear skb");
  let buf = Bytes.make 6 '.' in
  (match io.Io_if.buf_read ~buf ~pos:0 ~offset:2 ~amount:6 with
  | Ok 6 -> ()
  | _ -> Alcotest.fail "buf_read failed");
  Alcotest.(check string) "read gathers across fragments" "cdefgh" (Bytes.to_string buf);
  Alcotest.(check bool) "write-through refused (loaned storage)" true
    (io.Io_if.buf_write ~buf ~pos:0 ~offset:0 ~amount:1 = Error Error.Notsup)

(* ---- the glue's SG arm ---- *)

let chain_of_strings parts =
  match parts with
  | [] -> invalid_arg "empty"
  | first :: rest ->
      let head = Mbuf.m_ext_wrap (Bytes.of_string first) ~off:0 ~len:(String.length first) in
      List.iter
        (fun s ->
          Mbuf.m_cat head (Mbuf.m_ext_wrap (Bytes.of_string s) ~off:0 ~len:(String.length s)))
        rest;
      head

let test_sg_arm_no_copy () =
  with_sg_tx true (fun () ->
      Cost.reset_counters ();
      let m = chain_of_strings [ "head-"; "cluster-one-"; "cluster-two" ] in
      let io = Freebsd_glue.bufio_of_mbuf m in
      let skb, copied = Linux_glue.skb_of_bufio io in
      Alcotest.(check bool) "no copy" false copied;
      Alcotest.(check bool) "crossed nonlinear" true (Skbuff.skb_is_nonlinear skb);
      Alcotest.(check int) "zero copies charged" 0 Cost.counters.Cost.copies;
      Alcotest.(check int) "nothing linearized" 0 Cost.counters.Cost.linearized_xmits;
      (* The fragments alias the chain's storage: zero-copy, provably. *)
      (match Skbuff.skb_fragments skb with
      | (b0, _, _) :: _ -> Alcotest.(check bool) "aliases mbuf data" true (b0 == m.Mbuf.m_data)
      | [] -> Alcotest.fail "no fragments"));
  (* Default config: the same chain is flattened (the Table 1 copy). *)
  with_sg_tx false (fun () ->
      Cost.reset_counters ();
      let m = chain_of_strings [ "head-"; "cluster-one-"; "cluster-two" ] in
      let _, copied = Linux_glue.skb_of_bufio (Freebsd_glue.bufio_of_mbuf m) in
      Alcotest.(check bool) "copied" true copied;
      Alcotest.(check int) "linearize counted" 1 Cost.counters.Cost.linearized_xmits;
      Alcotest.(check bool) "copy charged" true (Cost.counters.Cost.copies > 0))

let test_recognition_cache () =
  (* Foreign producer: one query on the first frame, none after. *)
  let cache = Recognition.create () in
  let m () = chain_of_strings [ "aa"; "bb" ] in
  Cost.reset_counters ();
  ignore (Linux_glue.skb_of_bufio ~cache (Freebsd_glue.bufio_of_mbuf (m ())));
  Alcotest.(check int) "first frame queries" 1 Cost.counters.Cost.com_calls;
  Alcotest.(check bool) "verdict cached" true (!cache = Some false);
  ignore (Linux_glue.skb_of_bufio ~cache (Freebsd_glue.bufio_of_mbuf (m ())));
  ignore (Linux_glue.skb_of_bufio ~cache (Freebsd_glue.bufio_of_mbuf (m ())));
  Alcotest.(check int) "steady state does not query" 1 Cost.counters.Cost.com_calls;
  (* Native producer: the query is what unwraps, so it stays per-frame —
     and keeps working. *)
  let cache = Recognition.create () in
  let skb = Skbuff.alloc_skb 32 in
  ignore (Skbuff.skb_put skb 4);
  let skb', copied = Linux_glue.skb_of_bufio ~cache (Linux_glue.bufio_of_skb skb) in
  Alcotest.(check bool) "own skb unwrapped through cache" true (skb' == skb);
  Alcotest.(check bool) "no copy" false copied;
  Alcotest.(check bool) "positive verdict cached" true (!cache = Some true);
  (* The FreeBSD glue's receive direction asks the same way, for its mbuf:
     a foreign sk_buff queries once, then maps without asking. *)
  let cache = Recognition.create () in
  let skb () =
    let skb = Skbuff.alloc_skb 32 in
    ignore (Skbuff.skb_put skb 4);
    Linux_glue.bufio_of_skb skb
  in
  Cost.reset_counters ();
  let _, copied = Freebsd_glue.mbuf_of_bufio ~cache (skb ()) in
  Alcotest.(check int) "mbuf: first frame queries" 1 Cost.counters.Cost.com_calls;
  Alcotest.(check bool) "mbuf: foreign verdict cached" true (!cache = Some false);
  Alcotest.(check bool) "mbuf: contiguous foreign frame loaned, no copy" false copied;
  ignore (Freebsd_glue.mbuf_of_bufio ~cache (skb ()));
  ignore (Freebsd_glue.mbuf_of_bufio ~cache (skb ()));
  Alcotest.(check int) "mbuf: steady state does not query" 1 Cost.counters.Cost.com_calls;
  (* ... and its own mbuf comes back unwrapped, the verdict positive. *)
  let cache = Recognition.create () in
  let m = Mbuf.m_gethdr () in
  let m', copied = Freebsd_glue.mbuf_of_bufio ~cache (Freebsd_glue.bufio_of_mbuf m) in
  Alcotest.(check bool) "own mbuf unwrapped through cache" true (m' == m);
  Alcotest.(check bool) "mbuf: no copy" false copied;
  Alcotest.(check bool) "mbuf: positive verdict cached" true (!cache = Some true);
  Alcotest.(check int) "mbuf: the native frame queried" 2 Cost.counters.Cost.com_calls

let test_nic_gather_equals_linear () =
  (* transmit_v puts the same frame on the wire as a flattened transmit. *)
  let world = World.create () in
  let machine = Machine.create world in
  let wire = Wire.create world in
  let seen = ref [] in
  ignore (Wire.attach wire ~rx:(fun f -> seen := Bytes.to_string f :: !seen));
  let nic = Nic.create ~machine ~wire ~mac:"\x02\x00\x00\x00\x00\x01" ~irq:5 () in
  let s = String.make 6 '\xff' ^ "payload-payload-payload-payload-payload-payload-xyz" in
  Nic.transmit nic (Bytes.of_string s);
  Nic.transmit_v nic (frags_of_cuts s [ 6; 20; 21; 40 ]);
  World.run world;
  match !seen with
  | [ b; a ] -> Alcotest.(check string) "gathered frame == linear frame" a b
  | l -> Alcotest.failf "expected 2 frames, saw %d" (List.length l)

(* ---- the satellite fix: sector-aligned blkio writes go direct ---- *)

let test_blkio_aligned_write_no_copy () =
  Fdev.clear_drivers ();
  let w = World.create () in
  let m = Machine.create ~name:"sg-ide" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  let disk = Disk.create ~machine:m ~sectors:4096 ~irq:14 () in
  Bus.register_hw m (Bus.Hw_disk { model = "QUANTUM-LPS540"; disk });
  Linux_glue.init_ide ();
  let osenv = Osenv.create m in
  ignore (Fdev.probe osenv);
  match Fdev.lookup osenv Io_if.blkio_iid with
  | [ bio ] ->
      let finished = ref false in
      Thread.spawn sched ~name:"aligned-writer" (fun () ->
          let ssize = bio.Io_if.getblocksize () in
          let span = 2 * ssize in
          (* The span sits at a nonzero position in the caller's buffer, so
             a dropped [pos] or [buf_pos] would corrupt the write. *)
          let buf = Bytes.create (3 * ssize) in
          for i = 0 to span - 1 do
            Bytes.set buf (ssize + i) (Char.chr ((i * 7) land 0xff))
          done;
          Cost.reset_counters ();
          let n =
            ok (bio.Io_if.bio_write ~buf ~pos:ssize ~offset:(4 * ssize) ~amount:span)
          in
          Alcotest.(check int) "wrote the span" span n;
          Alcotest.(check int) "aligned write: no CPU copy, no bounce buffer" 0
            Cost.counters.Cost.copies;
          let back = Bytes.create span in
          ignore (ok (bio.Io_if.bio_read ~buf:back ~pos:0 ~offset:(4 * ssize) ~amount:span));
          Alcotest.(check string) "round-trip through the platters"
            (Bytes.sub_string buf ssize span) (Bytes.to_string back);
          (* Unaligned writes still read-modify-write correctly. *)
          let msg = Bytes.of_string "unaligned-span" in
          ignore
            (ok
               (bio.Io_if.bio_write ~buf:msg ~pos:0 ~offset:((4 * ssize) + 7)
                  ~amount:(Bytes.length msg)));
          let back2 = Bytes.create (Bytes.length msg) in
          ignore
            (ok
               (bio.Io_if.bio_read ~buf:back2 ~pos:0 ~offset:((4 * ssize) + 7)
                  ~amount:(Bytes.length msg)));
          Alcotest.(check string) "unaligned rmw preserved" "unaligned-span"
            (Bytes.to_string back2);
          let head = Bytes.create 7 in
          ignore (ok (bio.Io_if.bio_read ~buf:head ~pos:0 ~offset:(4 * ssize) ~amount:7));
          Alcotest.(check string) "bytes before the unaligned span survived"
            (Bytes.sub_string buf ssize 7) (Bytes.to_string head);
          finished := true);
      Machine.kick m;
      World.run w ~until:(fun () -> !finished);
      Alcotest.(check bool) "completed" true !finished;
      Fdev.clear_drivers ()
  | l -> Alcotest.failf "expected 1 blkio device, found %d" (List.length l)

(* ---- end to end: ttcp with sg on, under loss, byte-exact ---- *)

let test_sg_ttcp_byte_exact_under_loss () =
  with_sg_tx true (fun () ->
      let em = Netem.create ~seed:7 ~policy:{ Netem.default_policy with loss = 0.03 } () in
      let r = Netbench.stream ~netem:em { Workload.table1 with bytes = 32 * 4096 } in
      Alcotest.(check bool) "sg + 3% loss: byte-exact" true r.byte_exact;
      Alcotest.(check bool) "losses were real (frames dropped in transit)" true
        (r.wire_dropped > 0);
      Alcotest.(check int) "sg path carried the data" 0 Cost.counters.Cost.linearized_xmits;
      Alcotest.(check bool) "sg xmits happened" true (Cost.counters.Cost.sg_xmits > 0))

let suite =
  [ QCheck_alcotest.to_alcotest cksum_chain_equiv;
    Alcotest.test_case "iovec checksum: odd fragment boundaries" `Quick
      test_cksum_chain_odd_boundaries;
    Alcotest.test_case "iovec checksum: single charge" `Quick test_cksum_chain_charges_once;
    QCheck_alcotest.to_alcotest cksum_bytes_vs_reference;
    QCheck_alcotest.to_alcotest cksum_chain_vs_reference;
    QCheck_alcotest.to_alcotest memo_vs_reference;
    Alcotest.test_case "checksum memo: survives eviction, only edges summed again" `Quick
      memo_survives_eviction;
    Alcotest.test_case "checksum memo: a write faulting an evicted block in resets it" `Quick
      memo_reset_by_write_after_eviction;
    Alcotest.test_case "checksum memo: dropped with a freed block, reused block summed again"
      `Quick memo_dropped_when_block_freed;
    Alcotest.test_case "checksum memo: kept by a file read" `Quick memo_kept_by_read;
    Alcotest.test_case "checksum memo: a loan of mapped blocks is a snapshot" `Quick
      memo_loan_is_snapshot;
    Alcotest.test_case "checksum: out-of-range calls raise, charge nothing" `Quick
      test_cksum_range_errors;
    Alcotest.test_case "nonlinear skb: build + linearize round-trip" `Quick
      test_skb_of_frags_linearize_roundtrip;
    Alcotest.test_case "nonlinear skb: bufio read/map_v" `Quick test_nonlinear_skb_bufio_read;
    Alcotest.test_case "glue: sg arm crosses mbuf chain with no copy" `Quick
      test_sg_arm_no_copy;
    Alcotest.test_case "glue: recognition query cache" `Quick test_recognition_cache;
    Alcotest.test_case "nic: gather == linear on the wire" `Quick
      test_nic_gather_equals_linear;
    Alcotest.test_case "blkio: aligned write is direct, no copy" `Quick
      test_blkio_aligned_write_no_copy;
    Alcotest.test_case "ttcp --sg under 3% loss is byte-exact" `Quick
      test_sg_ttcp_byte_exact_under_loss ]
