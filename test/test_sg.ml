(* The scatter-gather send path (Cost.config.sg_tx): iovec checksums,
   nonlinear sk_buffs, the glue's zero-copy crossing, the recognition-query
   cache, the NIC gather engine, and a ttcp under loss with the path on. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

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

(* ---- iovec checksum == linear checksum (qcheck) ---- *)

let cksum_frags_equiv =
  QCheck.Test.make ~count:200 ~name:"cksum_frags == cksum_bytes over any split"
    QCheck.(
      pair (string_of_size Gen.(1 -- 200)) (small_list (int_bound 199)))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
      let flat = Bytes.of_string s in
      let expect = Codec.cksum_bytes flat ~off:0 ~len:n in
      let got = Codec.cksum_frags (frags_of_cuts s cuts) in
      expect = got)

let test_cksum_frags_odd_boundaries () =
  (* Odd-length fragments force the byte-swap carry across the seam. *)
  let s = "\x01\x02\x03\x04\x05\x06\x07" in
  let flat = Bytes.of_string s in
  let expect = Codec.cksum_bytes flat ~off:0 ~len:7 in
  List.iter
    (fun cuts ->
      Alcotest.(check int)
        (Printf.sprintf "cuts at [%s]" (String.concat ";" (List.map string_of_int cuts)))
        expect
        (Codec.cksum_frags (frags_of_cuts s cuts)))
    [ [ 1 ]; [ 3 ]; [ 1; 2 ]; [ 1; 2; 3; 4; 5; 6 ]; [ 5 ]; [ 2; 5 ] ];
  (* Empty fragments contribute nothing, wherever they fall. *)
  Alcotest.(check int) "empty fragment list" (Codec.finish 0) (Codec.cksum_frags [])

let test_cksum_frags_charges_once () =
  Cost.reset_counters ();
  let frags = frags_of_cuts (String.make 100 'c') [ 33; 67 ] in
  ignore (Codec.cksum_frags frags);
  Alcotest.(check int) "checksummed bytes counted" 100
    Cost.counters.Cost.checksummed_bytes

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
  let cache = Linux_glue.fresh_recognition () in
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
  let cache = Linux_glue.fresh_recognition () in
  let skb = Skbuff.alloc_skb 32 in
  ignore (Skbuff.skb_put skb 4);
  let skb', copied = Linux_glue.skb_of_bufio ~cache (Linux_glue.bufio_of_skb skb) in
  Alcotest.(check bool) "own skb unwrapped through cache" true (skb' == skb);
  Alcotest.(check bool) "no copy" false copied;
  Alcotest.(check bool) "positive verdict cached" true (!cache = Some true)

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
  Linux_glue.reset ();
  let w = World.create () in
  let m = Machine.create ~name:"sg-ide" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  Bus.clear m;
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
      let byte_exact, _, _, tb =
        Test_netem.run_transfer ~netem:em ~sender:Test_netem.Oskit ~blocks:32
          ~blocksize:4096 ()
      in
      Alcotest.(check bool) "sg + 3% loss: byte-exact" true byte_exact;
      Alcotest.(check bool) "losses were real (frames dropped in transit)" true
        (Wire.frames_dropped tb.Clientos.wire > 0);
      Alcotest.(check int) "sg path carried the data" 0 Cost.counters.Cost.linearized_xmits;
      Alcotest.(check bool) "sg xmits happened" true (Cost.counters.Cost.sg_xmits > 0))

let suite =
  [ QCheck_alcotest.to_alcotest cksum_frags_equiv;
    Alcotest.test_case "iovec checksum: odd fragment boundaries" `Quick
      test_cksum_frags_odd_boundaries;
    Alcotest.test_case "iovec checksum: single charge" `Quick test_cksum_frags_charges_once;
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
