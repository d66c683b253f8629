(* Unit tests for the network substrate pieces: mbufs, skbuffs, checksums,
   TCP sequence arithmetic, ARP, IP fragmentation, UDP, ICMP, and the
   buffer-translation glue. *)

let ip = Oskit.ip_of_string

(* ---- mbufs ---- *)

let chain_of_strings parts =
  match parts with
  | [] -> invalid_arg "empty"
  | first :: rest ->
      let head = Mbuf.m_ext_wrap (Bytes.of_string first) ~off:0 ~len:(String.length first) in
      List.iter
        (fun s -> Mbuf.m_cat head (Mbuf.m_ext_wrap (Bytes.of_string s) ~off:0 ~len:(String.length s)))
        rest;
      head

let test_mbuf_basics () =
  let m = chain_of_strings [ "hello "; "world"; "!" ] in
  Alcotest.(check int) "length" 12 (Mbuf.m_length m);
  Alcotest.(check int) "count" 3 (Mbuf.m_count m);
  Alcotest.(check string) "copydata spans mbufs" "lo wor"
    (Bytes.to_string (Mbuf.m_copydata m ~off:3 ~len:6))

let test_mbuf_adj () =
  let m = chain_of_strings [ "aaaa"; "bbbb"; "cccc" ] in
  Mbuf.m_adj m 6;
  Alcotest.(check string) "front trim crosses mbufs" "bbcccc"
    (Bytes.to_string (Mbuf.m_copydata m ~off:0 ~len:(Mbuf.m_length m)));
  Mbuf.m_adj m (-3);
  Alcotest.(check string) "back trim" "bbc"
    (Bytes.to_string (Mbuf.m_copydata m ~off:0 ~len:(Mbuf.m_length m)))

let test_mbuf_prepend_headroom () =
  let m = Mbuf.m_gethdr () in
  ignore (Mbuf.m_put m 10);
  let m' = Mbuf.m_prepend m 14 in
  Alcotest.(check bool) "used headroom, no new mbuf" true (m' == m);
  Alcotest.(check int) "length grew" 24 (Mbuf.m_length m');
  (* A cluster has no headroom: prepend must chain a new header mbuf. *)
  let c = Mbuf.m_getclust () in
  c.Mbuf.m_len <- 100;
  c.Mbuf.m_pkthdr_len <- 100;
  let c' = Mbuf.m_prepend c 14 in
  Alcotest.(check bool) "new head mbuf" true (c' != c);
  Alcotest.(check int) "chain of two" 2 (Mbuf.m_count c');
  Alcotest.(check int) "total" 114 (Mbuf.m_length c')

let test_mbuf_copym_shares_clusters () =
  let backing = Bytes.of_string (String.make 2000 'Q') in
  let m = Mbuf.m_ext_wrap backing ~off:0 ~len:2000 in
  let copy = Mbuf.m_copym m ~off:100 ~len:500 in
  (* Shared storage: no data copy — mutating the original shows through. *)
  Bytes.set backing 100 'Z';
  Alcotest.(check string) "shares the cluster" "Z"
    (Bytes.to_string (Mbuf.m_copydata copy ~off:0 ~len:1));
  Alcotest.(check int) "copym pkthdr" 500 copy.Mbuf.m_pkthdr_len

let test_mbuf_pullup () =
  let m = chain_of_strings [ "ab"; "cd"; "efgh" ] in
  let m' = Mbuf.m_pullup m 5 in
  Alcotest.(check bool) "first 5 bytes contiguous" true (m'.Mbuf.m_len >= 5);
  Alcotest.(check string) "contents preserved" "abcdefgh"
    (Bytes.to_string (Mbuf.m_copydata m' ~off:0 ~len:8))

let test_mbuf_append () =
  let m = Mbuf.m_gethdr () in
  Mbuf.m_append m ~src:(Bytes.of_string (String.make 5000 'x')) ~src_pos:0 ~len:5000;
  Alcotest.(check int) "append large" 5000 (Mbuf.m_length m);
  Alcotest.(check bool) "spilled into clusters" true (Mbuf.m_count m > 1)

(* ---- skbuffs ---- *)

let test_skbuff_ops () =
  let skb = Skbuff.alloc_skb 200 in
  Skbuff.skb_reserve skb 50;
  Alcotest.(check int) "headroom" 50 (Skbuff.skb_headroom skb);
  let off = Skbuff.skb_put skb 20 in
  Alcotest.(check int) "put at reserved offset" 50 off;
  let off2 = Skbuff.skb_push skb 14 in
  Alcotest.(check int) "push eats headroom" 36 off2;
  Alcotest.(check int) "len" 34 skb.Skbuff.len;
  ignore (Skbuff.skb_pull skb 14);
  Alcotest.(check int) "pull restores" 20 skb.Skbuff.len;
  Alcotest.check_raises "over-push panics" Skbuff.Skb_over_panic (fun () ->
      ignore (Skbuff.skb_push skb 1000))

(* ---- buffer translation glue ---- *)

let test_skb_bufio_roundtrip () =
  let skb = Skbuff.alloc_skb 100 in
  let off = Skbuff.skb_put skb 11 in
  Bytes.blit_string "linux-bytes" 0 skb.Skbuff.skb_data off 11;
  let io = Linux_glue.bufio_of_skb skb in
  (* The Linux glue recognises its own buffer: no copy. *)
  let skb', copied = Linux_glue.skb_of_bufio io in
  Alcotest.(check bool) "own skbuff unwrapped" true (skb' == skb);
  Alcotest.(check bool) "no copy" false copied

let test_mbuf_chain_forces_copy_in_linux_glue () =
  (* A 2-mbuf chain maps to no contiguous buffer: the Linux glue must
     copy — the Table 1 send-path effect. *)
  let m = chain_of_strings [ "part-one-"; "part-two" ] in
  let io = Freebsd_glue.bufio_of_mbuf m in
  Alcotest.(check bool) "chain does not map" true (io.Io_if.buf_map () = None);
  let skb, copied = Linux_glue.skb_of_bufio io in
  Alcotest.(check bool) "copied" true copied;
  Alcotest.(check string) "contents flattened" "part-one-part-two"
    (Bytes.sub_string skb.Skbuff.skb_data skb.Skbuff.head skb.Skbuff.len)

let test_single_mbuf_maps_no_copy () =
  let m = chain_of_strings [ "contiguous-payload" ] in
  let io = Freebsd_glue.bufio_of_mbuf m in
  Alcotest.(check bool) "single mbuf maps" true (io.Io_if.buf_map () <> None);
  let skb, copied = Linux_glue.skb_of_bufio io in
  Alcotest.(check bool) "fake skbuff, no copy" false copied;
  Alcotest.(check string) "aliases the data" "contiguous-payload"
    (Bytes.sub_string skb.Skbuff.skb_data skb.Skbuff.head skb.Skbuff.len)

let test_skb_to_mbuf_no_copy () =
  (* Receive path: a contiguous sk_buff becomes an external-storage mbuf
     without copying. *)
  let skb = Skbuff.alloc_skb 64 in
  let off = Skbuff.skb_put skb 10 in
  Bytes.blit_string "rx-payload" 0 skb.Skbuff.skb_data off 10;
  let io = Linux_glue.bufio_of_skb skb in
  let m, copied = Freebsd_glue.mbuf_of_bufio io in
  Alcotest.(check bool) "no copy on receive" false copied;
  Alcotest.(check bool) "external storage shared" true (m.Mbuf.m_data == skb.Skbuff.skb_data)

(* ---- checksums ---- *)

let test_cksum_known_vector () =
  (* RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071 vector" 0x220d (Codec.cksum_bytes data ~off:0 ~len:8)

let test_cksum_chain_equals_flat () =
  let flat = Bytes.of_string "The quick brown fox jumps over the lazy dog!" in
  let whole = Codec.cksum_bytes flat ~off:0 ~len:(Bytes.length flat) in
  (* Same bytes split across mbufs at an odd boundary. *)
  let m = chain_of_strings [ "The quick"; " brown fox jumps "; "over the lazy dog!" ] in
  Alcotest.(check int) "chain = flat" whole
    (In_cksum.cksum_chain m ~off:0 ~len:(Mbuf.m_length m));
  (* Verification: a packet containing its own checksum sums to zero. *)
  let with_sum = Bytes.cat flat (Bytes.create 2) in
  Bytes.set_uint16_be with_sum (Bytes.length flat) whole;
  Alcotest.(check int) "self-verifies" 0
    (Codec.cksum_bytes with_sum ~off:0 ~len:(Bytes.length with_sum))

let prop_cksum_detects_single_bit_flips =
  QCheck.Test.make ~name:"in_cksum: detects any single-bit flip" ~count:100
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 2 100)) (pair small_nat small_nat))
    (fun (s, (byte_idx, bit)) ->
      let b = Bytes.of_string s in
      let len = Bytes.length b in
      let sum0 = Codec.cksum_bytes b ~off:0 ~len in
      let i = byte_idx mod len and bit = bit mod 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Codec.cksum_bytes b ~off:0 ~len <> sum0)

(* ---- TCP sequence arithmetic ---- *)

let prop_seq_total_order_window =
  QCheck.Test.make ~name:"tcp: seq comparisons respect 2^31 window" ~count:500
    QCheck.(pair (int_bound 0xffffffff) (int_bound 0x7ffffffe))
    (fun (a, delta) ->
      let b = (a + delta + 1) land 0xffffffff in
      (* b is ahead of a by 1..2^31-1: always a < b in sequence space. *)
      Codec.seq_lt a b && Codec.seq_gt b a && Codec.seq_leq a b && not (Codec.seq_geq a b))

let test_seq_wraparound () =
  Alcotest.(check bool) "wrap: 0xffffffff < 0" true (Codec.seq_lt 0xffffffff 0x0);
  Alcotest.(check bool) "diff across wrap" true (Codec.seq_diff 0x0 0xffffffff = 1);
  Alcotest.(check bool) "equal" true (Codec.seq_leq 5 5 && Codec.seq_geq 5 5)

(* ---- a two-host raw-IP rig over the simulated wire ---- *)

let make_pair () =
  let w = World.create () in
  let wire = Wire.create w in
  let mk name mac ipaddr =
    let machine = Machine.create ~name w in
    let _kern = Kernel.create machine in
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
    let stack = Bsd_socket.create_stack machine ~hwaddr:(Nic.mac nic) ~name in
    Native_if.attach stack nic;
    Bsd_socket.ifconfig stack ~addr:(ip ipaddr) ~mask:(ip "255.255.255.0");
    machine, stack
  in
  let ma, sa = mk "parts-a" "\x02\x00\x00\x00\x00\xaa" "10.1.0.1" in
  let mb, sb = mk "parts-b" "\x02\x00\x00\x00\x00\xbb" "10.1.0.2" in
  w, ma, sa, mb, sb

let test_arp_resolution () =
  let w, ma, sa, _mb, sb = make_pair () in
  let resolved = ref None in
  Machine.run_in ma (fun () ->
      Arp_resolver.resolve sa.Bsd_socket.arp (ip "10.1.0.2") (fun mac -> resolved := Some mac));
  World.run w;
  Alcotest.(check (option string)) "resolved to b's MAC"
    (Some sb.Bsd_socket.ifp.Netif.if_hwaddr) !resolved;
  Alcotest.(check int) "one request on the wire" 1 sa.Bsd_socket.arp.Arp_resolver.requests;
  (* Second resolution hits the cache. *)
  Machine.run_in ma (fun () ->
      Arp_resolver.resolve sa.Bsd_socket.arp (ip "10.1.0.2") (fun _ -> ()));
  Alcotest.(check int) "no second request" 1 sa.Bsd_socket.arp.Arp_resolver.requests

let test_icmp_echo () =
  let w, ma, sa, _mb, sb = make_pair () in
  let reply = ref None in
  sa.Bsd_socket.icmp.Icmp.on_echo_reply <-
    (fun ~ident ~seq ~payload -> reply := Some (ident, seq, Bytes.to_string payload));
  Machine.run_in ma (fun () ->
      Icmp.send_echo sa.Bsd_socket.icmp ~dst:(ip "10.1.0.2") ~ident:7 ~seq:3
        ~payload:(Bytes.of_string "ping-payload"));
  World.run w;
  Alcotest.(check (option (triple int int string))) "echo reply round trip"
    (Some (7, 3, "ping-payload")) !reply;
  Alcotest.(check int) "b answered one echo" 1 sb.Bsd_socket.icmp.Icmp.echoes_answered

let test_ip_fragmentation () =
  let w, ma, sa, _mb, sb = make_pair () in
  (* Register a raw protocol on both sides and send a 5000-byte datagram:
     it must fragment (MTU 1500) and reassemble. *)
  let received = ref None in
  Ip.set_proto sb.Bsd_socket.ip ~proto:200 (fun ~src:_ ~dst:_ m ->
      received := Some (Mbuf.m_copydata m ~off:0 ~len:(Mbuf.m_length m)));
  let payload = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
  Machine.run_in ma (fun () ->
      let m = Mbuf.m_ext_wrap (Bytes.copy payload) ~off:0 ~len:5000 in
      Ip.output sa.Bsd_socket.ip ~proto:200 ~src:sa.Bsd_socket.ifp.Netif.if_addr
        ~dst:(ip "10.1.0.2") m);
  World.run w;
  (match !received with
  | Some got ->
      Alcotest.(check int) "reassembled size" 5000 (Bytes.length got);
      Alcotest.(check string) "reassembled content" (Digest.to_hex (Digest.bytes payload))
        (Digest.to_hex (Digest.bytes got))
  | None -> Alcotest.fail "datagram not delivered");
  Alcotest.(check bool) "sender fragmented" true (sa.Bsd_socket.ip.Ip.ofragments >= 4);
  Alcotest.(check int) "receiver reassembled once" 1 sb.Bsd_socket.ip.Ip.reassembled

let test_udp_roundtrip () =
  let w, ma, sa, mb, sb = make_pair () in
  let ka = Thread.create_sched ma and kb = Thread.create_sched mb in
  Thread.install ka;
  Thread.install kb;
  let got = ref None in
  Thread.spawn kb ~name:"udp-server" (fun () ->
      let s = Bsd_socket.udp_socket sb in
      (match Bsd_socket.uso_bind s ~port:9999 with Ok () -> () | Error _ -> ());
      let src, sport, payload = Bsd_socket.uso_recvfrom s in
      got := Some (Oskit.string_of_ip src, sport, Bytes.to_string payload);
      (* Answer back. *)
      ignore (Bsd_socket.uso_sendto s ~buf:(Bytes.of_string "pong") ~pos:0 ~len:4 ~dst:src ~dport:sport));
  let answer = ref None in
  Thread.spawn ka ~name:"udp-client" (fun () ->
      let s = Bsd_socket.udp_socket sa in
      (match Bsd_socket.uso_bind s ~port:1234 with Ok () -> () | Error _ -> ());
      ignore
        (Bsd_socket.uso_sendto s ~buf:(Bytes.of_string "ping!") ~pos:0 ~len:5
           ~dst:(ip "10.1.0.2") ~dport:9999);
      let _, _, payload = Bsd_socket.uso_recvfrom s in
      answer := Some (Bytes.to_string payload));
  Machine.kick ma;
  Machine.kick mb;
  World.run w;
  Alcotest.(check (option (triple string int string))) "server saw datagram"
    (Some ("10.1.0.1", 1234, "ping!")) !got;
  Alcotest.(check (option string)) "client got reply" (Some "pong") !answer

let test_udp_checksum_rejects_corruption () =
  let w, ma, sa, _mb, sb = make_pair () in
  (* Corrupt every frame in transit by flipping a payload bit: attach a
     malicious hub port. *)
  let _ = w in
  let pcb = Udp.create_pcb sb.Bsd_socket.udp in
  (match Udp.bind sb.Bsd_socket.udp pcb ~port:7 with Ok () -> () | Error _ -> ());
  (* Build a frame by hand via the stack, then corrupt the UDP payload and
     inject directly into b's ether input. *)
  Machine.run_in ma (fun () ->
      let upcb = Udp.create_pcb sa.Bsd_socket.udp in
      ignore (Udp.bind sa.Bsd_socket.udp upcb ~port:8);
      Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.1.0.2") ~dport:7
        ~src:(Bytes.of_string "AAAA") ~src_pos:0 ~len:4);
  (* Let the legit one arrive first. *)
  World.run w;
  Alcotest.(check int) "clean datagram accepted" 1 (Queue.length pcb.Udp.rcv_q);
  (* Now inject a corrupted copy straight into b's IP layer. *)
  let m = Mbuf.m_gethdr () in
  let off = Mbuf.m_put m 12 in
  let d = m.Mbuf.m_data in
  (* source port 8, dst 7, length 12, bogus checksum *)
  Bytes.set_uint16_be d off 8;
  Bytes.set_uint16_be d (off + 2) 7;
  Bytes.set_uint16_be d (off + 4) 12;
  Bytes.set_uint16_be d (off + 6) 0xdead;
  Bytes.blit_string "AAAA" 0 d (off + 8) 4;
  Ip.deliver sb.Bsd_socket.ip ~proto:17 ~src:(ip "10.1.0.1") ~dst:(ip "10.1.0.2") m;
  Alcotest.(check int) "corrupted datagram dropped" 1 (Queue.length pcb.Udp.rcv_q)

(* A UDP length field below the 8-byte header (zero checksum, so nothing
   else rejects it) is dropped and counted; it used to size a negative
   copy and raise out of the input path.  The next valid datagram to the
   same port is still delivered. *)
let test_udp_short_length_field () =
  let _w, _ma, _sa, _mb, sb = make_pair () in
  let u = sb.Bsd_socket.udp in
  let pcb = Udp.create_pcb u in
  (match Udp.bind u pcb ~port:7 with Ok () -> () | Error _ -> ());
  let deliver ~ulen =
    let m = Mbuf.m_gethdr () in
    let off = Mbuf.m_put m 12 in
    let d = m.Mbuf.m_data in
    Bytes.set_uint16_be d off 8;
    Bytes.set_uint16_be d (off + 2) 7;
    Bytes.set_uint16_be d (off + 4) ulen;
    Bytes.set_uint16_be d (off + 6) 0;
    Bytes.blit_string "AAAA" 0 d (off + 8) 4;
    Ip.deliver sb.Bsd_socket.ip ~proto:17 ~src:(ip "10.1.0.1") ~dst:(ip "10.1.0.2") m
  in
  List.iter (fun ulen -> deliver ~ulen) [ 0; 4; 7 ];
  Alcotest.(check int) "short lengths counted" 3 u.Udp.badlen;
  Alcotest.(check int) "nothing queued" 0 (Queue.length pcb.Udp.rcv_q);
  deliver ~ulen:12;
  Alcotest.(check int) "the next datagram is delivered" 1 (Queue.length pcb.Udp.rcv_q);
  Alcotest.(check string) "its payload" "AAAA"
    (match Udp.recv pcb with Some (_, _, p) -> Bytes.to_string p | None -> "")

(* ---- the shared wire codec ---- *)

(* Write -> parse is the identity for every combination of the MSS and
   window-scale options and the extremes of each field. *)
let prop_tcp_header_roundtrip =
  let open QCheck.Gen in
  let edge32 =
    oneof [ oneofl [ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ]; int_bound 0xffffffff ]
  in
  let edge16 = oneof [ oneofl [ 0; 1; 0xffff ]; int_bound 0xffff ] in
  let options = oneofl [ false, false; true, false; false, true; true, true ] in
  let gen =
    quad (pair edge16 edge16) (pair edge32 edge32) (triple (int_bound 0xff) edge16 options)
      (pair edge16 (int_bound 0xff))
  in
  QCheck.Test.make ~name:"codec: tcp header write -> parse round trip" ~count:500
    (QCheck.make gen)
    (fun ((sport, dport), (seq, ack), (flags, win, (has_mss, has_ws)), (mss_v, ws_v)) ->
      let mss = if has_mss then Some mss_v else None in
      let wscale = if has_ws then Some ws_v else None in
      let hlen = Codec.tcp_header_len ~mss ~wscale in
      let d = Bytes.make (3 + hlen) 'x' in
      Codec.write_tcp d ~off:3 ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale;
      Codec.parse_tcp d ~off:3 ~len:hlen
      = Some { Codec.sport; dport; seq; ack; hlen; flags; win; mss; wscale })

(* ---- malformed headers from the wire ---- *)

let server_ip = ip "10.0.0.1"
let client_ip = ip "10.0.0.2"
let listen_port = 7007

(* A fresh testbed with a [config] listener on host A and a FreeBSD
   client on host B, whose card also serves as the raw frame injector.
   [connect k] connects from B, 2 ms on, and hands [k] the connection. *)
let listening_rig config =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let server = Endpoint.setup config tb.Clientos.host_a ~addr:server_ip in
  let client = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_b ~addr:client_ip in
  let accepted = ref false in
  Clientos.spawn server.host (fun () ->
      ignore (Endpoint.ok (server.listen ~port:listen_port ~backlog:2 ()));
      accepted := true);
  let connect k =
    Clientos.spawn client.host (fun () ->
        Kclock.sleep_ns 2_000_000;
        k (Endpoint.ok (client.connect ~dst:server_ip ~port:listen_port)))
  in
  tb, connect, accepted

let run_for tb ns =
  let until = World.now tb.Clientos.world + ns in
  Clientos.run tb ~until:(fun () -> World.now tb.Clientos.world >= until)

(* A frame from host B's card to host A's, sent raw. *)
let inject tb ~ethertype payload =
  let a = tb.Clientos.host_a and b = tb.Clientos.host_b in
  let f = Bytes.make (14 + Bytes.length payload) '\000' in
  Bytes.blit_string (Nic.mac a.Clientos.nic) 0 f 0 6;
  Bytes.blit_string (Nic.mac b.Clientos.nic) 0 f 6 6;
  Bytes.set_uint16_be f 12 ethertype;
  Bytes.blit payload 0 f 14 (Bytes.length payload);
  Machine.run_in b.Clientos.machine (fun () -> Nic.transmit b.Clientos.nic f)

(* An IPv4 datagram from B to A around [seg], header checksum valid. *)
let datagram ?total seg =
  let d = Bytes.make (20 + Bytes.length seg) '\000' in
  Bytes.blit seg 0 d 20 (Bytes.length seg);
  let total = Option.value total ~default:(Bytes.length d) in
  Codec.write_ip d ~off:0 ~total ~id:1 ~more_frags:false ~frag_off:0 ~ttl:64 ~proto:6
    ~src:client_ip ~dst:server_ip;
  d

(* A [len]-byte SYN to the listener claiming a 60-byte header (data offset
   15), NOP-filled past the fixed 20 bytes, TCP checksum valid. *)
let bad_offset_syn len =
  let s = Bytes.make len '\001' in
  Codec.write_tcp s ~off:0 ~sport:4242 ~dport:listen_port ~seq:1 ~ack:0 ~flags:0x02 ~win:8192
    ~mss:None ~wscale:None;
  Bytes.set s 12 '\xf0';
  Codec.set_tcp_cksum s ~off:0 ~zero_as_ones:false
    (Codec.cksum_bytes s ~off:0 ~len
       ~init:(Codec.pseudo_header ~src:client_ip ~dst:server_ip ~proto:6 ~len));
  s

let test_malformed_headers config () =
  let tb, connect, accepted = listening_rig config in
  run_for tb 1_000_000;
  (* IHL 15 in a 60-byte frame: a 60-byte header in 46 bytes. *)
  let ihl15 = datagram (Bytes.make 26 '\000') in
  Bytes.set ihl15 0 '\x4f';
  inject tb ~ethertype:0x0800 ihl15;
  List.iter (fun len -> inject tb ~ethertype:0x0800 (datagram (bad_offset_syn len))) [ 20; 24; 40 ];
  (* Total length 10, below the 20-byte header, checksum valid. *)
  inject tb ~ethertype:0x0800 (datagram ~total:10 (bad_offset_syn 20));
  run_for tb 50_000_000;
  Alcotest.(check bool) "nothing accepted from garbage" false !accepted;
  connect ignore;
  let deadline = World.now tb.Clientos.world + 5_000_000_000 in
  Clientos.run tb ~until:(fun () -> !accepted || World.now tb.Clientos.world >= deadline);
  Alcotest.(check bool) "the listener still accepts a clean connection" true !accepted

(* ---- fuzz: damaged headers on captured frames ---- *)

(* Every frame of a short clean FreeBSD-to-FreeBSD transfer, ARP
   included, as it crossed the wire. *)
let clean_frames =
  lazy
    (let tb, connect, _ = listening_rig Endpoint.Freebsd in
     let frames = ref [] in
     ignore (Wire.attach tb.Clientos.wire ~rx:(fun f -> frames := f :: !frames));
     let sent = ref false in
     connect (fun c ->
         ignore (Endpoint.ok (c.send ~buf:(Bytes.make 3000 'z') ~pos:0 ~len:3000));
         c.close ();
         sent := true);
     Clientos.run tb ~until:(fun () -> !sent);
     run_for tb 10_000_000;
     Array.of_list (List.rev !frames))

(* Re-address an IP frame from B to A, so it reaches A's TCP, and
   recompute whichever checksums the (possibly damaged) lengths still
   allow, so that parsing gets past them. *)
let refresh_ip_frame f =
  let len = Bytes.length f in
  if Bytes.get_uint16_be f 12 = 0x0800 && len >= 34 then begin
    let ihl = (Char.code (Bytes.get f 14) land 0xf) * 4 in
    let seg = 14 + ihl in
    let seg_len = min (Bytes.get_uint16_be f 16) (len - 14) - ihl in
    if Char.code (Bytes.get f 23) = 6 && seg_len >= 18 then begin
      Bytes.set_uint16_be f (seg + 16) 0;
      Codec.set_tcp_cksum f ~off:seg ~zero_as_ones:false
        (Codec.cksum_bytes f ~off:seg ~len:seg_len
           ~init:
             (Codec.pseudo_header ~src:(Bytes.get_int32_be f 26) ~dst:(Bytes.get_int32_be f 30)
                ~proto:6 ~len:seg_len))
    end;
    if ihl >= 20 && seg <= len then begin
      Bytes.set_uint16_be f 24 0;
      Bytes.set_uint16_be f 24 (Codec.cksum_bytes f ~off:14 ~len:ihl)
    end
  end

let prop_damaged_headers_never_raise =
  QCheck.Test.make ~name:"codec: damaged headers never raise, all configs" ~count:100
    QCheck.(quad (int_bound 10_000) bool (int_bound 10_000) (int_bound 0xff))
    (fun (which, truncate, at, v) ->
      let frames = Lazy.force clean_frames in
      let orig = frames.(which mod Array.length frames) in
      let is_ip = Bytes.get_uint16_be orig 12 = 0x0800 in
      let f = Bytes.copy orig in
      if is_ip then begin
        Bytes.set_int32_be f 26 client_ip;
        Bytes.set_int32_be f 30 server_ip
      end;
      let f =
        if truncate then Bytes.sub f 0 (14 + (at mod (Bytes.length f - 14)))
        else begin
          (* One byte of the IPv4 + TCP header, or of the ARP message. *)
          let hdr =
            if is_ip then
              ((Char.code (Bytes.get f 14) land 0xf) * 4)
              + ((Char.code (Bytes.get f 46) lsr 4) * 4)
            else Codec.arp_len
          in
          Bytes.set f (14 + (at mod hdr)) (Char.chr v);
          f
        end
      in
      refresh_ip_frame f;
      List.iter
        (fun config ->
          let tb, _, _ = listening_rig config in
          run_for tb 1_000_000;
          inject tb ~ethertype:(Bytes.get_uint16_be f 12) (Bytes.sub f 14 (Bytes.length f - 14));
          run_for tb 5_000_000)
        Endpoint.[ Linux; Freebsd; Oskit ];
      true)

(* ---- ARP input frees the request on every path ---- *)

let with_every_alloc_failing f =
  Fun.protect ~finally:Memfault.reset (fun () ->
      Cost.with_config { Cost.config with Cost.alloc_fail_prob = 1.0 } (fun () ->
          Memfault.reset ();
          f ()))

let arp_request_to target =
  let b = Bytes.create Codec.arp_len in
  Codec.write_arp b ~off:0 ~op:Codec.arp_request ~sha:"\x02\x00\x00\x00\x00\x99"
    ~spa:(ip "10.1.0.9") ~tha:Arp_resolver.unknown_mac ~tpa:target;
  b

(* A request for us arrives while every allocation fails: the reply's
   buffer is refused, and the request's must still go back to its pool. *)
let test_arp_reply_nomem_frees_request_bsd () =
  let _w, ma, sa, _mb, _sb = make_pair () in
  let m = Mbuf.m_gethdr () in
  let off = Mbuf.m_put m Codec.arp_len in
  Bytes.blit (arp_request_to (ip "10.1.0.1")) 0 m.Mbuf.m_data off Codec.arp_len;
  let input = List.assoc Netif.ethertype_arp sa.Bsd_socket.ifp.Netif.if_protos in
  Machine.run_in ma (fun () -> with_every_alloc_failing (fun () -> input m));
  Alcotest.(check int) "reply attempted" 1 sa.Bsd_socket.arp.Arp_resolver.replies;
  Alcotest.(check bool) "request mbuf freed" true m.Mbuf.m_freed

let test_arp_reply_nomem_frees_request_linux () =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_a in
  let st = Clientos.linux_host host ~ip:(ip "10.1.0.1") ~mask:(ip "255.255.255.0") in
  let skb = Skbuff.alloc_skb 64 in
  let off = Skbuff.skb_put skb (14 + Codec.arp_len) in
  Bytes.blit (arp_request_to (ip "10.1.0.1")) 0 skb.Skbuff.skb_data (off + 14) Codec.arp_len;
  skb.Skbuff.protocol <- 0x0806;
  Machine.run_in host.Clientos.machine (fun () ->
      with_every_alloc_failing (fun () -> Linux_inet.netif_rx st skb));
  Alcotest.(check int) "reply attempted" 1 st.Linux_inet.arp.Arp_resolver.replies;
  Alcotest.(check bool) "request skb freed" true skb.Skbuff.skb_freed

let suite =
  [ Alcotest.test_case "mbuf basics" `Quick test_mbuf_basics;
    Alcotest.test_case "mbuf adj" `Quick test_mbuf_adj;
    Alcotest.test_case "mbuf prepend headroom" `Quick test_mbuf_prepend_headroom;
    Alcotest.test_case "mbuf copym shares clusters" `Quick test_mbuf_copym_shares_clusters;
    Alcotest.test_case "mbuf pullup" `Quick test_mbuf_pullup;
    Alcotest.test_case "mbuf append" `Quick test_mbuf_append;
    Alcotest.test_case "skbuff ops" `Quick test_skbuff_ops;
    Alcotest.test_case "skb<->bufio self-recognition" `Quick test_skb_bufio_roundtrip;
    Alcotest.test_case "mbuf chain forces copy (send path)" `Quick
      test_mbuf_chain_forces_copy_in_linux_glue;
    Alcotest.test_case "single mbuf maps (no copy)" `Quick test_single_mbuf_maps_no_copy;
    Alcotest.test_case "skb->mbuf loan (receive path)" `Quick test_skb_to_mbuf_no_copy;
    Alcotest.test_case "cksum known vector" `Quick test_cksum_known_vector;
    Alcotest.test_case "cksum chain = flat" `Quick test_cksum_chain_equals_flat;
    QCheck_alcotest.to_alcotest prop_cksum_detects_single_bit_flips;
    QCheck_alcotest.to_alcotest prop_seq_total_order_window;
    Alcotest.test_case "seq wraparound" `Quick test_seq_wraparound;
    Alcotest.test_case "arp resolution" `Quick test_arp_resolution;
    Alcotest.test_case "icmp echo" `Quick test_icmp_echo;
    Alcotest.test_case "ip fragmentation" `Quick test_ip_fragmentation;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp checksum rejects corruption" `Quick
      test_udp_checksum_rejects_corruption;
    Alcotest.test_case "udp: short length field dropped, counted" `Quick
      test_udp_short_length_field;
    QCheck_alcotest.to_alcotest prop_tcp_header_roundtrip;
    Alcotest.test_case "malformed headers: linux" `Quick
      (test_malformed_headers Endpoint.Linux);
    Alcotest.test_case "malformed headers: freebsd" `Quick
      (test_malformed_headers Endpoint.Freebsd);
    Alcotest.test_case "malformed headers: oskit" `Quick
      (test_malformed_headers Endpoint.Oskit);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
      prop_damaged_headers_never_raise;
    Alcotest.test_case "arp reply refused: request freed (bsd)" `Quick
      test_arp_reply_nomem_frees_request_bsd;
    Alcotest.test_case "arp reply refused: request freed (linux)" `Quick
      test_arp_reply_nomem_frees_request_linux ]
