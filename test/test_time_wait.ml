(* TIME_WAIT as both stacks keep it: a compact record in the shared
   connection table (Conn_table, Tw_queue.tw), not the connection's pcb
   or sock.  One stack talks to a peer that exists only as the segments
   the test writes, so every reply on the wire is the record's.

   The pins: a retransmitted FIN is ACKed again (its ACK was lost) and
   leaves the 2MSL wait as it was; duplicate data is dup-ACKed, both with
   snd_nxt, rcv_nxt and the window the connection last offered; a RST
   inside the window resets it (BSD) or any RST does (Linux); a SYN gets
   no reply.  The newest binding on a 4-tuple answers first, and closing
   it uncovers the record; 2MSL leaves nothing behind; and a record
   reaches nothing but itself and its addresses.  FINs that cross take a
   connection through CLOSING, whose own timer resends its FIN until the
   ACK takes it to TIME_WAIT.  A live connection that has taken the
   peer's FIN (CLOSE_WAIT, LAST_ACK) ACKs its retransmission too. *)

let ip, mask = Endpoint.(ip, mask)
let local = ip "10.0.0.1"
let peer = ip "10.0.0.2"
let peer_mac = Arp_resolver.Resolved "\x02\x00\x00\x00\x00\x99"
let port = 1100

let th_fin = 0x01
let th_syn = 0x02
let th_rst = 0x04
let th_ack = 0x10

(* A segment from the peer's port 80 to [lport], checksummed. *)
let segment ?(lport = port) ?(data = "") ~seq ~ack ~flags () =
  let n = 20 + String.length data in
  let d = Bytes.make n '\000' in
  Codec.write_tcp d ~off:0 ~sport:80 ~dport:lport ~seq ~ack ~flags ~win:8192 ~mss:None
    ~wscale:None;
  Bytes.blit_string data 0 d 20 (String.length data);
  Codec.set_tcp_cksum d ~off:0 ~zero_as_ones:false
    (Codec.cksum_bytes d ~off:0 ~len:n ~init:(Codec.pseudo_header ~src:peer ~dst:local ~proto:6 ~len:n));
  d

(* What a test sees of one stack. *)
type 'a rig = {
  tb : Clientos.testbed;
  conns : 'a Conn_table.t;
  input : bytes -> unit; (* a segment from the peer *)
  sent : Codec.tcp list ref; (* the stack's segments, newest first *)
  connect : int -> 'a; (* from a local port to the peer's port 80: SYN sent *)
  iss : 'a -> int;
  close : 'a -> unit; (* FIN, or gone before the handshake *)
  state : 'a -> string; (* CLOSE_WAIT, LAST_ACK or CLOSING as BSD names them, else "other" *)
  counter : string -> int;
  win : int; (* the window a fresh connection offers *)
  expired : Conn_table.tw -> unit; (* the record left at the end of its 2MSL *)
  idle : unit -> unit; (* the stack's own timers are quiet *)
}

let tap tb =
  let sent = ref [] in
  ignore
    (Wire.attach tb.Clientos.wire ~rx:(fun f ->
         match Test_tcp_behavior.tcp_of_frame f with
         | Some (h, _) when h.Codec.dport = 80 -> sent := h :: !sent
         | _ -> ()));
  sent

let bsd () =
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  Hashtbl.replace st.Bsd_socket.arp.Arp_resolver.table peer peer_mac;
  let t = st.Bsd_socket.tcp and m = tb.Clientos.host_a.Clientos.machine in
  let stats = t.Tcp.stats in
  { tb; conns = t.Tcp.conns; sent = tap tb; win = Tcp.default_sb_size;
    input =
      (fun d ->
        Machine.run_in m (fun () ->
            let mb = Mbuf.m_gethdr () in
            Mbuf.m_append mb ~src:d ~src_pos:0 ~len:(Bytes.length d);
            Tcp.input t ~src:peer ~dst:local mb));
    connect =
      (fun lport ->
        Machine.run_in m (fun () ->
            let p = Tcp.create_pcb t in
            ignore (Tcp.usr_bind t p ~port:lport);
            ignore (Tcp.usr_connect t p ~dst:peer ~dport:80);
            p));
    iss = (fun p -> p.Tcp.iss);
    close = (fun p -> Machine.run_in m (fun () -> Tcp.usr_close t p));
    state = (fun p -> Tcp.state_name p.Tcp.t_state);
    counter =
      (function
      | "in" -> stats.Tcp.rcvpack
      | "out" -> stats.Tcp.sndpack
      | "rexmit" -> stats.Tcp.sndrexmitpack
      | "dup" -> stats.Tcp.rcvdup
      | "drops" -> stats.Tcp.drops
      | c -> invalid_arg c);
    (* on the slow tick 2MSL after the one it entered on *)
    expired =
      (fun tw ->
        Alcotest.(check int) "expired on its slow tick" tw.Tw_queue.tw_expires
          (Timewheel.now t.Tcp.slow_wheel));
    idle = (fun () -> Test_event.check_tick_wheels_quiescent "bsd" t) }

let linux () =
  let tb = Clientos.make_testbed () in
  let t = Clientos.linux_host tb.Clientos.host_a ~ip:local ~mask in
  Hashtbl.replace t.Linux_inet.arp.Arp_resolver.table peer peer_mac;
  let m = tb.Clientos.host_a.Clientos.machine in
  { tb; conns = t.Linux_inet.conns; sent = tap tb; win = Linux_inet.default_window;
    input =
      (fun d -> Machine.run_in m (fun () -> Linux_inet.tcp_rcv t ~src:peer (Skbuff.skb_wrap d)));
    connect =
      (fun lport ->
        Machine.run_in m (fun () ->
            let s = Linux_inet.socket t in
            Linux_inet.bind t s ~port:lport;
            Linux_inet.connect_start t s ~dst:peer ~dport:80;
            s));
    iss = (fun s -> s.Linux_inet.iss);
    close = (fun s -> Machine.run_in m (fun () -> Linux_inet.close t s));
    state =
      (fun s ->
        match s.Linux_inet.state with
        | Linux_inet.Close_wait -> "CLOSE_WAIT"
        | Last_ack -> "LAST_ACK"
        | Closing -> "CLOSING"
        | _ -> "other");
    counter =
      (function
      | "in" -> t.Linux_inet.segs_in
      | "out" -> t.Linux_inet.segs_out
      | "rexmit" -> t.Linux_inet.rexmits
      | "dup" -> t.Linux_inet.rcvdup
      | "drops" -> 0
      | c -> invalid_arg c);
    (* at its 2 s deadline, to the nanosecond *)
    expired =
      (fun tw ->
        Alcotest.(check int) "expired at its deadline" tw.Tw_queue.tw_expires
          (World.now tb.Clientos.world));
    idle = ignore }

let peer_iss = 5000

(* Run a millisecond of the world: what was sent is on the wire. *)
let settle r =
  let w = r.tb.Clientos.world and stop = ref false in
  ignore (World.after w 1_000_000 (fun () -> stop := true));
  Clientos.run r.tb ~until:(fun () -> !stop)

(* Open a connection from [lport] and close it actively against the
   written peer: its SYN-ACK, then its FIN with the ACK of ours.  Returns
   the record that took the connection's place. *)
let to_time_wait ?(lport = port) r =
  let c = r.connect lport in
  let iss = r.iss c in
  r.input (segment ~lport ~seq:peer_iss ~ack:(iss + 1) ~flags:(th_syn lor th_ack) ());
  r.close c;
  r.input (segment ~lport ~seq:(peer_iss + 1) ~ack:(iss + 2) ~flags:(th_fin lor th_ack) ());
  settle r;
  match List.rev (Tw_queue.to_list r.conns.Conn_table.tw) with
  | tw :: _ when tw.Tw_queue.tw_lport = lport ->
      Alcotest.(check bool) "the connection left the table" false (List.memq c (Conn_table.to_list r.conns));
      tw
  | _ -> Alcotest.fail "no TIME_WAIT record"

(* The segments the stack sends in answer to [seg], oldest first. *)
let replies r seg =
  let before = List.length !(r.sent) in
  r.input seg;
  settle r;
  List.rev (List.filteri (fun i _ -> i < List.length !(r.sent) - before) !(r.sent))

let dup_data tw =
  segment ~seq:(tw.Tw_queue.tw_rcv_nxt - 4) ~ack:tw.Tw_queue.tw_snd_nxt ~flags:th_ack ~data:"abc" ()

let re_fin tw =
  segment ~seq:(tw.Tw_queue.tw_rcv_nxt - 1) ~ack:tw.Tw_queue.tw_snd_nxt ~flags:(th_fin lor th_ack) ()

let check_ack r tw what = function
  | [ h ] ->
      Alcotest.(check (list int)) (what ^ ": an ACK of snd_nxt, rcv_nxt, the window")
        [ tw.Tw_queue.tw_snd_nxt; tw.Tw_queue.tw_rcv_nxt; th_ack; r.win ]
        [ h.Codec.seq; h.Codec.ack; h.Codec.flags; h.Codec.win ]
  | l -> Alcotest.failf "%s: %d replies, want one ACK" what (List.length l)

(* When the record leaves the table, after [before] runs. *)
let released_at r ?(before = ignore) () =
  let tw = to_time_wait r in
  before tw;
  Clientos.run r.tb ~until:(fun () -> not tw.Tw_queue.tw_queued);
  Alcotest.(check bool) "released" false tw.Tw_queue.tw_queued;
  World.now r.tb.Clientos.world

let pins make ~any_rst () =
  (* A retransmitted FIN: counted in, ACKed again, the wait unchanged. *)
  let r = make () in
  let tw = to_time_wait r in
  let in0 = r.counter "in" and out0 = r.counter "out" in
  check_ack r tw "re-FIN" (replies r (re_fin tw));
  Alcotest.(check (list int)) "re-FIN: one segment in, one out" [ in0 + 1; out0 + 1 ]
    [ r.counter "in"; r.counter "out" ];
  Alcotest.(check bool) "re-FIN: still in TIME_WAIT" true tw.Tw_queue.tw_queued;
  let plain = released_at (make ()) () in
  let r = make () in
  let refin = released_at r ~before:(fun tw -> ignore (replies r (re_fin tw))) () in
  Alcotest.(check int) "re-FIN: the 2MSL wait does not restart" plain refin;
  (* Duplicate data: counted, dup-ACKed. *)
  let r = make () in
  let tw = to_time_wait r in
  let dup0 = r.counter "dup" in
  check_ack r tw "duplicate data" (replies r (dup_data tw));
  Alcotest.(check int) "duplicate data counted" (dup0 + 1) (r.counter "dup");
  (* A SYN on the 4-tuple: no reply, the record stays. *)
  let r = make () in
  let tw = to_time_wait r in
  Alcotest.(check int) "SYN: no reply" 0
    (List.length
       (replies r (segment ~seq:(tw.Tw_queue.tw_rcv_nxt + 100_000) ~ack:0 ~flags:th_syn ())));
  Alcotest.(check bool) "SYN: still in TIME_WAIT" true tw.Tw_queue.tw_queued;
  (* A RST at rcv_nxt resets it, without a reply. *)
  let r = make () in
  let tw = to_time_wait r in
  let drops0 = r.counter "drops" in
  Alcotest.(check int) "RST: no reply" 0
    (List.length (replies r (segment ~seq:tw.Tw_queue.tw_rcv_nxt ~ack:0 ~flags:th_rst ())));
  Alcotest.(check bool) "RST: released" false tw.Tw_queue.tw_queued;
  Alcotest.(check bool) "RST: the table is empty" true (Conn_table.is_empty r.conns);
  Alcotest.(check int) "RST: a drop where one is counted" (if any_rst then drops0 else drops0 + 1)
    (r.counter "drops");
  (* A RST far outside the window: BSD ignores it; Linux checks none. *)
  let r = make () in
  let tw = to_time_wait r in
  ignore (replies r (segment ~seq:(tw.Tw_queue.tw_rcv_nxt + 1_000_000) ~ack:0 ~flags:th_rst ()));
  Alcotest.(check bool) "RST outside the window releases" any_rst (not tw.Tw_queue.tw_queued)

(* A newer connection on the record's 4-tuple answers first; closing it
   uncovers the record, which answers again. *)
let newest_first make () =
  let r = make () in
  let tw = to_time_wait r in
  let find () = Conn_table.find r.conns ~raddr:peer ~rport:80 ~lport:port in
  let newer = r.connect port in
  Alcotest.(check bool) "the newer connection answers" true
    (match find () with Some (Conn_table.Live c) -> c == newer | _ -> false);
  r.close newer;
  settle r;
  Alcotest.(check bool) "closing it uncovers the record" true
    (match find () with Some (Conn_table.Tw x) -> x == tw | _ -> false);
  check_ack r tw "the uncovered record" (replies r (dup_data tw))

(* At the end of its 2MSL the record is gone, and with it every trace of
   the connection. *)
let check_gone r tw =
  Clientos.run r.tb ~until:(fun () -> not tw.Tw_queue.tw_queued);
  r.expired tw;
  Clientos.run r.tb ~until:(fun () -> false);
  let q = r.conns.Conn_table.tw in
  Alcotest.(check bool) "no record" true (Conn_table.is_empty r.conns);
  Alcotest.(check (list int)) "no queue entry, port use or demux binding" [ 0; 0; 0; 0 ]
    [ q.Tw_queue.live; Queue.length q.Tw_queue.q;
      Hashtbl.length r.conns.Conn_table.ports.Port_alloc.uses;
      Hashtbl.length r.conns.Conn_table.demux.Demux.tbl ];
  r.idle ();
  Alcotest.(check int) "no world event" 0 (World.pending r.tb.Clientos.world)

let quiescent make () =
  let r = make () in
  check_gone r (to_time_wait r)

(* Simultaneous close, the final ACK lost once: the peer's FIN crosses
   ours, so the connection ACKs it and reads CLOSING; with no ACK of its
   own FIN, its retransmit timer resends that FIN; the ACK of it takes
   the connection to TIME_WAIT, and 2MSL leaves nothing behind. *)
let simultaneous_close make () =
  let r = make () in
  let c = r.connect port in
  let iss = r.iss c in
  r.input (segment ~seq:peer_iss ~ack:(iss + 1) ~flags:(th_syn lor th_ack) ());
  r.close c;
  settle r;
  let fin_ack = segment ~seq:(peer_iss + 1) ~ack:(iss + 1) ~flags:(th_fin lor th_ack) () in
  (match replies r fin_ack with
  | [ h ] ->
      Alcotest.(check (list int)) "crossed FIN: ACKed at once"
        [ iss + 2; peer_iss + 2; th_ack ] [ h.Codec.seq; h.Codec.ack; h.Codec.flags ]
  | l -> Alcotest.failf "crossed FIN: %d replies, want one ACK" (List.length l));
  Alcotest.(check string) "crossed FIN" "CLOSING" (r.state c);
  let rexmit0 = r.counter "rexmit" and sent0 = List.length !(r.sent) in
  Clientos.run r.tb ~until:(fun () -> List.length !(r.sent) > sent0);
  (match !(r.sent) with
  | h :: _ ->
      Alcotest.(check (list int)) "our FIN resent" [ iss + 1; th_fin ]
        [ h.Codec.seq; h.Codec.flags land th_fin ]
  | [] -> Alcotest.fail "nothing resent");
  Alcotest.(check int) "by the connection's own timer" (rexmit0 + 1) (r.counter "rexmit");
  Alcotest.(check string) "after the resend" "CLOSING" (r.state c);
  Alcotest.(check int) "no record yet" 0 (List.length (Tw_queue.to_list r.conns.Conn_table.tw));
  r.input (segment ~seq:(peer_iss + 2) ~ack:(iss + 2) ~flags:th_ack ());
  settle r;
  match Tw_queue.to_list r.conns.Conn_table.tw with
  | [ tw ] ->
      Alcotest.(check (list int)) "TIME_WAIT at the ACK: snd_nxt, rcv_nxt"
        [ iss + 2; peer_iss + 2 ] [ tw.Tw_queue.tw_snd_nxt; tw.Tw_queue.tw_rcv_nxt ];
      Alcotest.(check bool) "the connection left the table" false
        (List.memq c (Conn_table.to_list r.conns));
      check_gone r tw
  | l -> Alcotest.failf "%d TIME_WAIT records, want one" (List.length l)

(* A passive close against the written peer: its FIN takes the
   connection to CLOSE_WAIT, and closing it then sends our FIN (LAST_ACK).
   In either state a retransmission of the peer's FIN, whose ACK was
   lost, is ACKed again: one segment in, one ACK of snd_nxt and rcv_nxt
   out. *)
let re_fin_live make ~last_ack () =
  let r = make () in
  let c = r.connect port in
  let iss = r.iss c in
  r.input (segment ~seq:peer_iss ~ack:(iss + 1) ~flags:(th_syn lor th_ack) ());
  let fin = segment ~seq:(peer_iss + 1) ~ack:(iss + 1) ~flags:(th_fin lor th_ack) () in
  r.input fin;
  if last_ack then r.close c;
  settle r;
  Alcotest.(check string) "passive close" (if last_ack then "LAST_ACK" else "CLOSE_WAIT") (r.state c);
  let in0 = r.counter "in" and out0 = r.counter "out" in
  (match replies r fin with
  | [ h ] ->
      Alcotest.(check (list int)) "re-FIN: an ACK of snd_nxt, rcv_nxt"
        [ (if last_ack then iss + 2 else iss + 1); peer_iss + 2; th_ack ]
        [ h.Codec.seq; h.Codec.ack; h.Codec.flags ]
  | l -> Alcotest.failf "re-FIN: %d replies, want one ACK" (List.length l));
  Alcotest.(check (list int)) "re-FIN: one segment in, one out" [ in0 + 1; out0 + 1 ]
    [ r.counter "in"; r.counter "out" ]

(* A thousand TIME_WAIT records reach at most 40 words each: no pcb,
   sock, stack or timer behind them. *)
let footprint make () =
  let r = make () in
  for i = 0 to 999 do
    ignore (to_time_wait r ~lport:(2000 + i))
  done;
  let tws = Tw_queue.to_list r.conns.Conn_table.tw in
  Alcotest.(check int) "a thousand records" 1000 (List.length tws);
  let words = Obj.reachable_words (Obj.repr tws) in
  if words > 40 * 1000 then
    Alcotest.failf "%d words reachable from 1000 records: %.1f each" words
      (float_of_int words /. 1000.)

let suite =
  [ Alcotest.test_case "bsd: re-FIN, dup data, SYN and RSTs" `Quick (pins bsd ~any_rst:false);
    Alcotest.test_case "linux: re-FIN, dup data, SYN and RSTs" `Quick (pins linux ~any_rst:true);
    Alcotest.test_case "bsd: the newest binding answers first" `Quick (newest_first bsd);
    Alcotest.test_case "linux: the newest binding answers first" `Quick (newest_first linux);
    Alcotest.test_case "bsd: nothing left after 2MSL" `Quick (quiescent bsd);
    Alcotest.test_case "linux: nothing left after 2MSL" `Quick (quiescent linux);
    Alcotest.test_case "bsd: 1000 records, <= 40 words each" `Quick (footprint bsd);
    Alcotest.test_case "linux: 1000 records, <= 40 words each" `Quick (footprint linux);
    Alcotest.test_case "bsd: simultaneous close, ACK lost once" `Quick (simultaneous_close bsd);
    Alcotest.test_case "linux: simultaneous close, ACK lost once" `Quick
      (simultaneous_close linux);
    Alcotest.test_case "bsd: CLOSE_WAIT ACKs a re-FIN" `Quick (re_fin_live bsd ~last_ack:false);
    Alcotest.test_case "linux: CLOSE_WAIT ACKs a re-FIN" `Quick (re_fin_live linux ~last_ack:false);
    Alcotest.test_case "bsd: LAST_ACK ACKs a re-FIN" `Quick (re_fin_live bsd ~last_ack:true);
    Alcotest.test_case "linux: LAST_ACK ACKs a re-FIN" `Quick (re_fin_live linux ~last_ack:true) ]
