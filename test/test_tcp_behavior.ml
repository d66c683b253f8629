(* TCP behaviour under adversity: packet loss, retransmission, fast
   retransmit, connection refusal, listen backlog, RST handling,
   simultaneous close — on the FreeBSD stack over the simulated wire. *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

(* Two monolithic FreeBSD hosts on a fresh testbed, A at [net].1 and B
   at [net].2: the rig of the suites that drive the BSD stack directly. *)
type rig = {
  world : World.t;
  wire : Wire.t;
  ha : Clientos.host;
  hb : Clientos.host;
  sa : Bsd_socket.stack;
  sb : Bsd_socket.stack;
}

let make_rig ?(net = "10.2.0") () =
  let tb = Clientos.make_testbed () in
  let bsd host last = Clientos.freebsd_host host ~ip:(ip (Printf.sprintf "%s.%d" net last)) ~mask in
  let sa = bsd tb.Clientos.host_a 1 in
  let sb = bsd tb.Clientos.host_b 2 in
  { world = tb.Clientos.world; wire = tb.Clientos.wire; ha = tb.Clientos.host_a;
    hb = tb.Clientos.host_b; sa; sb }

let spawn_server rig ?(port = 5001) received done_flag =
  Clientos.spawn rig.hb ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port);
      ok (Bsd_socket.so_listen ls ~backlog:5);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:8192) with
        | 0 ->
            ignore (Bsd_socket.so_close conn);
            done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ())

let spawn_client rig ?(port = 5001) data =
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:port);
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:(Bytes.length data)) in
      ok (Bsd_socket.so_close s))

let test_loss_recovery () =
  let rig = make_rig () in
  (* Drop every 13th frame, both directions: data, ACKs, even SYNs. *)
  let n = ref 0 in
  Wire.set_netem rig.wire
    (Some
       (Netem.of_filter (fun _ ->
         incr n;
         !n mod 13 = 0)));
  let bytes = 200 * 1024 in
  let data = Bytes.init bytes (fun i -> Char.chr ((i * 31) land 0xff)) in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  spawn_server rig received done_flag;
  spawn_client rig data;
  World.run rig.world ~until:(fun () -> !done_flag);
  Alcotest.(check bool) "completed despite loss" true !done_flag;
  Alcotest.(check int) "no bytes lost or duplicated" bytes (Buffer.length received);
  Alcotest.(check string) "content intact" (Digest.to_hex (Digest.bytes data))
    (Digest.to_hex (Digest.bytes (Buffer.to_bytes received)));
  Alcotest.(check bool) "frames were actually dropped" true (Wire.frames_dropped rig.wire > 5);
  let stats = rig.sa.Bsd_socket.tcp.Tcp.stats in
  Alcotest.(check bool) "sender retransmitted" true
    (stats.Tcp.sndrexmitpack + stats.Tcp.fastrexmit > 0)

let test_fast_retransmit_on_single_drop () =
  let rig = make_rig () in
  (* Drop exactly one large data frame mid-flow. *)
  let dropped = ref false in
  let count = ref 0 in
  Wire.set_netem rig.wire
    (Some
       (Netem.of_filter (fun f ->
         if Bytes.length f > 1000 then incr count;
         if !count = 20 && not !dropped then begin
           dropped := true;
           true
         end
         else false)));
  let bytes = 300 * 1024 in
  let data = Bytes.make bytes 'F' in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  spawn_server rig received done_flag;
  spawn_client rig data;
  World.run rig.world ~until:(fun () -> !done_flag);
  Alcotest.(check bool) "completed" true !done_flag;
  Alcotest.(check bool) "single drop happened" true !dropped;
  let stats = rig.sa.Bsd_socket.tcp.Tcp.stats in
  Alcotest.(check bool) "recovered via fast retransmit (no timeout needed)" true
    (stats.Tcp.fastrexmit >= 1);
  Alcotest.(check bool) "receiver saw out-of-order segments" true
    (rig.sb.Bsd_socket.tcp.Tcp.stats.Tcp.rcvoo >= 1)

let test_connection_refused () =
  let rig = make_rig () in
  let result = ref None in
  Clientos.spawn rig.ha (fun () ->
      let s = Bsd_socket.tcp_socket rig.sa in
      result := Some (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:4444));
  World.run rig.world ~until:(fun () -> !result <> None);
  match !result with
  | Some (Error Error.Connrefused) -> ()
  | Some (Ok ()) -> Alcotest.fail "connect to closed port succeeded?"
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | None -> Alcotest.fail "no result"

let test_graceful_close_sequence () =
  let rig = make_rig () in
  let received = Buffer.create 64 in
  let done_flag = ref false in
  spawn_server rig received done_flag;
  let client_states = ref [] and saw_record = ref false and tw_over = ref false in
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let _ = ok (Bsd_socket.so_send s ~buf:(Bytes.of_string "bye") ~pos:0 ~len:3) in
      ok (Bsd_socket.so_close s);
      (* Track the state machine through the close. *)
      let pcb = s.Bsd_socket.pcb and conns = rig.sa.Bsd_socket.tcp.Tcp.conns in
      (* Poll the state machine on the virtual clock (a yield-spin would
         starve the event loop — cooperative threads never preempt).  The
         pcb reads TIME_WAIT from there on; the wait itself is the table's
         record, which 2MSL ends. *)
      let rec watch last =
        let st = pcb.Tcp.t_state in
        if st <> last then client_states := st :: !client_states;
        if conns.Conn_table.tw.Tw_queue.live > 0 then saw_record := true;
        if st = Tcp.Time_wait && !saw_record && Conn_table.is_empty conns then tw_over := true
        else begin
          Kclock.sleep_ns 50_000_000;
          watch st
        end
      in
      watch Tcp.Closed);
  (* Run past the 2MSL timer so TIME_WAIT expires. *)
  World.run rig.world ~until:(fun () -> !done_flag && !tw_over);
  Alcotest.(check bool) "passed through FIN_WAIT" true
    (List.mem Tcp.Fin_wait_1 !client_states || List.mem Tcp.Fin_wait_2 !client_states);
  Alcotest.(check bool) "reached TIME_WAIT, a record in the table" true
    (List.mem Tcp.Time_wait !client_states && !saw_record);
  Alcotest.(check bool) "2MSL left nothing in the table" true !tw_over

let test_backlog_limit () =
  let rig = make_rig () in
  (* A listener with backlog 1 that never accepts: the first connection
     establishes (into the queue); later SYNs are dropped and eventually
     time out on the client side. *)
  Clientos.spawn rig.hb ~name:"lazy-server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:1);
      (* Sleep forever. *)
      Sleep_record.sleep (Sleep_record.create ()));
  let first = ref None and second = ref None in
  Clientos.spawn rig.ha (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s1 = Bsd_socket.tcp_socket rig.sa in
      first := Some (Bsd_socket.so_connect s1 ~dst:(ip "10.2.0.2") ~dport:5001);
      let s2 = Bsd_socket.tcp_socket rig.sa in
      second := Some (Bsd_socket.so_connect s2 ~dst:(ip "10.2.0.2") ~dport:5001));
  World.set_fuel rig.world 3_000_000;
  (try World.run rig.world ~until:(fun () -> !second <> None) with World.Out_of_fuel -> ());
  Alcotest.(check bool) "first connection accepted into backlog" true
    (match !first with Some (Ok ()) -> true | _ -> false);
  Alcotest.(check bool) "second connection failed (queue full)" true
    (match !second with Some (Error _) -> true | _ -> false)

let test_window_flow_control () =
  let rig = make_rig () in
  (* The server accepts but reads nothing for a while: the sender must be
     throttled by the advertised window, not crash or spin. *)
  let release = Sleep_record.create () in
  let received = Buffer.create 1024 in
  let done_flag = ref false in
  Clientos.spawn rig.hb ~name:"slow-server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:2);
      let conn = ok (Bsd_socket.so_accept ls) in
      (* Stall: let the sender fill the 48KB receive buffer. *)
      Sleep_record.sleep release;
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  let bytes = 200 * 1024 in
  let sender_blocked_at = ref 0 in
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let data = Bytes.make bytes 'W' in
      (* After ~2 (virtual) seconds, release the reader. *)
      ignore (Machine.after rig.ha.Clientos.machine 2_000_000_000 (fun () -> Sleep_record.wakeup release));
      sender_blocked_at := Machine.now rig.ha.Clientos.machine;
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:bytes) in
      ok (Bsd_socket.so_close s));
  World.run rig.world ~until:(fun () -> !done_flag);
  Alcotest.(check int) "every byte arrived after unblocking" bytes (Buffer.length received);
  (* The transfer cannot have completed before the reader was released. *)
  Alcotest.(check bool) "flow control held the sender" true
    (World.now rig.world >= 2_000_000_000)

let test_rst_on_abort () =
  let rig = make_rig () in
  let received = Buffer.create 64 in
  let server_err = ref None in
  Clientos.spawn rig.hb ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:2);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 1024 in
      let rec loop () =
        match Bsd_socket.so_recv conn ~buf ~pos:0 ~len:1024 with
        | Ok 0 -> server_err := Some (Ok ())
        | Ok n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
        | Error e -> server_err := Some (Error e)
      in
      loop ());
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let _ = ok (Bsd_socket.so_send s ~buf:(Bytes.of_string "data") ~pos:0 ~len:4) in
      Kclock.sleep_ns 300_000_000 (* let the delayed ACK cycle settle *);
      let _ = Bsd_socket.so_abort s in
      ());
  World.run rig.world ~until:(fun () -> !server_err <> None);
  match !server_err with
  | Some (Error Error.Connreset) -> ()
  | Some (Ok ()) -> Alcotest.fail "server saw clean EOF, expected RST"
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | None -> Alcotest.fail "no outcome"

(* The delayed ACK must survive the timer loops quiescing.  The client
   stack's only pcb is its first connection; when TIME_WAIT expires
   (~4.0 s) the pcb list empties, the 200 ms fast loop stops on its next
   tick and the 500 ms slow loop on its next.  A connection opened
   between those two stops must still get its delayed ACK from a
   restarted fast loop, not leave the peer to recover by retransmit. *)
let delack_after_quiesce ~reconnect_ns =
  let rig = make_rig () in
  let measured = ref None in
  Clientos.spawn rig.hb ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:2);
      let c1 = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 16 in
      ignore (ok (Bsd_socket.so_recv c1 ~buf ~pos:0 ~len:16));
      ok (Bsd_socket.so_close c1);
      let c2 = ok (Bsd_socket.so_accept ls) in
      ignore (ok (Bsd_socket.so_send c2 ~buf:(Bytes.of_string "x") ~pos:0 ~len:1));
      (* Close everything once the client has: the run then ends when
         the last TIME_WAIT expires. *)
      ignore (ok (Bsd_socket.so_recv c2 ~buf ~pos:0 ~len:16));
      ok (Bsd_socket.so_close c2);
      ok (Bsd_socket.so_close ls));
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s1 = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s1 ~dst:(ip "10.2.0.2") ~dport:5001);
      ok (Bsd_socket.so_close s1);
      Kclock.sleep_ns (reconnect_ns - Kclock.now_ns ());
      let s2 = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s2 ~dst:(ip "10.2.0.2") ~dport:5001);
      let buf = Bytes.create 16 in
      ignore (ok (Bsd_socket.so_recv s2 ~buf ~pos:0 ~len:16));
      (* Long enough for the peer's retransmit timer, were the ACK lost. *)
      Kclock.sleep_ns 3_000_000_000;
      measured :=
        Some
          ( rig.sa.Bsd_socket.tcp.Tcp.stats.Tcp.delack,
            rig.sb.Bsd_socket.tcp.Tcp.stats.Tcp.sndrexmitpack );
      ok (Bsd_socket.so_close s2));
  World.run rig.world;
  Test_event.check_tick_wheels_quiescent "client" rig.sa.Bsd_socket.tcp;
  Test_event.check_tick_wheels_quiescent "server" rig.sb.Bsd_socket.tcp;
  Option.get !measured

let test_delack_after_timer_quiesce () =
  (* 3.9 s: before TIME_WAIT expires; 4.0-4.5 s: inside the gap between
     the two loops stopping; 4.6 s: after both stopped. *)
  List.iter
    (fun ms ->
      let delack, rexmit = delack_after_quiesce ~reconnect_ns:(ms * 1_000_000) in
      Alcotest.(check int) (Printf.sprintf "reconnect at %d ms: delayed ACK sent" ms) 1 delack;
      Alcotest.(check int) (Printf.sprintf "reconnect at %d ms: no retransmit" ms) 0 rexmit)
    [ 3900; 4000; 4050; 4150; 4250; 4350; 4450; 4500; 4600 ]

let test_linux_loss_recovery () =
  (* The Linux stack recovers from loss too (coarser: timer-driven). *)
  let tb = Clientos.make_testbed ~models:("3c59x", "lance") () in
  let n = ref 0 in
  Wire.set_netem tb.Clientos.wire
    (Some
       (Netem.of_filter (fun _ ->
         incr n;
         !n mod 17 = 0)));
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let bytes = 100 * 1024 in
  let data = Bytes.init bytes (fun i -> Char.chr ((i * 13) land 0xff)) in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  Clientos.spawn tb.Clientos.host_b (fun () ->
      let ls = Linux_inet.socket sb in
      Linux_inet.bind sb ls ~port:80;
      Linux_inet.listen sb ls ~backlog:2;
      let conn = ok (Linux_inet.accept sb ls) in
      let buf = Bytes.create 4096 in
      let rec loop () =
        match ok (Linux_inet.recv sb conn ~buf ~pos:0 ~len:4096) with
        | 0 -> done_flag := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  Clientos.spawn tb.Clientos.host_a (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Linux_inet.socket sa in
      ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:80);
      let _ = ok (Linux_inet.send sa s ~buf:data ~pos:0 ~len:bytes) in
      Linux_inet.close sa s);
  Clientos.run tb ~until:(fun () -> !done_flag);
  Alcotest.(check string) "content intact under loss" (Digest.to_hex (Digest.bytes data))
    (Digest.to_hex (Digest.bytes (Buffer.to_bytes received)));
  Alcotest.(check bool) "linux retransmitted" true (sa.Linux_inet.rexmits > 0)

(* A reset connection stops retransmitting.  A FreeBSD receiver that never
   reads aborts its connection at 2 ms with a Linux sender's data still
   unacknowledged; the RST must retire the closed sock's retransmission
   queue, so that over the next two minutes the sock neither resends a
   frame nor gives the connection up a second time. *)
let test_linux_rst_stops_rexmt () =
  let tb = Clientos.make_testbed ~models:("3c59x", "tulip") () in
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let aborted = ref false and send_result = ref None in
  Clientos.spawn tb.Clientos.host_b (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind ls ~port:80);
      ok (Bsd_socket.so_listen ls ~backlog:2);
      let conn = ok (Bsd_socket.so_accept ls) in
      Kclock.sleep_ns (2_000_000 - Kclock.now_ns ());
      ok (Bsd_socket.so_abort conn);
      aborted := true);
  let sock = ref None in
  Clientos.spawn tb.Clientos.host_a (fun () ->
      let s = Linux_inet.socket sa in
      sock := Some s;
      ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:80);
      let data = Bytes.make (256 * 1024) 'r' in
      send_result := Some (Linux_inet.send sa s ~buf:data ~pos:0 ~len:(Bytes.length data)));
  Clientos.run tb ~until:(fun () -> World.now tb.Clientos.world >= 120_000_000_000);
  Alcotest.(check bool) "the receiver aborted" true !aborted;
  (match !send_result with
  | Some (Error Error.Connreset) -> ()
  | Some (Ok n) -> Alcotest.failf "send returned %d, expected ECONNRESET" n
  | Some (Error e) -> Alcotest.failf "send failed with %s" (Error.to_string e)
  | None -> Alcotest.fail "send never returned");
  let s = Option.get !sock in
  Alcotest.(check bool) "the sock is closed" true (s.Linux_inet.state = Linux_inet.Closed);
  Alcotest.(check int) "nothing held for retransmission" 0 (Queue.length s.Linux_inet.rexmt_q);
  Alcotest.(check int) "no retransmission after the reset" 0 sa.Linux_inet.rexmits;
  Alcotest.(check int) "no give-up after the reset" 0 sa.Linux_inet.rexmt_give_ups

(* Under the paper profile (no sendfile), a connection aborted with
   unacknowledged data in its send buffer gives the buffer's clusters back
   to the mbuf cluster pool.  Every frame from the sender is dropped once
   the handshake is done, so the data stays unacknowledged. *)
let test_bsd_abort_returns_clusters () =
  Cost.with_config (Cost.paper ()) @@ fun () ->
  let rig = make_rig () in
  let cut = ref false in
  Wire.set_netem rig.wire (Some (Netem.of_filter (fun _ -> !cut)));
  spawn_server rig (Buffer.create 16) (ref false);
  let outcome = ref None in
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      cut := true;
      let data = Bytes.make 8192 'u' in
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:(Bytes.length data)) in
      let held = s.Bsd_socket.pcb.Tcp.snd_buf.Sockbuf.sb_cc in
      let kept = Bpool.kept Mbuf.clust_pool in
      ok (Bsd_socket.so_abort s);
      outcome := Some (held, Bpool.kept Mbuf.clust_pool - kept));
  World.run rig.world ~until:(fun () -> !outcome <> None);
  let held, returned = Option.get !outcome in
  Alcotest.(check int) "the send buffer held the unacknowledged data" 8192 held;
  Alcotest.(check bool)
    (Printf.sprintf "%d clusters returned to the pool, at least %d" returned
       (held / Mbuf.mclbytes))
    true
    (returned >= held / Mbuf.mclbytes)

(* ---- TCP_NOPUSH: a corked BSD connection ---- *)

(* The TCP header and payload length of an Ethernet/IPv4 frame. *)
let tcp_of_frame f =
  let len = Bytes.length f - 14 in
  if len < 0 || Bytes.get_uint16_be f 12 <> 0x0800 then None
  else
    match Codec.parse_ip f ~off:14 ~len with
    | Some ip when ip.Codec.proto = 6 ->
        Option.map
          (fun h -> h, ip.Codec.total - ip.Codec.ihl - h.Codec.hlen)
          (Codec.parse_tcp f ~off:(14 + ip.Codec.ihl) ~len:(ip.Codec.total - ip.Codec.ihl))
    | _ -> None

(* Tap [wire] for the TCP segments sent from port [sport]: the result
   lists them so far, as (flags, payload bytes) in send order.  [lose]
   sees each one's payload size and says whether the wire drops it. *)
let tap_segments ?(lose = fun _ -> false) wire ~sport =
  let segs = ref [] in
  Wire.set_netem wire
    (Some
       (Netem.of_filter (fun f ->
            match tcp_of_frame f with
            | Some (h, plen) when h.Codec.sport = sport ->
                segs := (h.Codec.flags, plen) :: !segs;
                lose plen
            | _ -> false)));
  fun () -> List.rev !segs

(* A server on B whose listener is corked, and set TCP_NODELAY as the
   httpd's is, before it accepts: [script]
   runs on the accepted connection with [sent], B's segments so far (see
   [tap_segments]), and [lose], which makes the wire drop B's next n data
   segments.  The client on A reads to EOF.  Returns whether the accepted
   connection was born corked and the bytes the client received. *)
let corked_server ?(syn_defense = false) script =
  Cost.with_config { Cost.config with Cost.syn_defense } @@ fun () ->
  let rig = make_rig () in
  let to_lose = ref 0 in
  let sent =
    tap_segments rig.wire ~sport:5001 ~lose:(fun plen ->
        plen > 0 && !to_lose > 0
        && begin
             decr to_lose;
             true
           end)
  in
  let born_corked = ref false and received = Buffer.create 4096 and eof = ref false in
  Clientos.spawn rig.hb ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      Bsd_socket.so_set_nopush ls true;
      Bsd_socket.so_set_nodelay ls true;
      ok (Bsd_socket.so_listen ls ~backlog:2);
      let conn = ok (Bsd_socket.so_accept ls) in
      born_corked := conn.Bsd_socket.pcb.Tcp.t_nopush;
      script conn ~sent ~lose:(fun n -> to_lose := n));
  Clientos.spawn rig.ha ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Bsd_socket.so_recv s ~buf ~pos:0 ~len:8192) with
        | 0 ->
            ok (Bsd_socket.so_close s);
            eof := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  World.run rig.world ~until:(fun () -> !eof);
  !born_corked, Buffer.contents received

let send_all conn n =
  ignore (ok (Bsd_socket.so_send conn ~buf:(Bytes.make n 'k') ~pos:0 ~len:n))

(* The payload sizes of the data-carrying segments among [segs]. *)
let data_sizes segs = List.filter_map (fun (_, n) -> if n > 0 then Some n else None) segs

let mss = Cost.config.Cost.tcp_mss

let test_nopush_holds_tail () =
  let tail = 80 in
  let born, got =
    corked_server (fun conn ~sent ~lose:_ ->
        send_all conn ((2 * mss) + tail);
        (* A second is five slow ticks: long past any delayed ACK. *)
        Kclock.sleep_ns 1_000_000_000;
        Alcotest.(check (list int)) "full segments flow, the tail is held" [ mss; mss ]
          (data_sizes (sent ()));
        Bsd_socket.so_set_nopush conn false;
        Alcotest.(check (list int)) "the uncork sends the tail as one segment"
          [ mss; mss; tail ] (data_sizes (sent ()));
        ok (Bsd_socket.so_close conn))
  in
  Alcotest.(check bool) "the accepted connection was born corked" true born;
  Alcotest.(check int) "every byte arrived" ((2 * mss) + tail) (String.length got)

(* Close while corked: the reply and the FIN leave as one segment. *)
let nopush_close_carries_fin syn_defense () =
  let born, got =
    corked_server ~syn_defense (fun conn ~sent ~lose:_ ->
        send_all conn 1000;
        Kclock.sleep_ns 10_000_000;
        Alcotest.(check (list int)) "the sub-MSS reply is held" [] (data_sizes (sent ()));
        ok (Bsd_socket.so_close conn);
        Alcotest.(check bool) "it leaves with the FIN" true
          (List.exists
             (fun (flags, n) -> n = 1000 && flags land Tcp.th_fin <> 0)
             (sent ()));
        Alcotest.(check int) "in the one data segment" 1 (List.length (data_sizes (sent ()))))
  in
  Alcotest.(check bool) "the accepted connection inherits the listener's cork" true born;
  Alcotest.(check int) "every byte arrived" 1000 (String.length got)

(* A flight whose two segments are both lost is resent while corked: the
   sub-MSS second one is a retransmission (snd_nxt behind snd_max), never
   held, so it goes out once the first one's ACK opens the window — not
   on a second timeout. *)
let test_nopush_retransmits_tail () =
  let tail = 80 in
  let resent = ref 0 and timeouts = ref 0 in
  let _, got =
    corked_server (fun conn ~sent ~lose ->
        lose 2;
        send_all conn (mss + tail);
        Bsd_socket.so_set_nopush conn false;
        Bsd_socket.so_set_nopush conn true;
        Alcotest.(check (list int)) "the flight left" [ mss; tail ] (data_sizes (sent ()));
        Kclock.sleep_ns 5_000_000_000;
        resent := List.length (data_sizes (sent ())) - 2;
        timeouts := conn.Bsd_socket.st.Bsd_socket.tcp.Tcp.stats.Tcp.sndrexmitpack;
        ok (Bsd_socket.so_close conn))
  in
  Alcotest.(check int) "both segments were resent" 2 !resent;
  Alcotest.(check int) "after one retransmission timeout" 1 !timeouts;
  Alcotest.(check int) "every byte arrived" (mss + tail) (String.length got)

(* ---- Segment rules: each donor's Nagle and silly-window test ---- *)

(* A [sender] host on B serves one connection, running [serve] on it with
   [sent], B's segments so far (see [tap_segments]); a [receiver] host on
   A connects and runs [client].  Each side closes when its script
   returns.  Returns [sent]. *)
let segment_pair ?(receiver = Endpoint.Freebsd) ~sender ~serve ~client () =
  let tb = Clientos.make_testbed () in
  let a, b = Endpoint.pair tb ~a:receiver ~b:sender in
  let sent = tap_segments tb.Clientos.wire ~sport:Endpoint.port in
  let served = ref false and finished = ref false in
  Clientos.spawn b.Endpoint.host ~name:"sender" (fun () ->
      let accept = b.Endpoint.listen ~port:Endpoint.port ~backlog:1 in
      let c = ok (accept ()) in
      serve c ~sent;
      c.Endpoint.close ();
      served := true);
  Clientos.spawn a.Endpoint.host ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let c = ok (a.Endpoint.connect ~dst:Endpoint.addr_b ~port:Endpoint.port) in
      client c;
      c.Endpoint.close ();
      finished := true);
  Clientos.run tb ~until:(fun () -> !served && !finished);
  Alcotest.(check bool) "both sides finished" true (!served && !finished);
  sent

let send_n (c : Endpoint.conn) n = ignore (ok (c.send ~buf:(Bytes.make n 's') ~pos:0 ~len:n))

(* Read [n] bytes, or to EOF when [n] is negative; returns the count. *)
let read_n (c : Endpoint.conn) n =
  let buf = Bytes.create 8192 in
  let rec loop got =
    if n >= 0 && got >= n then got
    else
      match ok (c.recv ~buf ~pos:0 ~len:(if n < 0 then 8192 else min 8192 (n - got))) with
      | 0 -> got
      | k -> loop (got + k)
  in
  loop 0

(* A ttcp-shaped stream, 4 KB writes, must leave in full segments: every
   data segment carries [seg] bytes but the transfer's last. *)
let check_full_segments ~seg sizes ~bytes =
  Alcotest.(check int) "every byte sent once" bytes (List.fold_left ( + ) 0 sizes);
  let rec body = function [] | [ _ ] -> [] | n :: rest -> n :: body rest in
  Alcotest.(check (list int)) "every data segment but the last is full"
    (List.map (fun _ -> seg) (body sizes)) (body sizes)

let bulk_stream ~sender ~blocks =
  let got = ref 0 in
  let sent =
    segment_pair ~sender
      ~serve:(fun c ~sent:_ ->
        for _ = 1 to blocks do
          send_n c 4096
        done)
      ~client:(fun c -> got := read_n c (-1))
      ()
  in
  Alcotest.(check int) "every byte arrived" (blocks * 4096) !got;
  data_sizes (sent ())

let bulk_full_segments sender () =
  check_full_segments ~seg:mss (bulk_stream ~sender ~blocks:64) ~bytes:(64 * 4096)

(* At MSS 8,960 the 48 KB receive buffer holds five segments and 4,352
   bytes.  That remainder is below half the largest window offered
   (24,576), so with segments in flight both donors hold it until an ACK
   makes room for a whole segment (4.4BSD's max_sndwnd / 2 test; 2.0's
   tcp_write builds a full segment when the window's remainder is under
   max_window / 2): no 4,352-byte segment goes out, and the window runs
   five segments full.  Only the first write, a short segment on an idle
   connection, leaves as it is. *)
let jumbo_full_segments sender () =
  Cost.with_config { Cost.config with Cost.tcp_mss = 8960 } @@ fun () ->
  match bulk_stream ~sender ~blocks:64 with
  | first :: rest ->
      Alcotest.(check int) "the first write leaves at once" 4096 first;
      check_full_segments ~seg:8960 rest ~bytes:(63 * 4096)
  | [] -> Alcotest.fail "no data segment"

(* An idle connection sends a short segment at once: a 1-byte request
   and its echo each cross in one wire round trip, never waiting on a
   delayed ACK (a fast tick is 200 ms). *)
let echo_at_once stack () =
  let rtts = ref [] in
  let (_ : unit -> _) =
    segment_pair ~receiver:stack ~sender:stack
      ~serve:(fun c ~sent:_ ->
        for _ = 1 to 3 do
          ignore (read_n c 1);
          send_n c 1
        done)
      ~client:(fun c ->
        for _ = 1 to 3 do
          let t0 = Kclock.now_ns () in
          send_n c 1;
          ignore (read_n c 1);
          rtts := (Kclock.now_ns () - t0) :: !rtts
        done)
      ()
  in
  List.iter
    (fun rtt -> Alcotest.(check bool) "a 1-byte echo takes under 1 ms" true (rtt < 1_000_000))
    !rtts

(* Nagle: a second short write behind unacknowledged data waits for the
   ACK, unless TCP_NODELAY is set. *)
let second_write_waits sender () =
  let run ~nodelay =
    let at_once = ref [] in
    let sent =
      segment_pair ~sender
        ~serve:(fun c ~sent ->
          if nodelay then c.Endpoint.nodelay ();
          send_n c 100;
          send_n c 100;
          at_once := data_sizes (sent ()))
        ~client:(fun c -> ignore (read_n c (-1)))
        ()
    in
    !at_once, data_sizes (sent ())
  in
  let held, sent = run ~nodelay:false in
  Alcotest.(check (list int)) "without TCP_NODELAY the second write waits" [ 100 ] held;
  Alcotest.(check (list int)) "and leaves on its own once the first is ACKed" [ 100; 100 ]
    sent;
  let at_once, _ = run ~nodelay:true in
  Alcotest.(check (list int)) "with TCP_NODELAY it leaves at once" [ 100; 100 ] at_once

let suite =
  [ Alcotest.test_case "loss recovery (periodic drops)" `Quick test_loss_recovery;
    Alcotest.test_case "fast retransmit on single drop" `Quick
      test_fast_retransmit_on_single_drop;
    Alcotest.test_case "connection refused" `Quick test_connection_refused;
    Alcotest.test_case "graceful close states" `Quick test_graceful_close_sequence;
    Alcotest.test_case "listen backlog limit" `Quick test_backlog_limit;
    Alcotest.test_case "receive-window flow control" `Quick test_window_flow_control;
    Alcotest.test_case "RST on abort" `Quick test_rst_on_abort;
    Alcotest.test_case "delayed ACK after the timer loops quiesce" `Quick
      test_delack_after_timer_quiesce;
    Alcotest.test_case "linux stack loss recovery" `Quick test_linux_loss_recovery;
    Alcotest.test_case "a reset linux connection stops retransmitting" `Quick
      test_linux_rst_stops_rexmt;
    Alcotest.test_case "an aborted connection returns its clusters" `Quick
      test_bsd_abort_returns_clusters;
    Alcotest.test_case "corked: full segments flow, uncork sends the tail" `Quick
      test_nopush_holds_tail;
    Alcotest.test_case "corked close: reply and FIN in one segment" `Quick
      (nopush_close_carries_fin false);
    Alcotest.test_case "corked syncache close: reply and FIN in one segment" `Quick
      (nopush_close_carries_fin true);
    Alcotest.test_case "corked: a lost tail is retransmitted, not held" `Quick
      test_nopush_retransmits_tail;
    Alcotest.test_case "segments, bsd: a bulk stream sends full MSS" `Quick
      (bulk_full_segments Endpoint.Freebsd);
    Alcotest.test_case "segments, linux: a bulk stream sends full MSS" `Quick
      (bulk_full_segments Endpoint.Linux);
    Alcotest.test_case "segments, bsd: MSS 8960 holds the window's rest" `Quick
      (jumbo_full_segments Endpoint.Freebsd);
    Alcotest.test_case "segments, linux: MSS 8960 holds the window's rest" `Quick
      (jumbo_full_segments Endpoint.Linux);
    Alcotest.test_case "segments, bsd: an idle 1-byte echo is not delayed" `Quick
      (echo_at_once Endpoint.Freebsd);
    Alcotest.test_case "segments, linux: an idle 1-byte echo is not delayed" `Quick
      (echo_at_once Endpoint.Linux);
    Alcotest.test_case "segments, bsd: Nagle holds a second small write" `Quick
      (second_write_waits Endpoint.Freebsd);
    Alcotest.test_case "segments, linux: Nagle holds a second small write" `Quick
      (second_write_waits Endpoint.Linux) ]
