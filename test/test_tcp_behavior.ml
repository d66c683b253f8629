(* TCP behaviour under adversity: packet loss, retransmission, fast
   retransmit, connection refusal, listen backlog, RST handling,
   simultaneous close — on the FreeBSD stack over the simulated wire. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

type rig = {
  world : World.t;
  wire : Wire.t;
  ka : Thread.sched;
  kb : Thread.sched;
  ma : Machine.t;
  mb : Machine.t;
  sa : Bsd_socket.stack;
  sb : Bsd_socket.stack;
}

let fresh = ref 0

let make_rig () =
  incr fresh;
  let w = World.create () in
  let wire = Wire.create w in
  let mk name mac ipaddr =
    let machine = Machine.create ~name:(Printf.sprintf "%s-%d" name !fresh) w in
    let sched = Thread.create_sched machine in
    Thread.install sched;
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
    let stack = Bsd_socket.create_stack machine ~hwaddr:mac ~name in
    Native_if.attach stack nic;
    Bsd_socket.ifconfig stack ~addr:(ip ipaddr) ~mask;
    machine, sched, stack
  in
  let ma, ka, sa = mk "tcp-a" "\x02\x00\x00\x00\x01\x0a" "10.2.0.1" in
  let mb, kb, sb = mk "tcp-b" "\x02\x00\x00\x00\x01\x0b" "10.2.0.2" in
  { world = w; wire; ka; kb; ma; mb; sa; sb }

let spawn_server rig ?(port = 5001) received done_flag =
  Thread.spawn rig.kb ~name:"server" (fun () ->
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
      loop ());
  Machine.kick rig.mb

let spawn_client rig ?(port = 5001) data =
  Thread.spawn rig.ka ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:port);
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:(Bytes.length data)) in
      ok (Bsd_socket.so_close s));
  Machine.kick rig.ma

let test_loss_recovery () =
  let rig = make_rig () in
  (* Drop every 13th frame, both directions: data, ACKs, even SYNs. *)
  let n = ref 0 in
  Wire.set_fault_injector rig.wire
    (Some
       (fun _ ->
         incr n;
         !n mod 13 = 0));
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
  Wire.set_fault_injector rig.wire
    (Some
       (fun f ->
         if Bytes.length f > 1000 then incr count;
         if !count = 20 && not !dropped then begin
           dropped := true;
           true
         end
         else false));
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
  Thread.spawn rig.ka (fun () ->
      let s = Bsd_socket.tcp_socket rig.sa in
      result := Some (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:4444));
  Machine.kick rig.ma;
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
  let client_states = ref [] in
  Thread.spawn rig.ka ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let _ = ok (Bsd_socket.so_send s ~buf:(Bytes.of_string "bye") ~pos:0 ~len:3) in
      ok (Bsd_socket.so_close s);
      (* Track the state machine through the close. *)
      let pcb = s.Bsd_socket.pcb in
      (* Poll the state machine on the virtual clock (a yield-spin would
         starve the event loop — cooperative threads never preempt). *)
      let rec watch last =
        let st = pcb.Tcp.t_state in
        if st <> last then client_states := st :: !client_states;
        if st <> Tcp.Closed then begin
          Kclock.sleep_ns 50_000_000;
          watch st
        end
      in
      watch Tcp.Closed);
  Machine.kick rig.ma;
  (* Run past the 2MSL timer so TIME_WAIT expires. *)
  World.run rig.world ~until:(fun () ->
      !done_flag && List.mem Tcp.Closed !client_states);
  Alcotest.(check bool) "passed through FIN_WAIT" true
    (List.mem Tcp.Fin_wait_1 !client_states || List.mem Tcp.Fin_wait_2 !client_states);
  Alcotest.(check bool) "reached TIME_WAIT then CLOSED" true
    (List.mem Tcp.Time_wait !client_states && List.mem Tcp.Closed !client_states)

let test_backlog_limit () =
  let rig = make_rig () in
  (* A listener with backlog 1 that never accepts: the first connection
     establishes (into the queue); later SYNs are dropped and eventually
     time out on the client side. *)
  Thread.spawn rig.kb ~name:"lazy-server" (fun () ->
      let ls = Bsd_socket.tcp_socket rig.sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:1);
      (* Sleep forever. *)
      Sleep_record.sleep (Sleep_record.create ()));
  Machine.kick rig.mb;
  let first = ref None and second = ref None in
  Thread.spawn rig.ka (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s1 = Bsd_socket.tcp_socket rig.sa in
      first := Some (Bsd_socket.so_connect s1 ~dst:(ip "10.2.0.2") ~dport:5001);
      let s2 = Bsd_socket.tcp_socket rig.sa in
      second := Some (Bsd_socket.so_connect s2 ~dst:(ip "10.2.0.2") ~dport:5001));
  Machine.kick rig.ma;
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
  Thread.spawn rig.kb ~name:"slow-server" (fun () ->
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
  Machine.kick rig.mb;
  let bytes = 200 * 1024 in
  let sender_blocked_at = ref 0 in
  Thread.spawn rig.ka ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let data = Bytes.make bytes 'W' in
      (* After ~2 (virtual) seconds, release the reader. *)
      ignore (Machine.after rig.ma 2_000_000_000 (fun () -> Sleep_record.wakeup release));
      sender_blocked_at := Machine.now rig.ma;
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:bytes) in
      ok (Bsd_socket.so_close s));
  Machine.kick rig.ma;
  World.run rig.world ~until:(fun () -> !done_flag);
  Alcotest.(check int) "every byte arrived after unblocking" bytes (Buffer.length received);
  (* The transfer cannot have completed before the reader was released. *)
  Alcotest.(check bool) "flow control held the sender" true
    (World.now rig.world >= 2_000_000_000)

let test_rst_on_abort () =
  let rig = make_rig () in
  let received = Buffer.create 64 in
  let server_err = ref None in
  Thread.spawn rig.kb ~name:"server" (fun () ->
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
  Machine.kick rig.mb;
  Thread.spawn rig.ka ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket rig.sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let _ = ok (Bsd_socket.so_send s ~buf:(Bytes.of_string "data") ~pos:0 ~len:4) in
      Kclock.sleep_ns 300_000_000 (* let the delayed ACK cycle settle *);
      let _ = Bsd_socket.so_abort s in
      ());
  Machine.kick rig.ma;
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
  Thread.spawn rig.kb ~name:"server" (fun () ->
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
  Machine.kick rig.mb;
  Thread.spawn rig.ka ~name:"client" (fun () ->
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
  Machine.kick rig.ma;
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
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c59x", "lance") () in
  let n = ref 0 in
  Wire.set_fault_injector tb.Clientos.wire
    (Some
       (fun _ ->
         incr n;
         !n mod 17 = 0));
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
    Alcotest.test_case "linux stack loss recovery" `Quick test_linux_loss_recovery ]
