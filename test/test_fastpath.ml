(* The receive fast path: VJ header prediction, the hashed PCB demux, and
   NAPI-style batched RX.  Prediction and batching live behind Cost.config
   flags that default off, so every test here saves and restores them —
   the rest of the suite (and the committed Table 1/2 baselines) must keep
   the paper's charges.  The hashed demux is the stacks' only lookup.

   The load-bearing property is equivalence: with the flags on, the
   stacks must deliver byte-identical streams, including under loss and
   reordering where predicted segments interleave with retransmissions
   that pay the full per-segment charge. *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

(* Flip both fast-path flags around [f], restoring the previous values on
   any exit (the test_sg with_sg_tx discipline). *)
let with_fast ?(batch = 8) f =
  Cost.with_config { Cost.config with Cost.tcp_fastpath = true; rx_batch = batch } f

(* ------------------------------------------------------------------ *)
(* Equivalence: flags on, transfers stay byte-exact under clean wire,
   loss, and reordering — for both the OSKit (COM-glued) and Linux
   senders.  The netem seed, loss rate, and reorder rate are generated;
   loss/reorder up to 3% forces the predicted/slow-path interleave.  The
   OSKit sender's transmit bursts leave nothing held on its interface. *)

let snd_idle (ep : Endpoint.t) =
  match ep.stack with Endpoint.Bsd st -> Test_glue.snd_idle st.Bsd_socket.ifp | Endpoint.Lx _ -> true

let equivalence sender label =
  QCheck.Test.make ~count:5
    ~name:(label ^ ": fastpath byte-exact under loss+reorder")
    QCheck.(triple (int_bound 10_000) (int_bound 30) (int_bound 30))
    (fun (seed, loss_mil, reorder_mil) ->
      with_fast (fun () ->
          let em = Netem.create ~seed () in
          Netem.set_policy em
            { Netem.default_policy with
              loss = float_of_int loss_mil /. 1000.;
              reorder = float_of_int reorder_mil /. 1000.;
              reorder_delay_ns = 400_000 };
          let r = Netbench.stream ~netem:em { Workload.table1 with sender; bytes = 16 * 4096 } in
          r.byte_exact && snd_idle r.tx))

let equivalence_oskit = equivalence Endpoint.Oskit "oskit"
let equivalence_linux = equivalence Endpoint.Linux "linux"

(* Clean in-order transfer with the flags on: byte-exact, the predictor
   actually fires, and nothing falls back (the rtt bench's bound on
   fastpath_fallbacks, pinned here at unit scale). *)
let test_clean_transfer_predicts () =
  with_fast (fun () ->
      let r = Netbench.stream { Workload.table1 with bytes = 32 * 4096 } in
      Alcotest.(check bool) "byte-exact" true r.byte_exact;
      Alcotest.(check bool) "nothing held on the sender's interface" true (snd_idle r.tx);
      Alcotest.(check bool) "prediction fired" true (Cost.counters.Cost.fastpath_hits > 0);
      Alcotest.(check int) "no fallbacks on a clean wire" 0
        Cost.counters.Cost.fastpath_fallbacks;
      Alcotest.(check bool) "batched RX observed" true (Cost.counters.Cost.rx_polls > 0))

(* ------------------------------------------------------------------ *)
(* PCB cache invalidation: when a connection dies (close, TIME_WAIT
   expiry, reset), the hash entry and the one-entry cache must both be
   purged — a stale cache would deliver a new connection's segments to
   a dead pcb. *)

let test_bsd_cache_invalidated_on_close () =
  with_fast (fun () ->
      let { Test_tcp_behavior.world; ha; hb; sa; sb; _ } = Test_tcp_behavior.make_rig () in
      let echoed = ref "" in
      Clientos.spawn hb ~name:"fp-srv" (fun () ->
          let ls = Bsd_socket.tcp_socket sb in
          ok (Bsd_socket.so_bind ls ~port:7777);
          ok (Bsd_socket.so_listen ls ~backlog:1);
          let c = ok (Bsd_socket.so_accept ls) in
          let buf = Bytes.create 64 in
          let n = ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:64) in
          ignore (ok (Bsd_socket.so_send c ~buf ~pos:0 ~len:n));
          ignore (Bsd_socket.so_close c);
          ignore (Bsd_socket.so_close ls));
      Clientos.spawn ha ~name:"fp-cli" (fun () ->
          let s = Bsd_socket.tcp_socket sa in
          ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:7777);
          let msg = Bytes.of_string "ping" in
          ignore (ok (Bsd_socket.so_send s ~buf:msg ~pos:0 ~len:4));
          let buf = Bytes.create 64 in
          let n = ok (Bsd_socket.so_recv s ~buf ~pos:0 ~len:64) in
          echoed := Bytes.sub_string buf 0 n;
          ignore (Bsd_socket.so_close s));
      (* No ~until: run to event exhaustion — the TCP slow timer stops
         ticking once the last pcb (the client's TIME_WAIT) expires, so
         termination itself proves the teardown completed. *)
      World.run world;
      Alcotest.(check string) "echo delivered" "ping" !echoed;
      Alcotest.(check bool) "demux used the cache" true
        (Cost.counters.Cost.pcb_cache_hits > 0);
      Alcotest.(check int) "client hash purged" 0
        (Hashtbl.length sa.Bsd_socket.tcp.Tcp.conns.Conn_table.demux.Demux.tbl);
      Alcotest.(check int) "server hash purged" 0
        (Hashtbl.length sb.Bsd_socket.tcp.Tcp.conns.Conn_table.demux.Demux.tbl);
      Alcotest.(check bool) "client last-pcb cache purged" true
        (sa.Bsd_socket.tcp.Tcp.conns.Conn_table.demux.Demux.last = None);
      Alcotest.(check bool) "server last-pcb cache purged" true
        (sb.Bsd_socket.tcp.Tcp.conns.Conn_table.demux.Demux.last = None);
      Test_event.check_tick_wheels_quiescent "client" sa.Bsd_socket.tcp;
      Test_event.check_tick_wheels_quiescent "server" sb.Bsd_socket.tcp)

let test_linux_cache_invalidated_on_close () =
  with_fast (fun () ->
      let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
      let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let echoed = ref "" in
      Clientos.spawn tb.Clientos.host_b ~name:"fp-srv" (fun () ->
          let ls = Linux_inet.socket sb in
          Linux_inet.bind sb ls ~port:7777;
          Linux_inet.listen sb ls ~backlog:1;
          let c = ok (Linux_inet.accept sb ls) in
          let buf = Bytes.create 64 in
          let n = ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:64) in
          ignore (ok (Linux_inet.send sb c ~buf ~pos:0 ~len:n));
          Linux_inet.close sb c;
          Linux_inet.close sb ls);
      Clientos.spawn tb.Clientos.host_a ~name:"fp-cli" (fun () ->
          Kclock.sleep_ns 1_000_000;
          let s = Linux_inet.socket sa in
          ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:7777);
          let msg = Bytes.of_string "ping" in
          ignore (ok (Linux_inet.send sa s ~buf:msg ~pos:0 ~len:4));
          let buf = Bytes.create 64 in
          let n = ok (Linux_inet.recv sa s ~buf ~pos:0 ~len:64) in
          echoed := Bytes.sub_string buf 0 n;
          Linux_inet.close sa s);
      (* Run to exhaustion: the client's TIME_WAIT is a one-shot timer
         (2 s virtual) whose expiry detaches the last hashed socket. *)
      Clientos.run tb ~until:(fun () -> false);
      Alcotest.(check string) "echo delivered" "ping" !echoed;
      Alcotest.(check bool) "demux used the cache" true
        (Cost.counters.Cost.pcb_cache_hits > 0);
      Alcotest.(check int) "client hash purged" 0
        (Hashtbl.length sa.Linux_inet.conns.Conn_table.demux.Demux.tbl);
      Alcotest.(check int) "server hash purged" 0
        (Hashtbl.length sb.Linux_inet.conns.Conn_table.demux.Demux.tbl);
      Alcotest.(check bool) "client last-sock cache purged" true
        (sa.Linux_inet.conns.Conn_table.demux.Demux.last = None);
      Alcotest.(check bool) "server last-sock cache purged" true
        (sb.Linux_inet.conns.Conn_table.demux.Demux.last = None))

(* ------------------------------------------------------------------ *)
(* UDP rides the same hashed demux; a datagram for a closed port must
   still be counted and answered with ICMP port unreachable. *)

let test_udp_hash_demux_and_unreachable () =
  with_fast (fun () ->
      let { Test_tcp_behavior.world; ha; sa; sb; _ } = Test_tcp_behavior.make_rig () in
      let pcb = Udp.create_pcb sb.Bsd_socket.udp in
      ok (Udp.bind sb.Bsd_socket.udp pcb ~port:7);
      Machine.run_in ha.Clientos.machine (fun () ->
          let upcb = Udp.create_pcb sa.Bsd_socket.udp in
          ignore (Udp.bind sa.Bsd_socket.udp upcb ~port:8);
          Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:7
            ~src:(Bytes.of_string "ping") ~src_pos:0 ~len:4;
          (* And one for a port nobody is listening on. *)
          Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:99
            ~src:(Bytes.of_string "none") ~src_pos:0 ~len:4);
      World.run world;
      Alcotest.(check int) "bound port delivered via hash" 1 (Queue.length pcb.Udp.rcv_q);
      Alcotest.(check int) "closed port counted" 1 sb.Bsd_socket.udp.Udp.noport;
      Alcotest.(check int) "port unreachable sent" 1 sb.Bsd_socket.udp.Udp.unreach_sent;
      Alcotest.(check bool) "hashed lookup exercised" true
        (Cost.counters.Cost.pcb_cache_hits + Cost.counters.Cost.pcb_cache_misses > 0))

(* The paper profile (every flag off) demuxes through the same hash, with
   UDP's hit/miss rule: a datagram to a pcb connected to its source is an
   exact 4-tuple hit; one to a wildcard-bound port is a miss on the exact
   key, then found under the wildcard. *)
let test_paper_profile_hashed_demux () =
  let { Test_tcp_behavior.world; ha; sa; sb; _ } = Test_tcp_behavior.make_rig () in
  let u = sb.Bsd_socket.udp in
  let connected = Udp.create_pcb u and wildcard = Udp.create_pcb u in
  connected.Udp.raddr <- ip "10.2.0.1";
  connected.Udp.rport <- 8;
  ok (Udp.bind u connected ~port:7);
  ok (Udp.bind u wildcard ~port:9);
  let send ~dport =
    Machine.run_in ha.Clientos.machine (fun () ->
        let upcb = Udp.create_pcb sa.Bsd_socket.udp in
        ignore (Udp.bind sa.Bsd_socket.udp upcb ~port:8);
        Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport
          ~src:(Bytes.of_string "ping") ~src_pos:0 ~len:4;
        Udp.detach sa.Bsd_socket.udp upcb);
    World.run world
  in
  send ~dport:7;
  Alcotest.(check int) "delivered to the connected pcb" 1 (Queue.length connected.Udp.rcv_q);
  Alcotest.(check int) "an exact hit" 1 Cost.counters.Cost.pcb_cache_hits;
  Alcotest.(check int) "no miss" 0 Cost.counters.Cost.pcb_cache_misses;
  send ~dport:9;
  Alcotest.(check int) "delivered to the wildcard pcb" 1 (Queue.length wildcard.Udp.rcv_q);
  Alcotest.(check int) "still one hit" 1 Cost.counters.Cost.pcb_cache_hits;
  Alcotest.(check int) "one miss" 1 Cost.counters.Cost.pcb_cache_misses

(* ------------------------------------------------------------------ *)
(* Header prediction chooses a charge and a counter, never a protocol
   action.  With the predicted charge set equal to both stacks' general
   one, turning the knob must move no wire byte and no nanosecond, in any
   configuration, under seeded loss and reordering that interleave
   predicted segments with retransmissions and out-of-order arrivals. *)

let with_equal_charges f =
  let c = Cost.config in
  Cost.with_config
    { c with
      Cost.tcp_fastpath_cycles = c.Cost.bsd_tcp_pkt_cycles;
      linux_tcp_pkt_cycles = c.Cost.bsd_tcp_pkt_cycles }
    f

(* Each run is a fresh testbed whose cards draw fresh MACs: name every
   MAC in the Ethernet and ARP address fields by its host instead. *)
let by_host tb f =
  let host h = Nic.mac h.Clientos.nic in
  let names =
    [ host tb.Clientos.host_a, "\002\000\000\000\000\001";
      host tb.Clientos.host_b, "\002\000\000\000\000\002" ]
  in
  let name off =
    if off + 6 <= Bytes.length f then
      Option.iter
        (fun n -> Bytes.blit_string n 0 f off 6)
        (List.assoc_opt (Bytes.sub_string f off 6) names)
  in
  List.iter name [ 0; 6 ];
  if Bytes.length f >= 14 && Bytes.get_uint16_be f 12 = 0x0806 then List.iter name [ 22; 32 ];
  f

(* Every frame the wire delivered, with its arrival time. *)
let tapped_transfer sender ~seed ~fastpath =
  Cost.with_config { Cost.config with Cost.tcp_fastpath = fastpath } @@ fun () ->
  let em = Netem.create ~seed () in
  Netem.set_policy em
    { Netem.default_policy with loss = 0.02; reorder = 0.02; reorder_delay_ns = 400_000 };
  let frames = ref [] in
  let r =
    Netbench.stream ~netem:em
      ~tap:(fun at f -> frames := (at, f) :: !frames)
      { Workload.table1 with sender; bytes = 16 * 4096 }
  in
  r.byte_exact, List.rev_map (fun (at, f) -> at, by_host r.testbed f) !frames

let test_prediction_only_charges () =
  with_equal_charges (fun () ->
      let hits = ref 0 and fallbacks = ref 0 in
      List.iter
        (fun (sender, label) ->
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s seed %d" label seed in
              let exact_off, off = tapped_transfer sender ~seed ~fastpath:false in
              let exact_on, on = tapped_transfer sender ~seed ~fastpath:true in
              hits := !hits + Cost.counters.Cost.fastpath_hits;
              fallbacks := !fallbacks + Cost.counters.Cost.fastpath_fallbacks;
              Alcotest.(check bool) (name ^ ": byte-exact, knob off") true exact_off;
              Alcotest.(check bool) (name ^ ": byte-exact, knob on") true exact_on;
              Alcotest.(check int) (name ^ ": frame count") (List.length off) (List.length on);
              Alcotest.(check bool) (name ^ ": every frame, byte and time, identical") true
                (List.for_all2 (fun (ta, a) (tb, b) -> ta = tb && Bytes.equal a b) off on))
            [ 1; 2; 3 ])
        Endpoint.[ Oskit, "oskit"; Freebsd, "freebsd"; Linux, "linux" ];
      Alcotest.(check bool) "segments were predicted" true (!hits > 0);
      Alcotest.(check bool) "segments fell back" true (!fallbacks > 0))

(* ------------------------------------------------------------------ *)
(* The NIC ring's burst interface: bounded, FIFO, and draining. *)

let test_nic_rx_burst () =
  let w = World.create () in
  let wire = Wire.create w in
  let ma = Machine.create ~name:"burst-a" w in
  let mb = Machine.create ~name:"burst-b" w in
  let _ = Kernel.create ma and _ = Kernel.create mb in
  let na = Nic.create ~machine:ma ~wire ~mac:"\x02\x00\x00\x00\x00\x01" ~irq:9 () in
  let nb = Nic.create ~machine:mb ~wire ~mac:"\x02\x00\x00\x00\x00\x02" ~irq:9 () in
  ignore na;
  (* No driver opens nb, so no interrupt handler drains it: the five
     frames pile up in the ring, as they would while the CPU is busy. *)
  Machine.run_in ma (fun () ->
      for i = 0 to 4 do
        let f = Bytes.make 64 (Char.chr (Char.code 'a' + i)) in
        Bytes.blit_string "\x02\x00\x00\x00\x00\x02" 0 f 0 6;
        Nic.transmit na f
      done);
  World.run w;
  Alcotest.(check int) "five frames pending" 5 (Nic.rx_pending nb);
  let tag frame = Bytes.get frame 6 in
  let burst = Nic.pop_rx_burst nb ~q:0 ~max:3 in
  Alcotest.(check int) "bounded by the budget" 3 (List.length burst);
  Alcotest.(check (list char)) "oldest first" [ 'a'; 'b'; 'c' ] (List.map tag burst);
  Alcotest.(check int) "two remain" 2 (Nic.rx_pending nb);
  let rest = Nic.pop_rx_burst nb ~q:0 ~max:16 in
  Alcotest.(check (list char)) "drains in order" [ 'd'; 'e' ] (List.map tag rest);
  Alcotest.(check int) "ring empty" 0 (Nic.rx_pending nb);
  Alcotest.(check (list char)) "empty burst" [] (List.map tag (Nic.pop_rx_burst nb ~q:0 ~max:4))

let suite =
  [ QCheck_alcotest.to_alcotest equivalence_oskit;
    QCheck_alcotest.to_alcotest equivalence_linux;
    Alcotest.test_case "clean transfer: predicts, no fallbacks" `Quick
      test_clean_transfer_predicts;
    Alcotest.test_case "bsd: pcb hash+cache purged on close" `Quick
      test_bsd_cache_invalidated_on_close;
    Alcotest.test_case "linux: sock hash+cache purged on close" `Quick
      test_linux_cache_invalidated_on_close;
    Alcotest.test_case "udp: hashed demux + port unreachable" `Quick
      test_udp_hash_demux_and_unreachable;
    Alcotest.test_case "paper profile demuxes through the hash" `Quick
      test_paper_profile_hashed_demux;
    Alcotest.test_case "prediction changes only charges, all configs" `Quick
      test_prediction_only_charges;
    Alcotest.test_case "nic: rx burst bounded, fifo, draining" `Quick test_nic_rx_burst ]
