(* The PR-5 receive fast path: VJ header prediction, hashed PCB demux,
   and NAPI-style batched RX.  All three live behind Cost.config flags
   that default off, so every test here saves and restores them — the
   rest of the suite (and the committed Table 1/2 baselines) must keep
   seeing the unmodified slow paths.

   The load-bearing property is equivalence: with the flags on, the
   stacks must deliver byte-identical streams, including under loss and
   reordering where predicted segments interleave with retransmissions
   that must fall back to the full input path. *)

let ip = Oskit.ip_of_string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("fastpath: " ^ Error.to_string e)

(* Flip all three fast-path flags around [f], restoring the previous
   values on any exit (the test_sg with_sg_tx discipline). *)
let with_fast ?(batch = 8) f =
  let c = Cost.config in
  let fp = c.Cost.tcp_fastpath and ph = c.Cost.pcb_hash and rb = c.Cost.rx_batch in
  c.Cost.tcp_fastpath <- true;
  c.Cost.pcb_hash <- true;
  c.Cost.rx_batch <- batch;
  Fun.protect
    ~finally:(fun () ->
      c.Cost.tcp_fastpath <- fp;
      c.Cost.pcb_hash <- ph;
      c.Cost.rx_batch <- rb)
    f

(* ------------------------------------------------------------------ *)
(* Equivalence: flags on, transfers stay byte-exact under clean wire,
   loss, and reordering — for both the OSKit (COM-glued) and Linux
   senders.  The netem seed, loss rate, and reorder rate are generated;
   loss/reorder up to 3% forces the predicted/slow-path interleave. *)

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
          let exact, _, _, _ =
            Test_netem.run_transfer ~netem:em ~sender ~blocks:16 ~blocksize:4096 ()
          in
          exact))

let equivalence_oskit = equivalence Test_netem.Oskit "oskit"
let equivalence_linux = equivalence Test_netem.Linux "linux"

(* Clean in-order transfer with the flags on: byte-exact, the predictor
   actually fires, and nothing falls back (the CI rttsmoke gate's
   property, pinned here at unit scale). *)
let test_clean_transfer_predicts () =
  with_fast (fun () ->
      let exact, _, _, _ =
        Test_netem.run_transfer ~sender:Test_netem.Oskit ~blocks:32 ~blocksize:4096 ()
      in
      Alcotest.(check bool) "byte-exact" true exact;
      Alcotest.(check bool) "prediction fired" true (Cost.counters.Cost.fastpath_hits > 0);
      Alcotest.(check int) "no fallbacks on a clean wire" 0
        Cost.counters.Cost.fastpath_fallbacks;
      Alcotest.(check bool) "batched RX observed" true (Cost.counters.Cost.rx_polls > 0))

(* ------------------------------------------------------------------ *)
(* PCB cache invalidation: when a connection dies (close, TIME_WAIT
   expiry, reset), the hash entry and the one-entry cache must both be
   purged — a stale cache would deliver a new connection's segments to
   a dead pcb. *)

let mask = ip "255.255.255.0"

let make_bsd_pair () =
  let w = World.create () in
  let wire = Wire.create w in
  let mk name mac ipaddr =
    let machine = Machine.create ~name w in
    let _kern = Kernel.create machine in
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
    let stack = Bsd_socket.create_stack machine ~hwaddr:(Nic.mac nic) ~name in
    Native_if.attach stack nic;
    Bsd_socket.ifconfig stack ~addr:(ip ipaddr) ~mask;
    machine, stack
  in
  let ma, sa = mk "fp-a" "\x02\x00\x00\x00\x00\xaa" "10.2.0.1" in
  let mb, sb = mk "fp-b" "\x02\x00\x00\x00\x00\xbb" "10.2.0.2" in
  w, ma, sa, mb, sb

let test_bsd_cache_invalidated_on_close () =
  with_fast (fun () ->
      Cost.reset_counters ();
      Mbuf.pool_reset ();
      let w, ma, sa, mb, sb = make_bsd_pair () in
      let ka = Thread.create_sched ma and kb = Thread.create_sched mb in
      Thread.install ka;
      Thread.install kb;
      let echoed = ref "" in
      Thread.spawn kb ~name:"fp-srv" (fun () ->
          let ls = Bsd_socket.tcp_socket sb in
          ok (Bsd_socket.so_bind ls ~port:7777);
          ok (Bsd_socket.so_listen ls ~backlog:1);
          let c = ok (Bsd_socket.so_accept ls) in
          let buf = Bytes.create 64 in
          let n = ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:64) in
          ignore (ok (Bsd_socket.so_send c ~buf ~pos:0 ~len:n));
          ignore (Bsd_socket.so_close c);
          ignore (Bsd_socket.so_close ls));
      Thread.spawn ka ~name:"fp-cli" (fun () ->
          let s = Bsd_socket.tcp_socket sa in
          ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:7777);
          let msg = Bytes.of_string "ping" in
          ignore (ok (Bsd_socket.so_send s ~buf:msg ~pos:0 ~len:4));
          let buf = Bytes.create 64 in
          let n = ok (Bsd_socket.so_recv s ~buf ~pos:0 ~len:64) in
          echoed := Bytes.sub_string buf 0 n;
          ignore (Bsd_socket.so_close s));
      Machine.kick mb;
      Machine.kick ma;
      (* No ~until: run to event exhaustion — the TCP slow timer stops
         ticking once the last pcb (the client's TIME_WAIT) expires, so
         termination itself proves the teardown completed. *)
      World.run w;
      Alcotest.(check string) "echo delivered" "ping" !echoed;
      Alcotest.(check bool) "demux used the cache" true
        (Cost.counters.Cost.pcb_cache_hits > 0);
      Alcotest.(check int) "client hash purged" 0
        (Hashtbl.length sa.Bsd_socket.tcp.Tcp.demux.Demux.tbl);
      Alcotest.(check int) "server hash purged" 0
        (Hashtbl.length sb.Bsd_socket.tcp.Tcp.demux.Demux.tbl);
      Alcotest.(check bool) "client last-pcb cache purged" true
        (sa.Bsd_socket.tcp.Tcp.demux.Demux.last = None);
      Alcotest.(check bool) "server last-pcb cache purged" true
        (sb.Bsd_socket.tcp.Tcp.demux.Demux.last = None))

let test_linux_cache_invalidated_on_close () =
  with_fast (fun () ->
      Clientos.reset_globals ();
      Fdev.clear_drivers ();
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
      Alcotest.(check int) "client hash purged" 0 (Hashtbl.length sa.Linux_inet.demux.Demux.tbl);
      Alcotest.(check int) "server hash purged" 0 (Hashtbl.length sb.Linux_inet.demux.Demux.tbl);
      Alcotest.(check bool) "client last-sock cache purged" true
        (sa.Linux_inet.demux.Demux.last = None);
      Alcotest.(check bool) "server last-sock cache purged" true
        (sb.Linux_inet.demux.Demux.last = None))

(* ------------------------------------------------------------------ *)
(* UDP rides the same hashed demux; a datagram for a closed port must
   still be counted and answered with ICMP port unreachable. *)

let test_udp_hash_demux_and_unreachable () =
  with_fast (fun () ->
      Cost.reset_counters ();
      Mbuf.pool_reset ();
      let w, ma, sa, _mb, sb = make_bsd_pair () in
      let pcb = Udp.create_pcb sb.Bsd_socket.udp in
      ok (Udp.bind sb.Bsd_socket.udp pcb ~port:7);
      Machine.run_in ma (fun () ->
          let upcb = Udp.create_pcb sa.Bsd_socket.udp in
          ignore (Udp.bind sa.Bsd_socket.udp upcb ~port:8);
          Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:7
            ~src:(Bytes.of_string "ping") ~src_pos:0 ~len:4;
          (* And one for a port nobody is listening on. *)
          Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:99
            ~src:(Bytes.of_string "none") ~src_pos:0 ~len:4);
      World.run w;
      Alcotest.(check int) "bound port delivered via hash" 1 (Queue.length pcb.Udp.rcv_q);
      Alcotest.(check int) "closed port counted" 1 sb.Bsd_socket.udp.Udp.noport;
      Alcotest.(check int) "port unreachable sent" 1 sb.Bsd_socket.udp.Udp.unreach_sent;
      Alcotest.(check bool) "hashed lookup exercised" true
        (Cost.counters.Cost.pcb_cache_hits + Cost.counters.Cost.pcb_cache_misses > 0))

(* Flags off, the hashed structures are still maintained but never
   consulted: no cache counters move. *)
let test_flags_off_cache_untouched () =
  Cost.reset_counters ();
  Mbuf.pool_reset ();
  let w, ma, sa, _mb, sb = make_bsd_pair () in
  let pcb = Udp.create_pcb sb.Bsd_socket.udp in
  ok (Udp.bind sb.Bsd_socket.udp pcb ~port:7);
  Machine.run_in ma (fun () ->
      let upcb = Udp.create_pcb sa.Bsd_socket.udp in
      ignore (Udp.bind sa.Bsd_socket.udp upcb ~port:8);
      Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:7
        ~src:(Bytes.of_string "ping") ~src_pos:0 ~len:4);
  World.run w;
  Alcotest.(check int) "delivered by the linear scan" 1 (Queue.length pcb.Udp.rcv_q);
  Alcotest.(check int) "no cache hits" 0 Cost.counters.Cost.pcb_cache_hits;
  Alcotest.(check int) "no cache misses" 0 Cost.counters.Cost.pcb_cache_misses

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
  let burst = Nic.pop_rx_burst nb ~max:3 in
  Alcotest.(check int) "bounded by the budget" 3 (List.length burst);
  Alcotest.(check (list char)) "oldest first" [ 'a'; 'b'; 'c' ] (List.map tag burst);
  Alcotest.(check int) "two remain" 2 (Nic.rx_pending nb);
  let rest = Nic.pop_rx_burst nb ~max:16 in
  Alcotest.(check (list char)) "drains in order" [ 'd'; 'e' ] (List.map tag rest);
  Alcotest.(check int) "ring empty" 0 (Nic.rx_pending nb);
  Alcotest.(check (list char)) "empty burst" [] (List.map tag (Nic.pop_rx_burst nb ~max:4))

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
    Alcotest.test_case "flags off: cache counters untouched" `Quick
      test_flags_off_cache_untouched;
    Alcotest.test_case "nic: rx burst bounded, fifo, draining" `Quick test_nic_rx_burst ]
