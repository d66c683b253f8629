(* Long-fat-pipe TCP: RFC 1323 window scaling, NewReno recovery, and
   buffer autotuning — plus the flow-control and timer fixes that ride
   with them: the Linux zero-window persist probe, Karn's rule under
   reordering in both stacks, and the TIME_WAIT expiry purge on the
   Linux wall-clock path. *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

(* Run [f] with the long-fat knobs set, restoring them afterwards so the
   rest of the suite keeps the seed-faithful defaults. *)
let with_longfat ?(wscale = true) ?(autotune = true) f =
  Cost.with_config { Cost.config with Cost.tcp_wscale = wscale; tcp_autotune = autotune } f

(* One patterned bulk transfer on [config]'s stack at both ends (the
   stream harness's run, 8 KB sends and receives, connect at 1 ms); the
   result carries the stacks and sockets, so callers can pin estimator
   and flow-control internals. *)
let transfer config ?latency_ns ?netem ?(bytes = 128 * 1024) ?(stall_ns = 0) () =
  Netbench.stream ?latency_ns ?netem
    { Workload.sender = config; receiver = config; bytes; send_chunk = 8192; recv_chunk = 8192;
      delay_ns = 1_000_000; stall_ns }

(* Both ends' stacks, and the sender's socket, on one stack type. *)
let linux_stacks (r : Workload.result) =
  match r.tx.stack, r.rx.stack with
  | Endpoint.Lx a, Endpoint.Lx b -> a, b
  | _ -> Alcotest.fail "not a Linux pair"

let linux_sender (r : Workload.result) =
  match r.tx_sock with
  | Some (Endpoint.Lx_sock s) -> s
  | _ -> Alcotest.fail "no Linux sender socket"

let bsd_sender (r : Workload.result) =
  match r.tx_sock with
  | Some (Endpoint.Bsd_sock s) -> s
  | _ -> Alcotest.fail "no BSD sender socket"

(* ------------------------------------------------------------------ *)
(* Zero-window deadlock: the receiver accepts and then sits on a full
   receive queue for 2.5 s of virtual time.  The seed Linux stack parks
   the sender in [send] forever — no persist timer, and nothing else ever
   speaks — so this test hangs the world (the run ends with the transfer
   incomplete).  With the persist timer the probes keep the conversation
   alive and the transfer completes byte-exact. *)

let test_zero_window_probe_recovers () =
  let r = transfer Endpoint.Linux ~bytes:(192 * 1024) ~stall_ns:2_500_000_000 () in
  Alcotest.(check bool) "transfer completed byte-exact through the stall" true r.byte_exact;
  Alcotest.(check bool) "persist probes fired during the stall" true (r.persist_probes > 0)

(* The probe must not desynchronize sequence space: flags-off transfer with
   a stall plus loss still ends byte-exact, and the peer counts the probe
   bytes as duplicates rather than data. *)
let test_zero_window_probe_is_sequence_neutral () =
  let em = Netem.create ~seed:7 ~policy:{ Netem.default_policy with loss = 0.02 } () in
  let r = transfer Endpoint.Linux ~netem:em ~bytes:(128 * 1024) ~stall_ns:2_000_000_000 () in
  let sa, sb = linux_stacks r in
  Alcotest.(check bool) "byte-exact with stall + 2% loss" true r.byte_exact;
  Alcotest.(check bool) "probes fired" true (sa.Linux_inet.persist_probes > 0);
  Alcotest.(check bool) "peer dropped probe bytes as duplicates" true
    (sb.Linux_inet.rcvdup > 0)

(* ------------------------------------------------------------------ *)
(* Karn's rule under reordering: retransmissions happen (loss + delayed
   duplicates), yet the RTT estimators never ingest a sample spanning a
   retransmitted range.  An ambiguous sample would be measured against
   the ~300 ms RTO instead of the ~2 ms path RTT and blow the smoothed
   estimate up by two orders of magnitude — so pinning srtt to the path
   scale after the run pins the rule. *)

let karn_policy =
  { Netem.default_policy with
    loss = 0.03; reorder = 0.15; reorder_delay_ns = 5_000_000 }

let test_karn_reordering_linux () =
  with_longfat (fun () ->
      let em = Netem.create ~seed:11 ~policy:karn_policy () in
      let r = transfer Endpoint.Linux ~latency_ns:1_000_000 ~netem:em ~bytes:(256 * 1024) () in
      let s = linux_sender r in
      Alcotest.(check bool) "byte-exact under loss + reordering" true r.byte_exact;
      Alcotest.(check bool) "retransmissions happened" true (r.rexmits > 0);
      Alcotest.(check bool) "srtt sampled at all" true (s.Linux_inet.srtt_ns > 0);
      (* Path RTT is ~2 ms (+5 ms reorder delay tail); an RTO-ambiguous
         sample is >= 300 ms. *)
      Alcotest.(check bool) "srtt stayed at path scale (no ambiguous sample)" true
        (s.Linux_inet.srtt_ns < 100_000_000))

let test_karn_reordering_bsd () =
  with_longfat (fun () ->
      let em = Netem.create ~seed:13 ~policy:karn_policy () in
      let r = transfer Endpoint.Freebsd ~latency_ns:1_000_000 ~netem:em ~bytes:(256 * 1024) () in
      let s = bsd_sender r in
      Alcotest.(check bool) "byte-exact under loss + reordering" true r.byte_exact;
      Alcotest.(check bool) "retransmissions happened" true (r.rexmits > 0);
      (* t_srtt is in 500 ms slow-timer ticks << 3: a legitimate ~2 ms
         sample rounds to 0-1 ticks; an ambiguous RTO-scale sample is
         >= 2 ticks (16 after the shift). *)
      Alcotest.(check bool) "t_srtt stayed at path scale (no ambiguous sample)" true
        (s.Bsd_socket.pcb.Tcp.t_srtt lsr 3 <= 1))

(* ------------------------------------------------------------------ *)
(* TIME_WAIT expiry on the Linux wall-clock path: the active closer's
   connection must sit in TIME_WAIT as the table's record (still hashed,
   still demuxable) and then be released by the 2 s one-shot — hash
   entry, last-sock cache, and record all purged. *)

let test_linux_time_wait_expiry_purges () =
  let tb = Clientos.make_testbed () in
  let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let client_sock = ref None and closed = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"tw-srv" (fun () ->
      let ls = Linux_inet.socket sb in
      Linux_inet.bind sb ls ~port:6102;
      Linux_inet.listen sb ls ~backlog:1;
      let c = ok (Linux_inet.accept sb ls) in
      let buf = Bytes.create 64 in
      let rec drain () = if ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:64) > 0 then drain () in
      drain ();
      Linux_inet.close sb c;
      Linux_inet.close sb ls);
  Clientos.spawn tb.Clientos.host_a ~name:"tw-cli" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Linux_inet.socket sa in
      client_sock := Some s;
      ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:6102);
      let msg = Bytes.of_string "bye" in
      ignore (ok (Linux_inet.send sa s ~buf:msg ~pos:0 ~len:3));
      (* Active close: FIN first, so this side owns the TIME_WAIT. *)
      Linux_inet.close sa s;
      closed := true);
  Clientos.run tb ~until:(fun () -> !closed);
  let s = Option.get !client_sock in
  let conns = sa.Linux_inet.conns in
  (* Just after close the connection is in (or headed for) TIME_WAIT and
     must still be reachable: a delayed segment from the old incarnation
     has to demux to it, not spawn a RST-generating stranger. *)
  Clientos.run tb ~until:(fun () -> conns.Conn_table.tw.Tw_queue.live > 0);
  let r = List.hd (Tw_queue.to_list conns.Conn_table.tw) in
  Alcotest.(check bool) "the sock left the connection list" true
    (not (List.memq s (Conn_table.to_list conns)));
  Alcotest.(check bool) "the TIME_WAIT record demuxes" true
    (match Conn_table.find conns ~raddr:(ip "10.0.0.2") ~rport:6102 ~lport:s.Linux_inet.lport with
    | Some (Conn_table.Tw r') -> r' == r
    | Some (Conn_table.Live _) | None -> false);
  (* Run the world dry: the 2 s expiry is the last event standing. *)
  Clientos.run tb ~until:(fun () -> false);
  Alcotest.(check bool) "expiry released the record" false r.Tw_queue.tw_queued;
  Alcotest.(check int) "expiry purged the hash" 0
    (Hashtbl.length conns.Conn_table.demux.Demux.tbl);
  Alcotest.(check bool) "expiry purged the last-sock cache" true
    (conns.Conn_table.demux.Demux.last = None);
  Alcotest.(check bool) "expiry emptied the table" true (Conn_table.is_empty conns)

(* ------------------------------------------------------------------ *)
(* Byte-exactness across the RTT x loss grid with scaled windows +
   NewReno on, both stacks.  qcheck picks the corner; every corner must
   deliver the exact byte stream. *)

let prop_grid_byte_exact =
  QCheck.Test.make ~name:"longfat: byte-exact across RTT x loss grid, both stacks"
    ~count:10
    QCheck.(quad (oneofl [ 100; 1_000; 10_000 ]) (oneofl [ 0; 10; 30 ]) bool (int_range 1 1000))
    (fun (rtt_us, loss_pm, linux, seed) ->
      with_longfat (fun () ->
          let latency_ns = max 1_000 (rtt_us * 1000 / 2) in
          let netem =
            if loss_pm = 0 then None
            else
              Some
                (Netem.create ~seed
                   ~policy:
                     { Netem.default_policy with loss = float_of_int loss_pm /. 1000. }
                   ())
          in
          let config = if linux then Endpoint.Linux else Endpoint.Freebsd in
          (transfer config ~latency_ns ?netem ~bytes:(96 * 1024) ()).byte_exact))

(* ------------------------------------------------------------------ *)
(* Autotuning converges to the BDP: at 20 ms RTT on a 100 Mbit wire the
   bandwidth-delay product is 250 KB; starting from the seed defaults
   (32 KB / 48 KB) both stacks must grow their receive buffer past the
   BDP within one bulk transfer, and must not move at all with the knob
   off. *)

let test_autotune_converges_to_bdp () =
  let rtt_ns = 20_000_000 in
  let bdp = rtt_ns / 80 in
  (* Measure the receiver's buffer just before EOF, when the clump
     detector has had the whole transfer to react. *)
  let measure config =
    let r =
      with_longfat (fun () ->
          Netbench.stream ~latency_ns:(rtt_ns / 2)
            { Workload.table1 with
              sender = config; receiver = config; bytes = 4 * 1024 * 1024; send_chunk = 16384;
              delay_ns = 1_000_000 })
    in
    Alcotest.(check bool) (Endpoint.config_name config ^ ": byte-exact") true r.byte_exact;
    r.final_rcv_buf
  in
  let lx = measure Endpoint.Linux and fb = measure Endpoint.Freebsd in
  Alcotest.(check bool)
    (Printf.sprintf "linux receive buffer grew past the BDP (%d >= %d)" lx bdp)
    true (lx >= bdp);
  Alcotest.(check bool)
    (Printf.sprintf "bsd receive buffer grew past the BDP (%d >= %d)" fb bdp)
    true (fb >= bdp)

(* Jumbo frames: with tcp_mss raised to 9000 both stacks must negotiate
   the bigger segment on SYN (MSS option), carry it end to end, and a
   mixed pair must clamp to the smaller side's offer. *)
let test_jumbo_mss () =
  Cost.with_config { Cost.config with Cost.tcp_mss = 9000 } (fun () ->
      with_longfat (fun () ->
          let r = transfer Endpoint.Linux ~bytes:(512 * 1024) () in
          Alcotest.(check bool) "linux: byte-exact at MSS 9000" true r.byte_exact;
          Alcotest.(check int) "linux: negotiated jumbo segment" 9000
            (linux_sender r).Linux_inet.smss;
          let r = transfer Endpoint.Freebsd ~bytes:(512 * 1024) () in
          Alcotest.(check bool) "bsd: byte-exact at MSS 9000" true r.byte_exact;
          Alcotest.(check int) "bsd: negotiated jumbo segment" 9000
            (bsd_sender r).Bsd_socket.pcb.Tcp.t_maxseg))

(* Knob off: buffers must not move, even on a long-fat path. *)
let test_autotune_off_buffers_fixed () =
  let r = transfer Endpoint.Linux ~latency_ns:10_000_000 ~bytes:(512 * 1024) () in
  let _, sb = linux_stacks r in
  Alcotest.(check bool) "flags-off transfer still byte-exact" true r.byte_exact;
  List.iter
    (fun s ->
      Alcotest.(check int) "linux rcv_buf_max untouched" Linux_inet.default_window
        s.Linux_inet.rcv_buf_max)
    (Conn_table.to_list sb.Linux_inet.conns)

let suite =
  [ Alcotest.test_case "zero window: persist probe recovers the transfer" `Quick
      test_zero_window_probe_recovers;
    Alcotest.test_case "zero window: probe is sequence-neutral under loss" `Quick
      test_zero_window_probe_is_sequence_neutral;
    Alcotest.test_case "karn: no ambiguous RTT sample under reordering (linux)" `Quick
      test_karn_reordering_linux;
    Alcotest.test_case "karn (bsd): no ambiguous RTT sample under reordering" `Quick
      test_karn_reordering_bsd;
    Alcotest.test_case "linux TIME_WAIT expiry purges hash, cache, socket list" `Quick
      test_linux_time_wait_expiry_purges;
    QCheck_alcotest.to_alcotest prop_grid_byte_exact;
    Alcotest.test_case "autotuning converges past the BDP in both stacks" `Quick
      test_autotune_converges_to_bdp;
    Alcotest.test_case "jumbo frames: MSS 9000 negotiated and byte-exact" `Quick
      test_jumbo_mss;
    Alcotest.test_case "autotuning off: buffers pinned to seed defaults" `Quick
      test_autotune_off_buffers_fixed ]
