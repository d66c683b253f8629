(* The event core: hierarchical timing wheel against a reference
   scheduler, cascade boundaries, BSD TCP's tick wheels on a stack (fires
   on a tick boundary, on the flow's home CPU, in pcb-list order), kqueue
   trigger modes and coalescing, the World.cancel regression, and the
   discipline that plain timers never touch the new counters. *)

let ok = function Ok v -> v | Result.Error _ -> Alcotest.fail "unexpected COM error"

(* ---- World.cancel: a cancelled event unlinks immediately ---- *)

let test_world_cancel () =
  let w = World.create () in
  let fired = ref [] in
  let e1 = World.at w 10 (fun () -> fired := 1 :: !fired) in
  let _e2 = World.at w 10 (fun () -> fired := 2 :: !fired) in
  let e3 = World.at w 20 (fun () -> fired := 3 :: !fired) in
  Alcotest.(check int) "three live events" 3 (World.pending w);
  World.cancel e1;
  World.cancel e3;
  World.cancel e3 (* idempotent *);
  Alcotest.(check int) "cancelled events unlink immediately, not at fire time" 1
    (World.pending w);
  World.run w;
  Alcotest.(check (list int)) "only the live event ran" [ 2 ] !fired

(* ---- timing wheel vs reference scheduler ----

   The model mirrors the documented contract exactly: an entry armed at
   wheel tick T for deadline D is due at tick max(ceil(D/g), T+1), and
   fires at the wheel time of that very tick.  Random interleavings of
   arm / cancel / advance must agree with the model at every step. *)

type model_entry = {
  due_tick : int;
  mutable m_fired : bool;
  mutable m_cancelled : bool;
  m_entry : Timewheel.entry;
}

let prop_wheel_model =
  QCheck.Test.make ~name:"timewheel: agrees with reference scheduler" ~count:200
    QCheck.(small_list (triple (int_range 0 2) (int_range 0 70_000) (int_range 1 700)))
    (fun ops ->
      let w = Timewheel.create ~now_ns:0 () in
      let g = Timewheel.granularity_ns w in
      let now = ref 0 and tick = ref 0 in
      let entries = ref [] in
      let contract_ok = ref true in
      List.iter
        (fun (k, x, y) ->
          match k with
          | 0 ->
              (* arm, mid-granule jitter to exercise the ceiling *)
              let deadline_ns = !now + (x * g) + (y * 917) in
              let due =
                let d =
                  if deadline_ns <= 0 then 0 else (deadline_ns + g - 1) / g
                in
                max d (!tick + 1)
              in
              let cell = ref None in
              let e =
                Timewheel.arm w ~deadline_ns (fun () ->
                    match !cell with
                    | None -> contract_ok := false
                    | Some me ->
                        if me.m_fired || me.m_cancelled then contract_ok := false;
                        me.m_fired <- true;
                        (* fires at exactly its due tick's wheel time *)
                        if Timewheel.now_ns w <> me.due_tick * g then
                          contract_ok := false)
              in
              let me =
                { due_tick = due; m_fired = false; m_cancelled = false; m_entry = e }
              in
              cell := Some me;
              entries := me :: !entries
          | 1 -> (
              (* cancel a live entry, if any *)
              let live =
                List.filter (fun me -> not (me.m_fired || me.m_cancelled)) !entries
              in
              match live with
              | [] -> ()
              | _ ->
                  let me = List.nth live (x mod List.length live) in
                  me.m_cancelled <- true;
                  Timewheel.cancel me.m_entry)
          | _ ->
              (* advance *)
              now := !now + (x * g) + y;
              tick := max !tick (!now / g);
              ignore (Timewheel.advance w ~now_ns:!now))
        ops;
      (* flush everything still armed *)
      now := !now + (80_000 * g);
      tick := max !tick (!now / g);
      ignore (Timewheel.advance w ~now_ns:!now);
      !contract_ok
      && List.for_all
           (fun me ->
             if me.m_cancelled then not me.m_fired
             else me.m_fired && me.due_tick <= !tick)
           !entries
      && Timewheel.armed w = 0)

(* ---- cascade boundaries: entries trickle down and fire exactly once ---- *)

let test_cascades () =
  let w = Timewheel.create ~now_ns:0 () in
  let g = Timewheel.granularity_ns w in
  (* Around the level-0/1 boundary, the level-1/2 boundary, and one
     entry deep in level 2: every tier of the cascade path. *)
  let ticks = [ 1; 255; 256; 257; 511; 65_535; 65_536; 65_537; 200_000 ] in
  let fires = ref [] in
  List.iter
    (fun tk ->
      ignore
        (Timewheel.arm w ~deadline_ns:(tk * g) (fun () ->
             fires := (tk, Timewheel.now_ns w) :: !fires)))
    ticks;
  ignore (Timewheel.advance w ~now_ns:(250_000 * g));
  Alcotest.(check int) "every entry fired once" (List.length ticks)
    (List.length !fires);
  List.iter
    (fun (tk, at) ->
      Alcotest.(check int) (Printf.sprintf "entry %d fired on its tick" tk) (tk * g) at)
    !fires;
  Alcotest.(check int) "nothing left armed" 0 (Timewheel.armed w);
  if (Timewheel.stats w).Timewheel.cascades = 0 then
    Alcotest.fail "no cascades happened: boundaries were not exercised"

(* ---- BSD TCP's tick wheels, on a stack ---- *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let addr_a = ip "10.0.0.1"
let addr_b = ip "10.0.0.2"

let net_ok = function
  | Ok v -> v
  | Result.Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Once a stack's last pcb has closed, both tick wheels are empty and no
   due entry waits to fire. *)
let check_tick_wheels_quiescent name (tcp : Tcp.t) =
  Alcotest.(check int) (name ^ ": slow wheel empty") 0 (Timewheel.armed tcp.Tcp.slow_wheel);
  Alcotest.(check int) (name ^ ": fast wheel empty") 0 (Timewheel.armed tcp.Tcp.fast_wheel);
  Alcotest.(check int) (name ^ ": no due entry pending") 0 (List.length tcp.Tcp.due)

(* The TCP view of an Ethernet frame: source address, source and
   destination ports, payload length.  None for anything else. *)
let tcp_of_frame f =
  if Bytes.length f < 54 || Bytes.get_uint16_be f 12 <> 0x0800 || Bytes.get_uint8 f 23 <> 6
  then None
  else begin
    let ihl = (Bytes.get_uint8 f 14 land 0xf) * 4 in
    let th = 14 + ihl in
    let doff = (Bytes.get_uint8 f (th + 12) lsr 4) * 4 in
    Some
      ( Bytes.get_int32_be f 26,
        Bytes.get_uint16_be f th,
        Bytes.get_uint16_be f (th + 2),
        Bytes.get_uint16_be f 16 - ihl - doff )
  end

(* Two FreeBSD hosts with [ncpus] CPUs each, 10.0.0.1 and 10.0.0.2. *)
let with_bsd_pair ~ncpus f =
  Cost.with_config { Cost.config with Cost.ncpus } @@ fun () ->
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "fxp-sim") () in
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:addr_a ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:addr_b ~mask in
  f tb sa sb

(* On 4 CPUs, with the flow's one data segment dropped: the retransmit
   and the peer's delayed ACK each fire on a tick of their stack's loop
   (slow, 500 ms, from the client's connect; fast, 200 ms, from the
   server's listen), on the flow's home CPU.  Between a snapshot taken
   shortly before the tick and the fire's frame, that CPU's busy tally
   grows and no other CPU's does.  The client sends 130 ms after
   connecting and the server's listen leads the connect by 50 ms, so a
   timer counted from the send or the arrival would miss both phases. *)
let test_tick_fires_on_home_cpu () =
  with_bsd_pair ~ncpus:4 @@ fun tb sa sb ->
  let ma = tb.Clientos.host_a.Clientos.machine and mb = tb.Clientos.host_b.Clientos.machine in
  let home = 3 in
  let rec pick p =
    if Rss.cpu_of_flow ~ncpus:4 ~proto:6 ~addr_a ~port_a:p ~addr_b ~port_b:5001 = home
    then p
    else pick (p + 1)
  in
  let cport = pick 2000 in
  let busy m = Array.init 4 (fun cpu -> Machine.cpu_busy_ns m ~cpu) in
  let t_listen = ref 0 and t_connect = ref 0 in
  let before_a = ref [||] and before_b = ref [||] in
  let dropped = ref false in
  let rexmt = ref None and delack = ref None in
  let snapshot m = World.now tb.Clientos.world, Machine.cpu m, busy m in
  Wire.set_fault_injector tb.Clientos.wire
    (Some
       (fun f ->
         match tcp_of_frame f, Machine.current () with
         | Some (src, _, _, len), Some m when len > 0 && Int32.equal src addr_a ->
             if !dropped then (if !rexmt = None then rexmt := Some (snapshot m); false)
             else begin
               dropped := true;
               ignore
                 (World.at tb.Clientos.world (!t_connect + 900_000_000) (fun () ->
                      before_a := busy ma));
               ignore
                 (World.at tb.Clientos.world (!t_listen + 1_150_000_000) (fun () ->
                      before_b := busy mb));
               true
             end
         | Some (src, _, _, 0), Some m
           when Int32.equal src addr_b && !rexmt <> None && !delack = None ->
             delack := Some (snapshot m);
             false
         | _ -> false));
  Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      net_ok (Bsd_socket.so_bind ls ~port:5001);
      t_listen := Kclock.now_ns ();
      net_ok (Bsd_socket.so_listen ls ~backlog:1);
      ignore (net_ok (Bsd_socket.so_accept ls)));
  Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
      Kclock.sleep_ns 50_000_000;
      let s = Bsd_socket.tcp_socket sa in
      net_ok (Bsd_socket.so_bind s ~port:cport);
      t_connect := Kclock.now_ns ();
      net_ok (Bsd_socket.so_connect s ~dst:addr_b ~dport:5001);
      Kclock.sleep_ns 130_000_000;
      ignore (net_ok (Bsd_socket.so_send s ~buf:(Bytes.of_string "x") ~pos:0 ~len:1)));
  Clientos.run tb ~until:(fun () -> !delack <> None);
  let pcb_of (st : Bsd_socket.stack) =
    List.find (fun p -> p.Tcp.t_state = Tcp.Established) (Tcp.pcb_list st.Bsd_socket.tcp)
  in
  Alcotest.(check int) "client pcb's home CPU" home (pcb_of sa).Tcp.home_cpu;
  Alcotest.(check int) "server pcb's home CPU" home (pcb_of sb).Tcp.home_cpu;
  let check what (at, cpu, after) ~loop_start ~period ~before =
    Alcotest.(check int) (what ^ " fired on the home CPU") home cpu;
    let phase = (at - loop_start) mod period in
    if phase > 1_000_000 then
      Alcotest.failf "%s at %d ns: %d ns past a tick of the loop begun at %d ns" what at
        phase loop_start;
    Array.iteri
      (fun c b ->
        if c = home then (if after.(c) <= b then Alcotest.failf "%s: CPU %d stayed idle" what c)
        else Alcotest.(check int) (Printf.sprintf "%s: CPU %d untouched" what c) b after.(c))
      before
  in
  check "retransmit" (Option.get !rexmt) ~loop_start:!t_connect ~period:Tcp.slow_interval_ns
    ~before:!before_a;
  check "delayed ACK" (Option.get !delack) ~loop_start:!t_listen ~period:Tcp.fast_interval_ns
    ~before:!before_b;
  Alcotest.(check int) "one retransmit, counted on the home CPU" 1
    (Tcp.stats_for sa.Bsd_socket.tcp ~cpu:home).Tcp.sndrexmitpack;
  Alcotest.(check int) "one delayed ACK, counted on the home CPU" 1
    (Tcp.stats_for sb.Bsd_socket.tcp ~cpu:home).Tcp.delack

(* Two connections whose delayed ACKs come due in one fast tick emit in
   pcb-list order, newest first, whichever was armed first.  Returns the
   client ports the two ACKs went to, in wire order. *)
let same_tick_ack_order ~send_first_on_older =
  with_bsd_pair ~ncpus:1 @@ fun tb sa sb ->
  let sent = ref false and acks = ref [] in
  Wire.set_fault_injector tb.Clientos.wire
    (Some
       (fun f ->
         (match tcp_of_frame f with
         | Some (src, _, dport, 0) when !sent && Int32.equal src addr_b ->
             acks := dport :: !acks
         | _ -> ());
         false));
  Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      net_ok (Bsd_socket.so_bind ls ~port:5001);
      net_ok (Bsd_socket.so_listen ls ~backlog:2);
      ignore (net_ok (Bsd_socket.so_accept ls));
      ignore (net_ok (Bsd_socket.so_accept ls)));
  Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
      Kclock.sleep_ns 10_000_000;
      let conns =
        List.map
          (fun port ->
            let s = Bsd_socket.tcp_socket sa in
            net_ok (Bsd_socket.so_bind s ~port);
            net_ok (Bsd_socket.so_connect s ~dst:addr_b ~dport:5001);
            s)
          [ 3001; 3002 ]
      in
      Kclock.sleep_ns 50_000_000;
      sent := true;
      List.iter
        (fun s -> ignore (net_ok (Bsd_socket.so_send s ~buf:(Bytes.of_string "x") ~pos:0 ~len:1)))
        (if send_first_on_older then conns else List.rev conns));
  Clientos.run tb ~until:(fun () -> List.length !acks >= 2);
  Alcotest.(check int) "both ACKs were delayed" 2 sb.Bsd_socket.tcp.Tcp.stats.Tcp.delack;
  List.rev !acks

let test_same_tick_fire_order () =
  (* The server registered 3002's pcb after 3001's, so the list visits
     3002 first. *)
  Alcotest.(check (list int)) "older armed first: list order" [ 3002; 3001 ]
    (same_tick_ack_order ~send_first_on_older:true);
  Alcotest.(check (list int)) "newer armed first: list order" [ 3002; 3001 ]
    (same_tick_ack_order ~send_first_on_older:false)

(* ---- kqueue: trigger modes, coalescing, spurious drops ---- *)

let test_kqueue_modes () =
  let kq = Kqueue.create () in
  let s = Test_asyncio.synthetic () in
  ok (Kqueue.add kq ~ident:7 ~aio:s.Test_asyncio.syn_aio ~filter:Io_if.aio_read ~flags:0);
  (* level: reported as long as the condition holds *)
  s.Test_asyncio.fire Io_if.aio_read;
  (match Kqueue.kevent kq ~max:8 with
  | [ ev ] ->
      Alcotest.(check int) "ident" 7 ev.Io_if.ke_ident;
      Alcotest.(check int) "filter" Io_if.aio_read ev.Io_if.ke_filter
  | evs -> Alcotest.failf "level: expected 1 event, got %d" (List.length evs));
  Alcotest.(check int) "level re-queued while still ready" 1 (Kqueue.depth kq);
  s.Test_asyncio.clear ();
  Alcotest.(check int) "consumed-before-dispatch dropped as spurious" 0
    (List.length (Kqueue.kevent kq ~max:8));
  (* coalescing: two notifications, one queue entry *)
  s.Test_asyncio.fire Io_if.aio_read;
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "coalesced to one entry" 1 (Kqueue.depth kq);
  Alcotest.(check int) "coalesce counted" 1 (Kqueue.stats kq).Kqueue.coalesced;
  s.Test_asyncio.clear ();
  ignore (Kqueue.kevent kq ~max:8);
  ok (Kqueue.delete kq ~ident:7 ~filter:Io_if.aio_read);
  Alcotest.(check int) "deleted" 0 (Kqueue.watches kq);
  (* edge: one report per notification, even while still ready *)
  let e = Test_asyncio.synthetic () in
  ok
    (Kqueue.add kq ~ident:8 ~aio:e.Test_asyncio.syn_aio ~filter:Io_if.aio_read
       ~flags:Io_if.ev_clear);
  e.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "edge: delivered" 1 (List.length (Kqueue.kevent kq ~max:8));
  Alcotest.(check int) "edge: no re-queue while still ready" 0
    (List.length (Kqueue.kevent kq ~max:8));
  e.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "edge: next notification delivers again" 1
    (List.length (Kqueue.kevent kq ~max:8));
  (* oneshot: auto-deleted after the first report *)
  let o = Test_asyncio.synthetic () in
  ok
    (Kqueue.add kq ~ident:9 ~aio:o.Test_asyncio.syn_aio ~filter:Io_if.aio_read
       ~flags:Io_if.ev_oneshot);
  o.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "oneshot: delivered" 1 (List.length (Kqueue.kevent kq ~max:8));
  Alcotest.(check int) "oneshot: knote auto-deleted" 1 (Kqueue.watches kq);
  o.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "oneshot: gone after delivery" 0
    (List.length (Kqueue.kevent kq ~max:8))

(* ---- the reactor dispatches through the kqueue ready queue ---- *)

let test_reactor_kq_engine () =
  let r = Reactor.create () in
  let s = Test_asyncio.synthetic () in
  let hits = ref 0 in
  let w =
    Reactor.watch r s.Test_asyncio.syn_aio ~mask:Io_if.aio_read (fun _ ->
        incr hits;
        s.Test_asyncio.clear ())
  in
  s.Test_asyncio.fire Io_if.aio_read;
  ignore (Reactor.step r);
  Alcotest.(check int) "dispatched through the ready queue" 1 !hits;
  Reactor.unwatch r w;
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "unwatch removed the knote" 0
    ((Reactor.stats r).Reactor.dispatches - 1)

(* ---- flags off: the new machinery stays cold ---- *)

let test_flags_off_counters () =
  Cost.reset_counters ();
  (* legacy timer path *)
  let world = World.create () in
  let m = Machine.create world in
  let ticked = ref false in
  ignore (Machine.after m 1_000 (fun () -> ticked := true));
  World.run world;
  Alcotest.(check bool) "legacy timer ran" true !ticked;
  let c = Cost.counters in
  Alcotest.(check int) "no kq posts" 0 c.Cost.kq_posted;
  Alcotest.(check int) "no kq coalesces" 0 c.Cost.kq_coalesced;
  Alcotest.(check int) "no wheel arms" 0 c.Cost.wheel_arms;
  Alcotest.(check int) "no wheel cancels" 0 c.Cost.wheel_cancels;
  Alcotest.(check int) "no wheel cascades" 0 c.Cost.wheel_cascades;
  Alcotest.(check int) "no wheel fires" 0 c.Cost.wheel_fires

let suite =
  [ Alcotest.test_case "World.cancel unlinks immediately" `Quick test_world_cancel;
    QCheck_alcotest.to_alcotest prop_wheel_model;
    Alcotest.test_case "timewheel cascade boundaries" `Quick test_cascades;
    Alcotest.test_case "tcp tick fires on the home CPU" `Quick test_tick_fires_on_home_cpu;
    Alcotest.test_case "tcp same-tick fires in pcb-list order" `Quick
      test_same_tick_fire_order;
    Alcotest.test_case "kqueue level/edge/oneshot/coalesce" `Quick test_kqueue_modes;
    Alcotest.test_case "reactor kqueue engine" `Quick test_reactor_kq_engine;
    Alcotest.test_case "flags off: new counters untouched" `Quick
      test_flags_off_counters ]
