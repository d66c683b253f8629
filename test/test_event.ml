(* The event core: the timing wheel against a reference scheduler and at
   its horizon, BSD TCP's tick wheels on a stack (fires on a tick
   boundary, on the flow's home CPU, in pcb-list order), kqueue
   level-triggering, coalescing and registration errors, a served httpd
   at quiescence, the World.cancel regression, and the discipline that
   plain timers never touch the new counters. *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

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
   wheel tick T for d ticks, 1 <= d <= 255, is due at tick T + d and fires
   when the wheel reaches that very tick.  Random interleavings of arm /
   cancel / advance must agree with the model at every step. *)

type model_entry = {
  due_tick : int;
  mutable m_fired : bool;
  mutable m_cancelled : bool;
  m_entry : Timewheel.entry;
}

let prop_wheel_model =
  QCheck.Test.make ~name:"timewheel: agrees with reference scheduler" ~count:200
    QCheck.(small_list (triple (int_range 0 2) (int_range 0 600) (int_range 1 255)))
    (fun ops ->
      let w = Timewheel.create () in
      let entries = ref [] in
      let contract_ok = ref true in
      List.iter
        (fun (k, x, ticks) ->
          match k with
          | 0 ->
              let cell = ref None in
              let e =
                Timewheel.arm w ~ticks (fun () ->
                    match !cell with
                    | None -> contract_ok := false
                    | Some me ->
                        if me.m_fired || me.m_cancelled then contract_ok := false;
                        me.m_fired <- true;
                        (* fires at exactly its due tick *)
                        if Timewheel.now w <> me.due_tick then contract_ok := false)
              in
              let me =
                { due_tick = Timewheel.now w + ticks;
                  m_fired = false;
                  m_cancelled = false;
                  m_entry = e }
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
          | _ -> ignore (Timewheel.advance w ~now:(Timewheel.now w + x)))
        ops;
      (* flush everything still armed *)
      ignore (Timewheel.advance w ~now:(Timewheel.now w + 256));
      !contract_ok
      && List.for_all
           (fun me ->
             if me.m_cancelled then not me.m_fired
             else me.m_fired && me.due_tick <= Timewheel.now w)
           !entries
      && Timewheel.armed w = 0)

(* ---- the wheel's horizon: 255 ticks is the longest delay ---- *)

let test_wheel_horizon () =
  let w = Timewheel.create () in
  (* Start off slot 0, so the 255-tick entry's slot wraps. *)
  ignore (Timewheel.advance w ~now:10);
  let fired_at = ref None in
  ignore (Timewheel.arm w ~ticks:255 (fun () -> fired_at := Some (Timewheel.now w)));
  ignore (Timewheel.advance w ~now:264);
  Alcotest.(check (option int)) "not fired a tick early" None !fired_at;
  ignore (Timewheel.advance w ~now:400);
  Alcotest.(check (option int)) "fired on exactly its tick" (Some 265) !fired_at;
  List.iter
    (fun ticks ->
      match Timewheel.arm w ~ticks (fun () -> ()) with
      | _ -> Alcotest.failf "a delay of %d ticks was armed" ticks
      | exception Invalid_argument _ -> ())
    [ 256; 0 ];
  Alcotest.(check int) "nothing left armed" 0 (Timewheel.armed w)

(* ---- BSD TCP's tick wheels, on a stack ---- *)

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
  Wire.set_netem tb.Clientos.wire
    (Some
       (Netem.of_filter (fun f ->
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
         | _ -> false)));
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
  Alcotest.(check int) "client pcb's home CPU" home (pcb_of sa).Tcp.conn.Conn_table.home;
  Alcotest.(check int) "server pcb's home CPU" home (pcb_of sb).Tcp.conn.Conn_table.home;
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

(* On 2 CPUs, a connection homed on CPU 1, which nothing else wakes: its
   SYNs are lost, and the retransmit fires on a tick of the slow loop,
   which runs on CPU 0.  The fire runs on CPU 1 with that CPU's clock
   brought up to the tick's time, so the retransmitted SYN is charged at
   or after world time, not at the idle CPU's stale clock. *)
let test_tick_fire_on_idle_cpu () =
  with_bsd_pair ~ncpus:2 @@ fun tb sa _ ->
  let home = 1 in
  let rec pick p =
    if Rss.cpu_of_flow ~ncpus:2 ~proto:6 ~addr_a ~port_a:p ~addr_b ~port_b:5001 = home
    then p
    else pick (p + 1)
  in
  let syns = ref [] in
  Wire.set_netem tb.Clientos.wire
    (Some
       (Netem.of_filter (fun f ->
         match tcp_of_frame f, Machine.current () with
         | Some (src, _, _, _), Some m when Int32.equal src addr_a ->
             syns := (Machine.cpu m, Machine.now m, World.now tb.Clientos.world) :: !syns;
             true
         | _ -> false)));
  Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
      let s = Bsd_socket.tcp_socket sa in
      net_ok (Bsd_socket.so_bind s ~port:(pick 2000));
      ignore (Bsd_socket.so_connect s ~dst:addr_b ~dport:5001));
  Clientos.run tb ~until:(fun () -> List.length !syns >= 2);
  match List.rev !syns with
  | _ :: (cpu, local, world) :: _ ->
      Alcotest.(check int) "the retransmit runs on the home CPU" home cpu;
      if local < world then
        Alcotest.failf "retransmit charged at %d ns on CPU %d, world time %d ns" local cpu world
  | _ -> Alcotest.fail "no retransmitted SYN"

(* Two connections whose delayed ACKs come due in one fast tick emit in
   pcb-list order, newest first, whichever was armed first.  Returns the
   client ports the two ACKs went to, in wire order. *)
let same_tick_ack_order ~send_first_on_older =
  with_bsd_pair ~ncpus:1 @@ fun tb sa sb ->
  let sent = ref false and acks = ref [] in
  Wire.set_netem tb.Clientos.wire
    (Some
       (Netem.of_filter (fun f ->
         (match tcp_of_frame f with
         | Some (src, _, dport, 0) when !sent && Int32.equal src addr_b ->
             acks := dport :: !acks
         | _ -> ());
         false)));
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

(* ---- the reactor's ready queue: level-triggering, coalescing,
   spurious drops ---- *)

let test_kqueue_level () =
  let r = Reactor.create () in
  let s = Test_asyncio.synthetic () in
  let seen = ref [] in
  let w =
    ok
      (Reactor.watch r s.Test_asyncio.syn_aio ~mask:Io_if.aio_read (fun bit ->
           seen := bit :: !seen))
  in
  (* level: dispatched, and re-queued after the callback while the
     condition holds *)
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "one dispatch" 1 (Reactor.step r);
  Alcotest.(check (list int)) "the watch's callback got the read bit" [ Io_if.aio_read ] !seen;
  Alcotest.(check int) "level re-queued while still ready" 1 (Reactor.queued r);
  s.Test_asyncio.clear ();
  Alcotest.(check int) "consumed-before-dispatch dropped as spurious" 0 (Reactor.step r);
  Alcotest.(check int) "spurious counted" 1 (Reactor.stats r).Reactor.spurious;
  (* coalescing: two notifications, one queue entry *)
  let posted = Cost.counters.Cost.kq_posted and coalesced = Cost.counters.Cost.kq_coalesced in
  s.Test_asyncio.fire Io_if.aio_read;
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "coalesced to one entry" 1 (Reactor.queued r);
  Alcotest.(check int) "post counted" 1 (Cost.counters.Cost.kq_posted - posted);
  Alcotest.(check int) "coalesce counted" 1 (Cost.counters.Cost.kq_coalesced - coalesced);
  s.Test_asyncio.clear ();
  ignore (Reactor.step r);
  Reactor.unwatch w;
  Alcotest.(check int) "deleted" 0 (Reactor.knote_count r);
  Alcotest.(check int) "listener removed from the source" 0 (s.Test_asyncio.listeners ())

(* A source that refuses one condition bit: the watch fails with the
   source's error, and the knote it already added for another bit goes
   too, listener and all; a rewatch it refuses unwatches. *)
let test_kqueue_add_error () =
  let r = Reactor.create () in
  let s = Test_asyncio.synthetic () in
  let aio =
    { s.Test_asyncio.syn_aio with
      Io_if.aio_add_listener =
        (fun l bit ->
          if bit = Io_if.aio_write then Result.Error Error.Nomem
          else s.Test_asyncio.syn_aio.Io_if.aio_add_listener l bit) }
  in
  let refused what = function
    | Result.Error Error.Nomem -> ()
    | Ok _ -> Alcotest.failf "a refused %s was reported as added" what
    | Result.Error e -> Alcotest.failf "%s: wrong error: %s" what (Error.to_string e)
  in
  let nothing_left what =
    Alcotest.(check int) (what ^ ": no watch left") 0 (Reactor.watch_count r);
    Alcotest.(check int) (what ^ ": no knote left") 0 (Reactor.knote_count r);
    Alcotest.(check int)
      (what ^ ": no listener left on the source")
      0 (s.Test_asyncio.listeners ());
    s.Test_asyncio.fire Io_if.aio_read;
    Alcotest.(check int) (what ^ ": nothing queued") 0 (Reactor.queued r)
  in
  let never _ = Alcotest.fail "a refused watch fired" in
  refused "watch" (Reactor.watch r aio ~mask:(Io_if.aio_read lor Io_if.aio_write) never);
  nothing_left "watch";
  (match Reactor.watch r aio ~mask:0 never with
  | Result.Error Error.Inval -> ()
  | _ -> Alcotest.fail "a watch with no condition bit was not refused");
  (* Readable at registration, so the read knote is queued at once. *)
  let w = ok (Reactor.watch r aio ~mask:Io_if.aio_read never) in
  Alcotest.(check int) "read watch queued" 1 (Reactor.queued r);
  refused "rewatch" (Reactor.rewatch w ~mask:(Io_if.aio_read lor Io_if.aio_write));
  nothing_left "rewatch";
  Alcotest.(check bool) "a refused rewatch unwatched" true
    (Reactor.rewatch w ~mask:Io_if.aio_read = Result.Error Error.Inval)

(* ---- readiness conservation: random watch churn over a few sources ----

   Random watch / rewatch / unwatch / fire / clear / step sequences over
   three synthetic sources.  A watch created with [kills] unwatches the
   oldest other live watch from inside its callback, so passes also see
   unwatches of knotes they have already drained.  After every operation:
   each source holds one listener per live (watch, bit) pair, the reactor
   counts the same, and its ready queue holds only live knotes.  No
   callback runs for an unwatched watch, and a step dispatches exactly
   the live (watch, bit) pairs whose source is ready for that bit, each
   once — at most once if the pass unwatched the watch.  At the end,
   unwatching everything leaves no listener and an empty queue. *)

type rwatch = {
  rw_id : int;
  rw_src : int;
  mutable rw_mask : int;
  mutable rw_live : bool;
  mutable rw_handle : Reactor.watch option;
}

let popcount m = List.length (List.filter (fun b -> m land b <> 0) [ 1; 2; 4 ])

let prop_readiness_conserved =
  QCheck.Test.make ~name:"reactor: readiness conserved under churn" ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (quad (int_bound 5) (int_bound 7) (int_bound 7) (int_bound 7)))
    (fun ops ->
      let r = Reactor.create () in
      let srcs = Array.init 3 (fun _ -> Test_asyncio.synthetic ()) in
      let ready = Array.make 3 0 in
      let watches = ref [] (* newest first *) and log = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let live () = List.rev (List.filter (fun w -> w.rw_live) !watches) in
      let handle w = Option.get w.rw_handle in
      let unwatch w =
        w.rw_live <- false;
        Reactor.unwatch (handle w)
      in
      let check_invariants what =
        Array.iteri
          (fun i s ->
            let want =
              List.fold_left
                (fun n w -> if w.rw_src = i then n + popcount w.rw_mask else n)
                0 (live ())
            in
            if s.Test_asyncio.listeners () <> want then
              fail "%s: source %d holds %d listeners, %d live pairs" what i
                (s.Test_asyncio.listeners ()) want)
          srcs;
        let pairs = List.fold_left (fun n w -> n + popcount w.rw_mask) 0 (live ()) in
        if Reactor.knote_count r <> pairs then
          fail "%s: %d knotes, %d live pairs" what (Reactor.knote_count r) pairs;
        if Reactor.watch_count r <> List.length (live ()) then
          fail "%s: %d watches, %d live" what (Reactor.watch_count r) (List.length (live ()));
        List.iter
          (fun kn ->
            let hw = kn.Reactor.kn_watch in
            if
              not
                (kn.Reactor.kn_active
                && List.memq kn hw.Reactor.w_knotes
                && List.exists (fun w -> w.rw_live && handle w == hw) !watches)
            then fail "%s: a dead knote is queued" what)
          (Dlist.to_list r.Reactor.ready)
      in
      List.iteri
        (fun n (kind, a, b, c) ->
          let what = Printf.sprintf "op %d (%d %d %d %d)" n kind a b c in
          (match kind with
          | 0 ->
              let w =
                { rw_id = n; rw_src = a mod 3; rw_mask = 1 + (b mod 7); rw_live = true;
                  rw_handle = None }
              in
              let kills = c >= 6 in
              let cb bit =
                if not w.rw_live then fail "%s: watch %d dispatched after its unwatch" what w.rw_id;
                log := (w.rw_id, bit) :: !log;
                if kills then
                  match List.filter (fun v -> v != w) (live ()) with
                  | v :: _ -> unwatch v
                  | [] -> ()
              in
              let aio = srcs.(w.rw_src).Test_asyncio.syn_aio in
              w.rw_handle <- Some (ok (Reactor.watch r aio ~mask:w.rw_mask cb));
              watches := w :: !watches
          | 1 -> (
              match live () with
              | [] -> ()
              | l ->
                  let w = List.nth l (a mod List.length l) in
                  w.rw_mask <- 1 + (b mod 7);
                  ok (Reactor.rewatch (handle w) ~mask:w.rw_mask))
          | 2 -> (
              match live () with [] -> () | l -> unwatch (List.nth l (a mod List.length l)))
          | 3 ->
              ready.(a mod 3) <- b;
              srcs.(a mod 3).Test_asyncio.fire b
          | 4 ->
              ready.(a mod 3) <- 0;
              srcs.(a mod 3).Test_asyncio.clear ()
          | _ ->
              let expected =
                List.concat_map
                  (fun w ->
                    List.filter_map
                      (fun bit ->
                        if w.rw_mask land bit <> 0 && ready.(w.rw_src) land bit <> 0 then
                          Some (w, bit)
                        else None)
                      [ 1; 2; 4 ])
                  (live ())
              in
              (* A step with nothing queued would block; nothing is due then. *)
              if Reactor.queued r = 0 then begin
                if expected <> [] then fail "%s: a ready pair is not queued" what
              end
              else begin
                log := [];
                let fired = Reactor.step r in
                if fired <> List.length !log then
                  fail "%s: step reports %d, ran %d" what fired (List.length !log);
                let count id bit = List.length (List.filter (( = ) (id, bit)) !log) in
                List.iter
                  (fun (id, bit) ->
                    if not (List.exists (fun (w, b) -> w.rw_id = id && b = bit) expected) then
                      fail "%s: watch %d dispatched bit %d, not ready" what id bit)
                  !log;
                List.iter
                  (fun (w, bit) ->
                    let k = count w.rw_id bit in
                    if k > 1 || (w.rw_live && k <> 1) then
                      fail "%s: watch %d bit %d dispatched %d times" what w.rw_id bit k)
                  expected
              end);
          check_invariants what)
        ops;
      List.iter unwatch (live ());
      check_invariants "after unwatching all";
      Array.iteri
        (fun i s ->
          if s.Test_asyncio.listeners () <> 0 then fail "source %d keeps a listener" i)
        srcs;
      Reactor.queued r = 0)

(* ---- the reactor dispatches through the kqueue ready queue ---- *)

let test_reactor_kq_engine () =
  let r = Reactor.create () in
  let s = Test_asyncio.synthetic () in
  let hits = ref 0 in
  let w =
    ok
      (Reactor.watch r s.Test_asyncio.syn_aio ~mask:Io_if.aio_read (fun _ ->
           incr hits;
           s.Test_asyncio.clear ()))
  in
  s.Test_asyncio.fire Io_if.aio_read;
  ignore (Reactor.step r);
  Alcotest.(check int) "dispatched through the ready queue" 1 !hits;
  Reactor.unwatch w;
  s.Test_asyncio.fire Io_if.aio_read;
  Alcotest.(check int) "unwatch removed the knote" 0
    ((Reactor.stats r).Reactor.dispatches - 1)

(* ---- a served httpd at quiescence ----

   Httpbench's reactor-shaped server on [stack] at [ncpus] CPUs, and four
   clients, each with one HTTP/1.0 request (the server closes) and one
   keep-alive connection of two pipelined requests (the client closes).
   Once every client has closed and 2MSL has passed, nothing the event
   core holds stays behind: reactor 0 holds one watch with one knote (the
   listener's), every other reactor none, every ready queue is empty, and
   the server stack's tick wheels are idle.  Nor does the frame path: the
   server's ifnet holds no burst open and queues no frame, no frame waits
   in any receive queue of either host's card or in any CPU's netisr
   queue, and no NAPI poll is pending (it would keep the card's line
   masked).  Nor does the buffer cache: no block is pinned, and it holds
   at most [max_bufs] buffers.  [rx_batch] > 1 binds the batched glue on
   an OSKit server. *)

let quiescence ?(rx_batch = 1) ~stack ~ncpus () =
  Cost.with_config { Cost.config with Cost.ncpus; http_keepalive = true; rx_batch } @@ fun () ->
  let name =
    Printf.sprintf "%s, %d CPU, rx_batch %d" (Endpoint.config_name stack) ncpus rx_batch
  in
  let quiet = ref false in
  let s =
    Httpbench.serve ~site:Httpbench.index_site ~backlog:16 ~stack ~shape:Httpbench.Reactor
      ~until:(fun () -> !quiet) ()
  in
  let chost = s.Httpbench.client.Endpoint.host and body = s.Httpbench.bodies.(0) in
  let clients = 4 and closed = ref 0 and bad = ref 0 in
  let get v = Printf.sprintf "GET /index.html HTTP/%s\r\nHost: b\r\n\r\n" v in
  for i = 0 to clients - 1 do
    Clientos.spawn chost ~cpu:(i mod ncpus) ~name:(Printf.sprintf "c%d" i) (fun () ->
        Kclock.sleep_ns (3_000_000 + (i * 100_000));
        let c = ok (Httpbench.connect s) in
        Httpbench.send_string c (get "1.0");
        if not (Httpbench.exact_200 (Httpbench.drain c) body) then incr bad;
        c.Endpoint.close ();
        let c = ok (Httpbench.connect s) in
        let next = Httpbench.reader c in
        Httpbench.send_string c (get "1.1" ^ get "1.1");
        for _ = 1 to 2 do
          match next () with
          | Some (hdr, b) when Httpbench.is_200 "1.1" hdr && b = body -> ()
          | _ -> incr bad
        done;
        c.Endpoint.close ();
        incr closed)
  done;
  Clientos.spawn chost ~name:"quiet" (fun () ->
      while !closed < clients do
        Kclock.sleep_ns 10_000_000
      done;
      (* 2MSL, plus a slow tick for the loop's phase and one to spare *)
      Kclock.sleep_ns (((2 * Tcp.msl_ticks) + 2) * Tcp.slow_interval_ns);
      quiet := true);
  Clientos.run s.Httpbench.testbed ~until:(fun () -> !quiet);
  Alcotest.(check int) (name ^ ": every response exact") 0 !bad;
  Array.iteri
    (fun cpu r ->
      let listener = if cpu = 0 then 1 else 0 in
      Alcotest.(check int)
        (Printf.sprintf "%s: reactor %d's watches" name cpu)
        listener (Reactor.watch_count r);
      Alcotest.(check int)
        (Printf.sprintf "%s: reactor %d's knotes" name cpu)
        listener (Reactor.knote_count r);
      Alcotest.(check int)
        (Printf.sprintf "%s: reactor %d's ready queue" name cpu)
        0 (Reactor.queued r))
    s.Httpbench.reactors;
  let cs = Buf.cache_stats s.Httpbench.bufcache in
  Alcotest.(check int) (name ^ ": buffer-cache blocks pinned") 0 cs.Buf.cs_pinned;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d buffers cached, within max_bufs" name cs.Buf.cs_cached)
    true
    (cs.Buf.cs_cached <= s.Httpbench.bufcache.Buf.max_bufs);
  let tb = s.Httpbench.testbed in
  List.iter
    (fun (host : Clientos.host) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: frames left in %s's NIC queues" name
           (Machine.name host.Clientos.machine))
        0
        (Nic.rx_pending host.Clientos.nic);
      let m = host.Clientos.machine in
      let isr = Netisr.for_machine m in
      for cpu = 0 to Machine.ncpus m - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s: frames in %s's netisr queue %d" name (Machine.name m) cpu)
          0 (Netisr.queue_len isr ~cpu)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s's card line masked (a poll pending)" name (Machine.name m))
        false
        (Machine.irq_masked m ~irq:(Nic.irq host.Clientos.nic)))
    [ tb.Clientos.host_a; tb.Clientos.host_b ];
  match s.Httpbench.server.Endpoint.stack with
  | Endpoint.Bsd bsd ->
      check_tick_wheels_quiescent name bsd.Bsd_socket.tcp;
      let ifp = bsd.Bsd_socket.ifp in
      Alcotest.(check bool)
        (name ^ ": the ifnet holds bursts only under the batched glue")
        (stack = Endpoint.Oskit && rx_batch > 1)
        ifp.Netif.if_bursts;
      Alcotest.(check int) (name ^ ": bursts held open") 0 ifp.Netif.if_hold;
      Alcotest.(check int) (name ^ ": frames queued on the ifnet") 0 ifp.Netif.if_snd_len;
      Alcotest.(check bool) (name ^ ": the ifnet's send queue is empty") true (ifp.Netif.if_snd = [])
  | Endpoint.Lx _ -> Alcotest.fail "the quiescence test serves from the BSD stack"

let test_httpd_quiescence () =
  quiescence ~stack:Endpoint.Freebsd ~ncpus:1 ();
  quiescence ~stack:Endpoint.Freebsd ~ncpus:4 ();
  quiescence ~stack:Endpoint.Oskit ~ncpus:1 ();
  quiescence ~stack:Endpoint.Oskit ~ncpus:1 ~rx_batch:8 ();
  quiescence ~stack:Endpoint.Oskit ~ncpus:4 ~rx_batch:8 ()

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
  Alcotest.(check int) "no wheel fires" 0 c.Cost.wheel_fires

let suite =
  [ Alcotest.test_case "World.cancel unlinks immediately" `Quick test_world_cancel;
    QCheck_alcotest.to_alcotest prop_wheel_model;
    Alcotest.test_case "timewheel: 255 fires, 256 raises" `Quick test_wheel_horizon;
    Alcotest.test_case "tcp tick fires on the home CPU" `Quick test_tick_fires_on_home_cpu;
    Alcotest.test_case "tcp same-tick fires in pcb-list order" `Quick
      test_same_tick_fire_order;
    Alcotest.test_case "tcp tick on an idle home CPU: world time" `Quick
      test_tick_fire_on_idle_cpu;
    Alcotest.test_case "kqueue level/coalesce/spurious" `Quick test_kqueue_level;
    Alcotest.test_case "kqueue add: refused bit rolls back" `Quick test_kqueue_add_error;
    Alcotest.test_case "reactor kqueue engine" `Quick test_reactor_kq_engine;
    QCheck_alcotest.to_alcotest prop_readiness_conserved;
    Alcotest.test_case "httpd quiescence: no watch or timer" `Quick test_httpd_quiescence;
    Alcotest.test_case "flags off: new counters untouched" `Quick
      test_flags_off_counters ]
