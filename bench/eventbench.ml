(* Event-core microbench: the complexity curves behind the kqueue
   reactor engine and the timing wheel.

   Both experiments hold the *hot* population fixed (128 ready watches,
   128 due timers) and sweep the *idle* population 10^2..10^5.  The
   claim under test is the one DESIGN.md makes for the event core:
   per-pass work tracks the ready/due set, never the registered set.

   - kqueue reactor: N idle watches + 128 hot ones on synthetic asyncio
     objects; each round fires the hot set and runs one reactor pass.
     The reactor dequeues exactly the fired knotes (O(ready));
     [Reactor.stats.visits] is the deterministic work counter.  The scan
     column is the strawman of (idle + hot) x rounds visits — what a
     registration-order pass over every watch pays (O(watches)).

   - timing wheel: N idle timers parked 129-255 ticks out + 128 timers
     due inside a 128-tick window (BSD TCP's longest deadline); one
     [Timewheel.advance] walks the window.  Wheel work = the entries it
     fires, against the every-tick-scan strawman of armed x ticks visits
     (what the pre-wheel TCP slow tick paid per PCB).  The same run
     checks the timing contract: every timer fires on its own tick. *)

(* ---- synthetic asyncio: exact, driver-free readiness source ---- *)

type synthetic = {
  syn_aio : Io_if.asyncio;
  fire : unit -> unit; (* become readable and notify listeners *)
  clear : unit -> unit; (* consumed: back to not-ready *)
}

let synthetic () =
  let subs = ref [] and next = ref 1 and ready = ref 0 in
  let aio =
    Io_if.asyncio_view
      ~unknown:(fun () -> Com.create (fun _ -> []))
      ~poll:(fun () -> !ready)
      ~add_listener:(fun ~mask f ->
        let id = !next in
        incr next;
        subs := (id, mask, f) :: !subs;
        id)
      ~remove_listener:(fun id -> subs := List.filter (fun (i, _, _) -> i <> id) !subs)
      ()
  in
  { syn_aio = aio;
    fire =
      (fun () ->
        ready := Io_if.aio_read;
        List.iter (fun (_, m, f) -> if m land Io_if.aio_read <> 0 then f Io_if.aio_read) !subs);
    clear = (fun () -> ready := 0) }

type kq_row = {
  kr_idle : int;
  kr_hot : int;
  kr_rounds : int;
  kr_scan_visits : int; (* strawman: every watch examined every pass *)
  kr_kq_visits : int; (* knotes dequeued *)
  kr_dispatches : int; (* callbacks run *)
}

(* One idle population: returns (visits, dispatches, hits). *)
let kq_run ~idle ~hot ~rounds =
  let r = Reactor.create () in
  for _ = 1 to idle do
    let s = synthetic () in
    ignore (Reactor.watch r s.syn_aio ~mask:Io_if.aio_read (fun _ -> ()))
  done;
  let hits = ref 0 in
  let hots = Array.init hot (fun _ -> synthetic ()) in
  Array.iter
    (fun s ->
      ignore
        (Reactor.watch r s.syn_aio ~mask:Io_if.aio_read (fun _ ->
             incr hits;
             s.clear ())))
    hots;
  for _ = 1 to rounds do
    Array.iter (fun s -> s.fire ()) hots;
    ignore (Reactor.step r)
  done;
  let st = Reactor.stats r in
  (st.Reactor.visits, st.Reactor.dispatches, !hits)

let kq_sweep ~idle ~hot ~rounds =
  let kq_visits, kq_disp, kq_hits = kq_run ~idle ~hot ~rounds in
  if kq_hits <> hot * rounds || kq_disp <> hot * rounds then
    failwith "eventbench: the reactor lost a readiness notification";
  { kr_idle = idle;
    kr_hot = hot;
    kr_rounds = rounds;
    kr_scan_visits = (idle + hot) * rounds;
    kr_kq_visits = kq_visits;
    kr_dispatches = kq_disp }

type wheel_row = {
  wr_idle : int;
  wr_hot : int;
  wr_ticks : int; (* window walked by [advance] *)
  wr_fires : int; (* every entry the wheel visited, since it visits only due ones *)
  wr_scan_visits : int; (* strawman: every-tick scan of all armed *)
  wr_early : int; (* fires before their tick (must be 0) *)
  wr_late : int; (* fires after their tick (must be 0) *)
  wr_missed : int; (* due timers that never fired (must be 0) *)
}

(* BSD TCP's longest deadline: its retransmit and persist timers are
   clamped at 128 slow ticks. *)
let wheel_window_ticks = 128

let wheel_run ~idle ~hot =
  let w = Timewheel.create () in
  (* Idle park: 129..255 ticks out, past the advance window and inside
     the wheel's span, so none fire. *)
  for i = 0 to idle - 1 do
    let ticks = wheel_window_ticks + 1 + (i * 389 mod 127) in
    ignore (Timewheel.arm w ~ticks (fun () -> ()))
  done;
  let early = ref 0 and late = ref 0 and fired_hot = ref 0 in
  for i = 0 to hot - 1 do
    let due = 1 + (i * 7 mod wheel_window_ticks) in
    ignore
      (Timewheel.arm w ~ticks:due (fun () ->
           incr fired_hot;
           let at = Timewheel.now w in
           if at < due then incr early;
           if at > due then incr late))
  done;
  (* Walk the window in uneven chunks, the way a live driver would. *)
  let now = ref 0 and fires = ref 0 in
  let chunk = ref 3 in
  while !now < wheel_window_ticks do
    now := min wheel_window_ticks (!now + !chunk);
    chunk := (!chunk * 7 mod 97) + 1;
    fires := !fires + Timewheel.advance w ~now:!now
  done;
  { wr_idle = idle;
    wr_hot = hot;
    wr_ticks = wheel_window_ticks;
    wr_fires = !fires;
    wr_scan_visits = (idle + hot) * wheel_window_ticks;
    wr_early = !early;
    wr_late = !late;
    wr_missed = hot - !fired_hot }

let idle_sweep = [ 100; 1_000; 10_000; 100_000 ]
let hot_set = 128
let kq_rounds = 10
