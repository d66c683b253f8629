(* The select/poll reactor: one thread drives any number of readiness
 * sources through the oskit_asyncio COM interface.  Which protocol stack
 * is behind an asyncio view is invisible here — that is the whole point.
 *
 * The reactor is a client of one {!Kqueue.t}: each watch registers a
 * knote, a notification enqueues that knote on the ready queue in O(1),
 * and each pass drains only queued entries — O(ready) per pass no matter
 * how many idle watches exist.  Dispatch order is readiness order.
 *
 * Two races are load-bearing:
 *  - notify-vs-sleep: a listener can fire between the drain and the
 *    sleep.  Sleep_record's latch absorbs it (wakeup while nobody waits is
 *    remembered, and the next sleep consumes it instead of blocking).
 *  - register-vs-ready: the object may already be readable when the watch
 *    is created.  add_listener returns the readiness mask at registration,
 *    and the knote of a ready watch is enqueued immediately.
 *
 * Callbacks run at thread (process) level, never from the notification,
 * so they may block briefly, unwatch themselves or others, rewatch, or
 * add new watches.  Unwatch deletes the knotes (dequeueing them), and the
 * pass looks every drained event up by id and re-checks w_active.
 *)

type watch = {
  w_id : int;
  w_aio : Io_if.asyncio;
  mutable w_mask : int;
  w_cb : int -> unit;
  mutable w_active : bool;
}

type stats = {
  mutable polls : int;  (* aio_poll calls issued by dispatch *)
  mutable dispatches : int;  (* callbacks run *)
  mutable sleeps : int;  (* times the loop blocked *)
  mutable spurious : int;  (* notifications that polled not-ready *)
  mutable visits : int;  (* knotes dequeued: the O(ready) per-pass work *)
}

type t = {
  by_id : (int, watch) Hashtbl.t;
  kq : Kqueue.t;
  mutable next_id : int;
  sleep : Sleep_record.t;
  stats : stats;
}

let create () =
  let sleep = Sleep_record.create ~name:"reactor" () in
  { by_id = Hashtbl.create 64;
    kq = Kqueue.create ~wakeup:(fun () -> Sleep_record.wakeup sleep) ();
    next_id = 1;
    sleep;
    stats = { polls = 0; dispatches = 0; sleeps = 0; spurious = 0; visits = 0 } }

let stats t = t.stats
let watch_count t = Hashtbl.length t.by_id

(* Wake the loop with no condition attached.  Callers use it to make the
   loop re-check [until]; the dispatch pass treats it as spurious. *)
let kick t = Sleep_record.wakeup t.sleep

(* [watch t aio ~mask cb] registers interest: [cb ready] runs from the
   reactor loop whenever a condition in [mask] is ready.  Level-triggered:
   a callback that leaves the object ready is dispatched again on the next
   pass, so it need not drain in one call. *)
let watch t aio ~mask cb =
  let id = t.next_id in
  t.next_id <- id + 1;
  let w = { w_id = id; w_aio = aio; w_mask = mask; w_cb = cb; w_active = true } in
  Hashtbl.replace t.by_id id w;
  ignore (Kqueue.add t.kq ~ident:id ~aio ~filter:mask);
  w

let unwatch t w =
  if w.w_active then begin
    w.w_active <- false;
    Hashtbl.remove t.by_id w.w_id;
    ignore (Kqueue.delete t.kq ~ident:w.w_id ~filter:w.w_mask)
  end

(* Change the interest mask (a connection moving from reading the request
   to writing the response).  Re-registers so the stack-side filter
   matches, and arms immediately if the new condition already holds. *)
let rewatch t w ~mask =
  if w.w_active then begin
    ignore (Kqueue.delete t.kq ~ident:w.w_id ~filter:w.w_mask);
    w.w_mask <- mask;
    ignore (Kqueue.add t.kq ~ident:w.w_id ~aio:w.w_aio ~filter:mask)
  end

(* One pass: drain the ready queue and dispatch every ready watch, or
   block until a notification (or [kick]) arrives.  Returns the number of
   callbacks run.  The level re-arm runs after the callback
   ([Kqueue.relevel]), so a handler that consumed the condition costs no
   spurious round trip. *)
let step t =
  let ks = Kqueue.stats t.kq in
  let d0 = ks.Kqueue.delivered and sp0 = ks.Kqueue.spurious in
  let evs = Kqueue.kevent t.kq ~max:max_int in
  let dequeued = ks.Kqueue.delivered - d0 + (ks.Kqueue.spurious - sp0) in
  t.stats.visits <- t.stats.visits + dequeued;
  t.stats.polls <- t.stats.polls + dequeued;
  t.stats.spurious <- t.stats.spurious + (ks.Kqueue.spurious - sp0);
  match evs with
  | [] ->
      t.stats.sleeps <- t.stats.sleeps + 1;
      Sleep_record.sleep t.sleep;
      0
  | evs ->
      let fired = ref 0 in
      List.iter
        (fun ev ->
          match Hashtbl.find_opt t.by_id ev.Kqueue.ident with
          | Some w when w.w_active ->
              t.stats.dispatches <- t.stats.dispatches + 1;
              incr fired;
              w.w_cb (ev.Kqueue.filter land w.w_mask);
              if w.w_active then
                Kqueue.relevel t.kq ~ident:w.w_id ~filter:ev.Kqueue.filter
          | Some _ | None -> ())
        evs;
      !fired

(* [run t ~until] loops until [until ()] holds.  [until] is re-checked
   after every pass; while the loop is blocked a notification, a [kick],
   or the optional [tick_ns] heartbeat (a simulated-clock callout) gets it
   moving again. *)
let run ?tick_ns t ~until =
  let stopped = ref false in
  (match tick_ns with
  | Some ns ->
      let rec tick () =
        ignore
          (Kclock.callout_after ~ns (fun () ->
               if not !stopped then begin
                 Sleep_record.wakeup t.sleep;
                 tick ()
               end))
      in
      tick ()
  | None -> ());
  let rec loop () =
    if not (until ()) then begin
      ignore (step t);
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> stopped := true) loop
