(* The select/poll reactor: one thread drives any number of readiness
 * sources through the oskit_asyncio COM interface.  Which protocol stack
 * is behind an asyncio view is invisible here — that is the whole point.
 *
 * The reactor is a kqueue in Lemon's shape: a watch owns one knote per
 * condition bit of its mask, each knote holds a COM listener on the
 * source, and a notification puts the knote on the ready queue in O(1)
 * (or coalesces into its queued entry).  Each pass drains only queued
 * knotes — O(ready) per pass no matter how many idle watches exist — and
 * a knote points at its watch, so dispatch needs no lookup.  Dispatch
 * order is readiness order.
 *
 * Knotes are level-triggered, as BSD's default: every dequeue re-polls
 * the source, so a condition consumed between notification and dispatch
 * is dropped as spurious rather than delivered stale, and after the
 * callback a still-true condition re-queues the watch's knote for it, so
 * one hot connection cannot spin the loop inside a pass.
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
 * add new watches.  Unwatch and rewatch retire the old knotes (dequeueing
 * them), and a pass dispatches a drained knote only while it is active.
 *)

type stats = {
  mutable polls : int;  (* aio_poll calls issued by dispatch *)
  mutable dispatches : int;  (* callbacks run *)
  mutable sleeps : int;  (* times the loop blocked *)
  mutable spurious : int;  (* notifications that polled not-ready *)
  mutable visits : int;  (* knotes dequeued: the O(ready) per-pass work *)
}

type knote = {
  kn_watch : watch;
  kn_bit : int;  (* exactly one aio_* bit *)
  kn_listener : Io_if.listener;
  mutable kn_active : bool;  (* false once unwatched or rewatched away *)
  mutable kn_node : knote Dlist.node option;  (* Some while queued *)
}

and watch = {
  w_reactor : t;
  w_aio : Io_if.asyncio;
  mutable w_mask : int;
  w_cb : int -> unit;
  mutable w_active : bool;
  mutable w_knotes : knote list;  (* one per bit of [w_mask], in bit order *)
}

and t = {
  ready : knote Dlist.t;
  sleep : Sleep_record.t;
  mutable watches : int;
  mutable knotes : int;
  stats : stats;
}

let create () =
  { ready = Dlist.create ();
    sleep = Sleep_record.create ~name:"reactor" ();
    watches = 0;
    knotes = 0;
    stats = { polls = 0; dispatches = 0; sleeps = 0; spurious = 0; visits = 0 } }

let stats t = t.stats
let watch_count t = t.watches
let knote_count t = t.knotes
let queued t = Dlist.length t.ready

(* Wake the loop with no condition attached.  Callers use it to make the
   loop re-check [until]; the dispatch pass treats it as spurious. *)
let kick t = Sleep_record.wakeup t.sleep

(* Notification-level entry: O(1), no polling, no blocking. *)
let enqueue kn =
  if kn.kn_active then
    if kn.kn_node <> None then Cost.count_kq_coalesced ()
    else begin
      let t = kn.kn_watch.w_reactor in
      let was_empty = Dlist.is_empty t.ready in
      kn.kn_node <- Some (Dlist.push_back t.ready kn);
      Cost.count_kq_posted ();
      if was_empty then Sleep_record.wakeup t.sleep
    end

let retire kn =
  kn.kn_active <- false;
  Option.iter Dlist.remove kn.kn_node;
  kn.kn_node <- None;
  let w = kn.kn_watch in
  w.w_reactor.knotes <- w.w_reactor.knotes - 1;
  ignore (w.w_aio.Io_if.aio_remove_listener kn.kn_listener)

let bits = [ Io_if.aio_read; Io_if.aio_write; Io_if.aio_exception ]

(* Register one knote per condition bit of [w.w_mask], enqueueing each
   whose condition already holds.  If the source refuses a bit, the
   knotes this call already added go too, and the source's error is
   returned with nothing left registered. *)
let arm w =
  let rec go added = function
    | [] ->
        w.w_knotes <- List.rev added;
        Ok ()
    | bit :: rest -> (
        let self = ref None in
        let l = Io_if.listener_create (fun () -> Option.iter enqueue !self) in
        let kn =
          { kn_watch = w; kn_bit = bit; kn_listener = l; kn_active = true; kn_node = None }
        in
        self := Some kn;
        match w.w_aio.Io_if.aio_add_listener l bit with
        | Result.Error _ as e ->
            List.iter retire added;
            e
        | Ok initial ->
            w.w_reactor.knotes <- w.w_reactor.knotes + 1;
            if initial land bit <> 0 then enqueue kn;
            go (kn :: added) rest)
  in
  match List.filter (fun b -> w.w_mask land b <> 0) bits with
  | [] -> Result.Error Error.Inval
  | bs -> go [] bs

let disarm w =
  List.iter retire w.w_knotes;
  w.w_knotes <- []

(* [watch t aio ~mask cb] registers interest: [cb bit] runs from the
   reactor loop whenever the condition [bit] of [mask] is ready.
   Level-triggered: a callback that leaves the object ready is dispatched
   again on the next pass, so it need not drain in one call.  A mask with
   no condition bit, or a registration the source refuses, returns the
   error and leaves nothing registered. *)
let watch t aio ~mask cb =
  let w =
    { w_reactor = t; w_aio = aio; w_mask = mask; w_cb = cb; w_active = true; w_knotes = [] }
  in
  match arm w with
  | Ok () ->
      t.watches <- t.watches + 1;
      Ok w
  | Result.Error e -> Result.Error e

let unwatch w =
  if w.w_active then begin
    w.w_active <- false;
    w.w_reactor.watches <- w.w_reactor.watches - 1;
    disarm w
  end

(* Change the interest mask (a connection moving from reading the request
   to writing the response): retire the old knotes, then register the new
   mask's, arming at once any whose condition already holds.  A refused
   registration unwatches the watch and returns the source's error. *)
let rewatch w ~mask =
  if not w.w_active then Result.Error Error.Inval
  else begin
    disarm w;
    w.w_mask <- mask;
    match arm w with
    | Ok () -> Ok ()
    | Result.Error _ as e ->
        unwatch w;
        e
  end

(* Post-callback level re-arm: re-queue the watch's knote for [bit] if its
   condition still holds.  That is a fresh knote if the callback
   rewatched, none if the new mask dropped the bit. *)
let relevel w bit =
  match List.find_opt (fun kn -> kn.kn_bit = bit) w.w_knotes with
  | Some kn -> if w.w_aio.Io_if.aio_poll () land bit <> 0 then enqueue kn
  | None -> ()

(* One pass: drain the ready queue, polling each knote's source, then
   dispatch every knote that polled ready and is still active; or block
   until a notification (or [kick]) arrives.  Returns the number of
   callbacks run.  The drain takes only what was queued at entry, and
   the level re-arm runs after the callback, so a handler that consumed
   the condition costs no spurious round trip. *)
let step t =
  let rec drain n acc =
    if n = 0 then List.rev acc
    else
      match Dlist.pop_front t.ready with
      | None -> List.rev acc
      | Some kn ->
          kn.kn_node <- None;
          t.stats.visits <- t.stats.visits + 1;
          t.stats.polls <- t.stats.polls + 1;
          if kn.kn_watch.w_aio.Io_if.aio_poll () land kn.kn_bit = 0 then begin
            (* condition consumed before dispatch *)
            t.stats.spurious <- t.stats.spurious + 1;
            drain (n - 1) acc
          end
          else drain (n - 1) (kn :: acc)
  in
  match drain (Dlist.length t.ready) [] with
  | [] ->
      t.stats.sleeps <- t.stats.sleeps + 1;
      Sleep_record.sleep t.sleep;
      0
  | ready ->
      List.fold_left
        (fun fired kn ->
          if not kn.kn_active then fired
          else begin
            let w = kn.kn_watch in
            t.stats.dispatches <- t.stats.dispatches + 1;
            w.w_cb kn.kn_bit;
            if w.w_active then relevel w kn.kn_bit;
            fired + 1
          end)
        0 ready

(* [run t ~until] loops until [until ()] holds.  [until] is re-checked
   after every pass; while the loop is blocked a notification or a
   [kick] gets it moving again. *)
let rec run t ~until =
  if not (until ()) then begin
    ignore (step t);
    run t ~until
  end
