(* The kqueue readiness aggregator: changelist + ready queue over asyncio
   sources, the scalable half of the event core.

   Each registered (ident, condition-bit) pair is a knote holding a COM
   listener on its source.  When the source's condition becomes true the
   listener enqueues the knote on the ready queue in O(1) (or coalesces
   into an already-queued entry); [kevent] pops only queued knotes.  The
   cost of a dispatch pass is therefore O(ready connections) no matter
   how many idle registrations exist — the reactor's old
   scan-every-watch pass was O(watches).

   Knotes are level-triggered, as BSD's default: every dequeue re-polls
   the source, so a condition consumed between notification and dispatch
   is dropped as spurious rather than delivered stale, and [relevel]
   re-enqueues a knote whose condition still holds once its caller has
   handled it. *)

type stats = {
  mutable posted : int;  (* activations that enqueued a knote *)
  mutable coalesced : int;  (* activations absorbed by a queued knote *)
  mutable delivered : int;  (* kevents returned to callers *)
  mutable spurious : int;  (* dequeues whose condition had evaporated *)
}

(* What [kevent] reports: the caller's identity and one ready aio_* bit. *)
type event = { ident : int; filter : int }

type knote = {
  kn_ident : int;
  kn_filter : int;  (* exactly one aio_* bit *)
  kn_aio : Io_if.asyncio;
  mutable kn_listener : Io_if.listener option;
  mutable kn_active : bool;
  mutable kn_node : knote Dlist.node option;
  kn_kq : t;
}

and t = {
  knotes : (int * int, knote) Hashtbl.t;  (* (ident, filter bit) *)
  ready : knote Dlist.t;
  wakeup : unit -> unit;
  stats : stats;
}

let create ?(wakeup = fun () -> ()) () =
  { knotes = Hashtbl.create 64;
    ready = Dlist.create ();
    wakeup;
    stats = { posted = 0; coalesced = 0; delivered = 0; spurious = 0 } }

let depth t = Dlist.length t.ready
let watches t = Hashtbl.length t.knotes
let stats t = t.stats

(* Notification-level entry: O(1), no polling, no blocking. *)
let enqueue kn =
  let t = kn.kn_kq in
  if kn.kn_active then
    if kn.kn_node <> None then begin
      t.stats.coalesced <- t.stats.coalesced + 1;
      Cost.count_kq_coalesced ()
    end
    else begin
      let was_empty = Dlist.is_empty t.ready in
      kn.kn_node <- Some (Dlist.push_back t.ready kn);
      t.stats.posted <- t.stats.posted + 1;
      Cost.count_kq_posted ();
      if was_empty then t.wakeup ()
    end

let filter_bits = [ Io_if.aio_read; Io_if.aio_write; Io_if.aio_exception ]
let bits_of filter = List.filter (fun b -> filter land b <> 0) filter_bits

let delete_knote kn =
  kn.kn_active <- false;
  (match kn.kn_node with
  | Some node ->
      Dlist.remove node;
      kn.kn_node <- None
  | None -> ());
  (match kn.kn_listener with
  | Some l ->
      ignore (kn.kn_aio.Io_if.aio_remove_listener l);
      kn.kn_listener <- None
  | None -> ());
  Hashtbl.remove kn.kn_kq.knotes (kn.kn_ident, kn.kn_filter)

(* EV_ADD of one condition bit: replace any existing knote, register the
   listener, and enqueue immediately if the condition already holds (the
   registration-time mask closes the arm-vs-ready race).  Returns the new
   knote, or the source's error with nothing left registered. *)
let add_bit t ~ident ~aio bit =
  (match Hashtbl.find_opt t.knotes (ident, bit) with
  | Some old -> delete_knote old
  | None -> ());
  let kn =
    { kn_ident = ident;
      kn_filter = bit;
      kn_aio = aio;
      kn_listener = None;
      kn_active = true;
      kn_node = None;
      kn_kq = t }
  in
  let l = Io_if.listener_create (fun () -> enqueue kn) in
  kn.kn_listener <- Some l;
  Hashtbl.replace t.knotes (ident, bit) kn;
  match aio.Io_if.aio_add_listener l bit with
  | Result.Error e ->
      kn.kn_listener <- None;
      delete_knote kn;
      Result.Error e
  | Ok initial ->
      if initial land bit <> 0 then enqueue kn;
      Ok kn

(* One knote per condition bit in [filter].  If the source refuses a bit,
   the knotes this call already added go too, and the error is returned. *)
let add t ~ident ~aio ~filter =
  let rec go added = function
    | [] -> Ok ()
    | bit :: rest -> (
        match add_bit t ~ident ~aio bit with
        | Ok kn -> go (kn :: added) rest
        | Result.Error _ as e ->
            List.iter delete_knote added;
            e)
  in
  match bits_of filter with [] -> Result.Error Error.Inval | bits -> go [] bits

let delete t ~ident ~filter =
  let found = ref false in
  List.iter
    (fun bit ->
      match Hashtbl.find_opt t.knotes (ident, bit) with
      | Some kn ->
          found := true;
          delete_knote kn
      | None -> ())
    (bits_of filter);
  if !found then Ok () else Result.Error Error.Inval

(* Drain up to [max] entries, never more than were queued at entry.  A
   delivered knote leaves the queue; the caller re-arms it with [relevel]
   after handling it, so one hot connection cannot spin the caller. *)
let kevent t ~max =
  let budget = min max (Dlist.length t.ready) in
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match Dlist.pop_front t.ready with
      | None -> List.rev acc
      | Some kn ->
          kn.kn_node <- None;
          if kn.kn_aio.Io_if.aio_poll () land kn.kn_filter = 0 then begin
            (* condition consumed before dispatch *)
            t.stats.spurious <- t.stats.spurious + 1;
            go (n - 1) acc
          end
          else begin
            t.stats.delivered <- t.stats.delivered + 1;
            go (n - 1) ({ ident = kn.kn_ident; filter = kn.kn_filter } :: acc)
          end
  in
  go budget []

(* Post-dispatch level re-arm: re-enqueue the (ident, filter) knotes
   whose condition still holds after the handler ran. *)
let relevel t ~ident ~filter =
  List.iter
    (fun bit ->
      match Hashtbl.find_opt t.knotes (ident, bit) with
      | Some kn -> if kn.kn_aio.Io_if.aio_poll () land bit <> 0 then enqueue kn
      | None -> ())
    (bits_of filter)
