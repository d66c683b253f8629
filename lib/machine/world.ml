(* The queue is a binary min-heap on (time, seq), compared as ints, in an
   array that grows by doubling.  Keys are unique, so events pop in
   exactly (time, seq) order: equal times in scheduling order.  Each
   event keeps its heap slot, so [cancel] unlinks it at once in O(log n):
   [pending] is the heap's size, exact, and a cancelled callout (an
   early-cancelled 2MSL timer, say) does not hold its closure until its
   deadline.  A fired or cancelled event drops its closure; a stale array
   slot past the heap's end may still point at its record, never at the
   closure. *)
type event = {
  time : int;
  seq : int;
  mutable action : unit -> unit;
  mutable slot : int; (* index in [owner.heap]; -1 once fired or cancelled *)
  owner : t;
}

and t = {
  mutable now : int;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
  mutable fuel : int;
}

exception Out_of_fuel

let create () = { now = 0; heap = [||]; size = 0; next_seq = 0; fuel = 200_000_000 }
let now t = t.now
let set_fuel t fuel = t.fuel <- fuel
let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let place t i ev =
  t.heap.(i) <- ev;
  ev.slot <- i

(* Put [ev] in the hole at [i], moving it towards the root or the leaves. *)
let rec sift_up t i ev =
  let p = (i - 1) / 2 in
  if i > 0 && earlier ev t.heap.(p) then (place t i t.heap.(p); sift_up t p ev) else place t i ev

let rec sift_down t i ev =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && earlier t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if c < t.size && earlier t.heap.(c) ev then (place t i t.heap.(c); sift_down t c ev)
  else place t i ev

let at t time action =
  let time = max time t.now in
  let ev = { time; seq = t.next_seq; action; slot = -1; owner = t } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let heap = Array.make (max 64 (2 * t.size)) ev in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) ev;
  ev

let after t dt action = at t (t.now + dt) action

(* The last event fills [ev]'s hole, then settles. *)
let unlink t ev =
  let i = ev.slot in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  if i < t.size then begin
    sift_down t i last;
    if last.slot = i then sift_up t i last
  end;
  ev.slot <- -1;
  ev.action <- ignore

let cancel ev = if ev.slot >= 0 then unlink ev.owner ev
let pending t = t.size

let step t =
  t.size > 0
  &&
  let ev = t.heap.(0) in
  let action = ev.action in
  unlink t ev;
  t.now <- max t.now ev.time;
  action ();
  true

let run ?(until = fun () -> false) t =
  let rec go fuel =
    if fuel = 0 then raise Out_of_fuel;
    if (not (until ())) && step t then go (fuel - 1)
  in
  go t.fuel
