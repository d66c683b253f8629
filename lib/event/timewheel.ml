(* Timing wheel (Varghese & Lauck's scheme 4): one level of 256 slots,
   counted in ticks.  O(1) arm and cancel, O(ticks walked + entries due)
   advance.

   An entry armed [d] ticks ahead, 1 <= d <= 255, files into slot
   (now + d) mod 256, and the wheel next visits that slot on exactly its
   due tick, so every entry in a visited slot is due: there is no
   overflow list and nothing is ever re-filed.  A delay past the span
   raises: BSD TCP ({!Tcp}), the one client, runs two instances whose
   ticks are its slow and fast timer loop events and arms at most 128
   ticks ahead.

   The module is pure with respect to time: callers pass absolute ticks
   in, and [advance] walks the tick counter forward, firing due entries.
   Nothing here touches {!Machine} or {!World}, which is what lets the
   property tests drive arbitrary interleavings against a reference
   scheduler. *)

type entry = {
  e_fn : unit -> unit;
  mutable e_node : entry Dlist.node option;  (* slot position; None once off-wheel *)
  e_wheel : t;
}

and t = {
  mutable tick : int;
  slots : entry Dlist.t array;
  mutable armed : int;
}

let slots = 256
let horizon = slots - 1 (* the longest delay [arm] takes *)

let create () =
  { tick = 0;
    slots = Array.init slots (fun _ -> Dlist.create ());
    armed = 0 }

let armed t = t.armed
let now t = t.tick

let arm t ~ticks fn =
  if ticks < 1 || ticks > horizon then
    invalid_arg (Printf.sprintf "Timewheel.arm: %d ticks is outside 1..%d" ticks horizon);
  let e = { e_fn = fn; e_node = None; e_wheel = t } in
  e.e_node <- Some (Dlist.push_back t.slots.((t.tick + ticks) mod slots) e);
  t.armed <- t.armed + 1;
  Cost.count_wheel_arm ();
  e

let cancel e =
  match e.e_node with
  | None -> ()
  | Some node ->
      Dlist.remove node;
      e.e_node <- None;
      let t = e.e_wheel in
      t.armed <- t.armed - 1;
      Cost.count_wheel_cancel ()

(* Walk the wheel forward to tick [now], firing each visited slot's
   entries in arm order.  The slot is emptied before the first fires, and
   a callback that arms files at least one tick ahead, so never into the
   slot being fired.  Returns the number fired. *)
let advance t ~now =
  let fired = ref 0 in
  while t.tick < now do
    t.tick <- t.tick + 1;
    List.iter
      (fun e ->
        e.e_node <- None;
        t.armed <- t.armed - 1;
        Cost.count_wheel_fire ();
        incr fired;
        e.e_fn ())
      (Dlist.drain t.slots.(t.tick mod slots))
  done;
  !fired
