(* Hierarchical timing wheel (Varghese & Lauck), 4 levels x 256 slots at
   1 ms granularity: O(1) arm and cancel, O(entries due) advance.

   Level 0 spans 256 ticks; each higher level spans 256x the one below,
   so the four levels cover ~4.6 hours of virtual time at the default
   granularity — far past a 2MSL timer.  An entry files into the lowest
   level whose span contains its deadline; when the wheel's tick crosses
   a 256^l boundary, the matching level-l slot cascades: its entries
   re-file one level down (or fire, if due this very tick).

   The module is pure with respect to time: callers pass absolute
   nanoseconds in, and [advance] walks the tick counter forward, firing
   due entries.  Nothing here touches {!Machine} or {!World}, which is
   what lets the property tests drive arbitrary interleavings against a
   reference scheduler.  BSD TCP ({!Tcp}) runs two instances at
   granularity 1, so their "nanoseconds" count its slow and fast timer
   loop events.

   Timing contract: an entry armed for deadline D fires at the first
   [advance ~now_ns] with [now_ns >= D], at a wheel time in
   [D, D + granularity); never early, at most one granule late (armed in
   the past: one granule after "now"). *)

type stats = {
  mutable arms : int;
  mutable cancels : int;
  mutable fires : int;
  mutable cascades : int;  (* entries re-filed from a higher level *)
}

type entry = {
  e_tick : int;  (* absolute tick at/after which this entry is due *)
  e_fn : unit -> unit;
  mutable e_node : entry Dlist.node option;  (* slot position; None once off-wheel *)
  mutable e_level : int;
  e_wheel : t;
}

and t = {
  granularity_ns : int;
  base_ns : int;  (* wheel time = base_ns + tick * granularity_ns *)
  mutable tick : int;
  slots : entry Dlist.t array array;  (* levels x 256 *)
  level_count : int array;  (* live entries per level, for empty-span skips *)
  mutable armed : int;
  stats : stats;
}

let levels = 4
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits (* 256 *)
let slot_mask = slots_per_level - 1
let default_granularity_ns = 1_000_000 (* 1 ms *)

let create ?(granularity_ns = default_granularity_ns) ~now_ns () =
  { granularity_ns;
    base_ns = now_ns;
    tick = 0;
    slots =
      Array.init levels (fun _ ->
          Array.init slots_per_level (fun _ -> Dlist.create ()));
    level_count = Array.make levels 0;
    armed = 0;
    stats = { arms = 0; cancels = 0; fires = 0; cascades = 0 } }

let granularity_ns t = t.granularity_ns
let armed t = t.armed
let stats t = t.stats
let now_ns t = t.base_ns + (t.tick * t.granularity_ns)
let pending e = e.e_node <> None

(* File an entry into the lowest level whose span reaches its deadline.
   Slot index at level l is bits [8l, 8l+8) of the absolute deadline
   tick, so a slot's entries are exactly those due when the wheel next
   visits it. *)
let place t e =
  let delta = e.e_tick - t.tick in
  let level =
    if delta < slots_per_level then 0
    else if delta < slots_per_level * slots_per_level then 1
    else if delta < slots_per_level * slots_per_level * slots_per_level then 2
    else 3
  in
  let slot = (e.e_tick lsr (slot_bits * level)) land slot_mask in
  e.e_level <- level;
  e.e_node <- Some (Dlist.push_back t.slots.(level).(slot) e);
  t.level_count.(level) <- t.level_count.(level) + 1

let unlink e =
  match e.e_node with
  | None -> ()
  | Some node ->
      Dlist.remove node;
      e.e_node <- None;
      let t = e.e_wheel in
      t.level_count.(e.e_level) <- t.level_count.(e.e_level) - 1

let arm t ~deadline_ns fn =
  (* Ceiling division: the fire tick is the first whose wheel time is at
     or past the deadline, so quantization can only delay, never rush. *)
  let tick =
    let d = deadline_ns - t.base_ns in
    if d <= 0 then 0 else (d + t.granularity_ns - 1) / t.granularity_ns
  in
  let tick = max tick (t.tick + 1) in
  let e = { e_tick = tick; e_fn = fn; e_node = None; e_level = 0; e_wheel = t } in
  place t e;
  t.armed <- t.armed + 1;
  t.stats.arms <- t.stats.arms + 1;
  Cost.count_wheel_arm ();
  e

let cancel e =
  if pending e then begin
    unlink e;
    let t = e.e_wheel in
    t.armed <- t.armed - 1;
    t.stats.cancels <- t.stats.cancels + 1;
    Cost.count_wheel_cancel ()
  end

let cascade t level slot =
  let moved = Dlist.drain t.slots.(level).(slot) in
  List.iter
    (fun e ->
      e.e_node <- None;
      t.level_count.(level) <- t.level_count.(level) - 1;
      t.stats.cascades <- t.stats.cascades + 1;
      Cost.count_wheel_cascade ();
      place t e)
    moved

let fire_slot t slot fired =
  (* Entries in a level-0 slot are due exactly when the wheel visits it;
     the guard tolerates a (theoretically impossible) future entry by
     re-filing instead of firing early. *)
  let due = Dlist.drain t.slots.(0).(slot) in
  List.iter
    (fun e ->
      e.e_node <- None;
      t.level_count.(0) <- t.level_count.(0) - 1;
      if e.e_tick <= t.tick then begin
        t.armed <- t.armed - 1;
        t.stats.fires <- t.stats.fires + 1;
        Cost.count_wheel_fire ();
        incr fired;
        e.e_fn ()
      end
      else place t e)
    due

let tick_once t fired =
  t.tick <- t.tick + 1;
  (* Cascade highest level first so an entry can trickle down through
     several levels at a shared boundary. *)
  if t.tick land 0xffffff = 0 then
    cascade t 3 ((t.tick lsr 24) land slot_mask);
  if t.tick land 0xffff = 0 then cascade t 2 ((t.tick lsr 16) land slot_mask);
  if t.tick land 0xff = 0 then cascade t 1 ((t.tick lsr 8) land slot_mask);
  fire_slot t (t.tick land slot_mask) fired

let advance t ~now_ns =
  let target = (now_ns - t.base_ns) / t.granularity_ns in
  let fired = ref 0 in
  while t.tick < target do
    if t.armed = 0 then t.tick <- target
    else if t.level_count.(0) = 0 then begin
      (* Nothing can fire before the next cascade boundary; jump there.
         (Fire callbacks may have armed near entries, hence the re-check
         each iteration.) *)
      let boundary = ((t.tick lsr slot_bits) + 1) lsl slot_bits in
      t.tick <- min target (boundary - 1);
      if t.tick < target then tick_once t fired
    end
    else tick_once t fired
  done;
  !fired
