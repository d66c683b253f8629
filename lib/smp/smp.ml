type t = { machine : Machine.t; ncpus : int }

let init ?ncpus machine =
  let ncpus =
    match ncpus with Some n -> n | None -> Machine.ncpus machine
  in
  if ncpus < 1 then invalid_arg "Smp.init: ncpus";
  { machine; ncpus }

let num_cpus t = t.ncpus
let cpu_number t = Machine.cpu t.machine

(* The CPU of the caller, for lock bookkeeping: locks have no machine
   handle, so read the executing machine's context (CPU 0 outside any). *)
let executing_cpu () =
  match Machine.current () with Some m -> Machine.cpu m | None -> 0

type 'a percpu = 'a array

let percpu t ~init = Array.init t.ncpus init
let get t p = p.(cpu_number t)
let get_for p ~cpu = p.(cpu)

type spinlock = {
  name : string;
  mutable holder : int; (* CPU holding it, -1 = free *)
  mutable contentions : int;
}

let spinlock ?(name = "spinlock") () = { name; holder = -1; contentions = 0 }

let acquire_cycles = 20 (* uncontended: one locked bus transaction *)
let spin_round_cycles = 20 (* one read + failed CAS per spin round *)
let spin_rounds = 64 (* bounded spin before declaring deadlock *)

let spin_lock l =
  let me = executing_cpu () in
  if l.holder = me then begin
    (* Re-acquiring on the holder's own CPU can never clear — spinning
       would hang the simulation, so it is reported as the bug it is. *)
    l.contentions <- l.contentions + 1;
    invalid_arg ("Smp.spin_lock: deadlock on " ^ l.name)
  end
  else if l.holder >= 0 then begin
    (* Held by another CPU: a genuine contended spin.  Charge the bounded
       spin; on the lockstep simulator the holder cannot release while we
       burn it (execution is serialized), so exhausting the bound is a
       cross-CPU deadlock, not a wait. *)
    l.contentions <- l.contentions + 1;
    Cost.count_spin_contention ();
    Cost.charge Socket (spin_rounds * spin_round_cycles);
    invalid_arg
      (Printf.sprintf "Smp.spin_lock: cpu%d spun out on %s held by cpu%d" me
         l.name l.holder)
  end
  else begin
    Cost.charge Socket acquire_cycles;
    l.holder <- me
  end

let spin_unlock l =
  if l.holder < 0 then invalid_arg ("Smp.spin_unlock: not held: " ^ l.name);
  l.holder <- -1

let spin_trylock l =
  if l.holder >= 0 then begin
    (* The failure path is not free: the read and the failed CAS cost the
       same bus transaction the successful path pays. *)
    l.contentions <- l.contentions + 1;
    Cost.count_spin_contention ();
    Cost.charge Socket spin_round_cycles;
    false
  end
  else begin
    Cost.charge Socket acquire_cycles;
    l.holder <- executing_cpu ();
    true
  end

let spin_contentions l = l.contentions

let with_spinlock l f =
  spin_lock l;
  Fun.protect ~finally:(fun () -> spin_unlock l) f

let broadcast t f =
  for cpu = 1 to t.ncpus - 1 do
    f cpu
  done
