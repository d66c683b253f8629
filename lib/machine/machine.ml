let irq_lines = 16

(* A slot of the per-machine store: empty, or a value with the type
   witness of the key that put it there. *)
type binding = Empty | Bound : 'a Type.Id.t * 'a -> binding

type t = {
  name : string;
  world : World.t;
  ram : Physmem.t;
  ncpus : int;
  clocks : int array; (* per-CPU local time, ns *)
  ledger : int array; (* charged ns by CPU and layer: row [cpu], column [layer] *)
  crossings : int array; (* glue crossings by site *)
  mutable cur_cpu : int; (* CPU executing (or last to execute) *)
  handlers : (unit -> unit) option array;
  affinity : int array; (* irq line -> servicing CPU *)
  aff_mask : int array; (* cpu -> bitmask of the lines it services *)
  mutable masked : int; (* bitmask: 1 = masked *)
  mutable pending : int;
  mutable enabled : bool;
  in_dispatch : bool array; (* per CPU *)
  mutable run_hook : unit -> unit;
  kick_queued : bool array; (* per CPU *)
  kick_done : (unit -> unit) array; (* per CPU: clears its kick_queued *)
  mutable store : binding array; (* indexed by key slot *)
}

type 'a key = { id : 'a Type.Id.t; slot : int; init : t -> 'a }

(* One key per component that keeps state on a machine, normally made at
   module initialisation; each owns one slot of every machine's store, and
   a key made after a machine grows that machine's store on first use. *)
let slots = ref 0

let key init =
  let slot = !slots in
  incr slots;
  { id = Type.Id.make (); slot; init }

(* A slot only ever holds its own key's value, so the witnesses agree. *)
let cast : type a b. a Type.Id.t -> b Type.Id.t -> b -> a =
 fun want have v ->
  match Type.Id.provably_equal want have with Some Type.Equal -> v | None -> assert false

let get t k =
  if k.slot >= Array.length t.store then begin
    let store = Array.make !slots Empty in
    Array.blit t.store 0 store 0 (Array.length t.store);
    t.store <- store
  end;
  match t.store.(k.slot) with
  | Bound (id, v) -> cast k.id id v
  | Empty ->
      let v = k.init t in
      t.store.(k.slot) <- Bound (k.id, v);
      v

(* The kernel a machine runs, as recorded by the code that binds its
   protocol stack to its NIC: linked directly (native), or through the
   fdev glue (OSKit). *)
type kernel = Native | Oskit

let kernel_slot : kernel option ref key = key (fun _ -> ref None)

let bind_kernel t k =
  let bound = get t kernel_slot in
  match !bound with
  | Some k' when k' <> k ->
      invalid_arg "Machine.bind_kernel: a native and an OSKit kernel on one machine"
  | _ -> bound := Some k

let native t = match !(get t kernel_slot) with Some Native -> true | Some Oskit | None -> false

let current_machine : t option ref = ref None

let columns = List.length Cost.layers

let site : Cost.site -> int = function
  | Socket_call -> 0 | Tx_push -> 1 | Rx_push -> 2 | Device_io -> 3 | Open_close -> 4

let () =
  (* A native kernel crosses no glue: the one place that rule lives. *)
  Cost.set_glue_source
    (Some
       (fun s ->
         match !current_machine with
         | Some m when native m -> false
         | Some m -> m.crossings.(site s) <- m.crossings.(site s) + 1; true
         | None -> true))

let create ?(name = "pc") ?(ram_bytes = 8 * 1024 * 1024) ?ncpus world =
  let ncpus = match ncpus with Some n -> n | None -> Cost.config.Cost.ncpus in
  if ncpus < 1 || ncpus > Cost.max_cpus then invalid_arg "Machine.create: ncpus";
  let aff_mask = Array.make ncpus 0 in
  let kick_queued = Array.make ncpus false in
  (* Every line starts on CPU 0, like an unprogrammed IO-APIC. *)
  aff_mask.(0) <- (1 lsl irq_lines) - 1;
  { name;
    world;
    ram = Physmem.create ~bytes:ram_bytes;
    ncpus;
    clocks = Array.make ncpus 0;
    ledger = Array.make (ncpus * columns) 0;
    crossings = Array.make (List.length Cost.sites) 0;
    cur_cpu = 0;
    handlers = Array.make irq_lines None;
    affinity = Array.make irq_lines 0;
    aff_mask;
    masked = 0;
    pending = 0;
    enabled = true;
    in_dispatch = Array.make ncpus false;
    run_hook = (fun () -> ());
    kick_queued;
    kick_done = Array.init ncpus (fun cpu () -> kick_queued.(cpu) <- false);
    store = Array.make !slots Empty }

let name t = t.name
let world t = t.world
let ram t = t.ram
let ncpus t = t.ncpus
let now t = t.clocks.(t.cur_cpu)
let cpu_now t ~cpu = t.clocks.(cpu)
let ledger t ?cpu layer =
  let cell c = t.ledger.((c * columns) + Cost.column layer) in
  match cpu with
  | Some c -> cell c
  | None -> List.fold_left (fun a c -> a + cell c) 0 (List.init t.ncpus Fun.id)

let crossings t s = t.crossings.(site s)

let cpu_busy_ns t ~cpu =
  List.fold_left (fun a (l, _) -> a + t.ledger.((cpu * columns) + Cost.column l)) 0 Cost.layers

let is_current t = match !current_machine with Some m -> m == t | None -> false

(* The CPU of [t] the caller is executing on; 0 when [t] is not the
   executing machine (device models and the test harness act as CPU 0). *)
let cpu t = if is_current t then t.cur_cpu else 0

let check_cpu t cpu ctx =
  if cpu < 0 || cpu >= t.ncpus then invalid_arg (ctx ^ ": bad cpu")

(* Make CPU [m.cur_cpu] of [m] (or no machine) the executing one: all cost
   charges land on its clock, in the charged layer's column of its ledger
   row. *)
let execute = function
  | Some m -> Cost.execute_on ~clocks:m.clocks ~ledger:m.ledger ~cpu:m.cur_cpu
  | None -> Cost.execute_nowhere ()

(* The one place that switches machine or CPU. *)
let run_in_on t cpu f =
  let prev = !current_machine in
  let prev_cpu = t.cur_cpu in
  current_machine := Some t;
  t.cur_cpu <- cpu;
  execute !current_machine;
  Fun.protect
    ~finally:(fun () ->
      t.cur_cpu <- prev_cpu;
      current_machine := prev;
      execute prev)
    f

let run_in t f = run_in_on t (cpu t) f

(* Enter CPU [cpu]: its local clock catches up to the world (it can never
   run backwards — it may already be ahead from computing), so an idle
   CPU's work is charged from now, not from when it last ran. *)
let run_on t ~cpu f =
  check_cpu t cpu "Machine.run_on";
  t.clocks.(cpu) <- max t.clocks.(cpu) (World.now t.world);
  run_in_on t cpu f

let current () = !current_machine

let set_irq_handler t ~irq f =
  if irq < 0 || irq >= irq_lines then invalid_arg "set_irq_handler: bad irq";
  t.handlers.(irq) <- Some f

let bit irq = 1 lsl irq

let set_irq_affinity t ~irq ~cpu =
  if irq < 0 || irq >= irq_lines then invalid_arg "set_irq_affinity: bad irq";
  check_cpu t cpu "Machine.set_irq_affinity";
  t.affinity.(irq) <- cpu;
  Array.fill t.aff_mask 0 t.ncpus 0;
  for l = 0 to irq_lines - 1 do
    t.aff_mask.(t.affinity.(l)) <- t.aff_mask.(t.affinity.(l)) lor bit l
  done

let irq_affinity t ~irq = t.affinity.(irq)

(* Deliver every pending, unmasked line routed to the executing CPU while
   interrupts are enabled.  Runs with [current_machine = t]; handlers
   execute to completion, one at a time, lowest line first — PIC priority
   order.  Lines homed on other CPUs are untouched; their interrupts are
   delivered by their own world events. *)
let rec dispatch_pending t =
  let c = t.cur_cpu in
  let eligible () = t.pending land lnot t.masked land t.aff_mask.(c) in
  if t.enabled && (not t.in_dispatch.(c)) && eligible () <> 0 then begin
    t.in_dispatch.(c) <- true;
    let elig = eligible () in
    let rec find irq =
      if irq >= irq_lines then None
      else if elig land bit irq <> 0 then Some irq
      else find (irq + 1)
    in
    (match find 0 with
    | None -> ()
    | Some irq -> (
        t.pending <- t.pending land lnot (bit irq);
        Cost.charge Irq Cost.config.irq_entry_cycles;
        match t.handlers.(irq) with Some f -> f () | None -> ()));
    t.in_dispatch.(c) <- false;
    dispatch_pending t
  end

let run_hook_and_drain t =
  dispatch_pending t;
  t.run_hook ();
  dispatch_pending t

let mask_irq t ~irq = t.masked <- t.masked lor bit irq
let irq_masked t ~irq = t.masked land bit irq <> 0

let unmask_irq t ~irq =
  t.masked <- t.masked land lnot (bit irq);
  if is_current t then dispatch_pending t

let interrupts_enabled t = t.enabled

let enable_interrupts t =
  t.enabled <- true;
  if is_current t then dispatch_pending t

let disable_interrupts t = t.enabled <- false

let with_interrupts_disabled t f =
  let was = t.enabled in
  t.enabled <- false;
  Fun.protect ~finally:(fun () -> if was then enable_interrupts t) f

(* The one cross-CPU post: at [time] (the clock the caller names as the
   event's start), [f] runs on [cpu], then its pending interrupts and the
   kernel's process level. *)
let at_on t ~cpu time f =
  check_cpu t cpu "Machine.at_on";
  World.at t.world time (fun () ->
      run_on t ~cpu (fun () ->
          f ();
          run_hook_and_drain t))

let raise_irq t ~irq =
  if irq < 0 || irq >= irq_lines then invalid_arg "raise_irq: bad irq";
  t.pending <- t.pending lor bit irq;
  let target = t.affinity.(irq) in
  if is_current t then begin
    if target = t.cur_cpu then dispatch_pending t
    else
      (* Cross-CPU interrupt from software (an IPI): deliver via a world
         event no earlier than the raising CPU's local time. *)
      ignore (at_on t ~cpu:target t.clocks.(t.cur_cpu) ignore)
  end
  else
    (* Raised from outside the machine (a world event): synchronise the
       servicing CPU's clock with the world and service the interrupt, then
       let the kernel's process level run. *)
    run_on t ~cpu:target (fun () -> run_hook_and_drain t)

let set_run_hook t f = t.run_hook <- f

(* Wakes of one CPU coalesce into one post, at the woken CPU's clock. *)
let kick_on t ~cpu =
  check_cpu t cpu "Machine.kick_on";
  if not t.kick_queued.(cpu) then begin
    t.kick_queued.(cpu) <- true;
    ignore (at_on t ~cpu t.clocks.(cpu) t.kick_done.(cpu))
  end

let kick t = kick_on t ~cpu:(cpu t)

(* Events fire on the CPU that armed them, like a local-APIC timer. *)
let at t time f = at_on t ~cpu:(cpu t) time f
let after t dt f = at t (now t + dt) f
