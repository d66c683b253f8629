type t = {
  machine : Machine.t;
  sched : Thread.sched;
  traps : Trap.table;
  console : Serial.t;
  timer : Timer_dev.t;
}

let create ?(console_irq = 4) ?(timer_irq = 0) machine =
  let sched = Thread.create_sched machine in
  Thread.install sched;
  let traps = Trap.create machine in
  let console = Serial.create ~machine ~irq:console_irq () in
  let timer = Timer_dev.create ~machine ~irq:timer_irq in
  { machine; sched; traps; console; timer }

let machine t = t.machine
let sched t = t.sched
let traps t = t.traps
let console t = t.console
let timer t = t.timer

let spawn t ?cpu ?name f =
  let cpu = match cpu with Some c -> c | None -> Machine.cpu t.machine in
  (* Thread creation is free by default; the concurrency benches set
     [thread_spawn_cycles] to charge the stack carve-out to this kernel's
     clock. *)
  if Cost.config.Cost.thread_spawn_cycles > 0 then
    Machine.run_on t.machine ~cpu (fun () ->
        Cost.charge Alloc Cost.config.Cost.thread_spawn_cycles);
  Thread.spawn t.sched ~cpu ?name f;
  Machine.kick_on t.machine ~cpu

let console_putc t c =
  Machine.run_in t.machine (fun () -> Serial.write_byte t.console (Char.code c))

let console_output t = Serial.captured_output t.console

let start_clock ?(hz = 100) t =
  Timer_dev.set_periodic t.timer ~interval_ns:(1_000_000_000 / hz)

let clock_ticks t = Timer_dev.ticks t.timer
