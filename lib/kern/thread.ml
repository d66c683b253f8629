type waker = unit -> unit

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t

type sched = {
  machine : Machine.t;
  runqs : (unit -> unit) Queue.t array; (* one per CPU *)
  mutable live : int;
  running : bool array; (* per CPU *)
  mutable failures : (string * exn) list;
}

let create_sched machine =
  let n = Machine.ncpus machine in
  { machine;
    runqs = Array.init n (fun _ -> Queue.create ());
    live = 0;
    running = Array.make n false;
    failures = [] }

let enqueue s ~cpu thunk = Queue.add thunk s.runqs.(cpu)

(* Drain the executing CPU's queue.  Threads homed on other CPUs run when
   their CPU's own kick/interrupt events fire. *)
let rec run s =
  let cpu = Machine.cpu s.machine in
  if not s.running.(cpu) then begin
    s.running.(cpu) <- true;
    let q = s.runqs.(cpu) in
    let rec loop () =
      match Queue.take_opt q with
      | None -> ()
      | Some thunk ->
          thunk ();
          loop ()
    in
    Fun.protect ~finally:(fun () -> s.running.(cpu) <- false) loop;
    (* Wakers that fired during the last thunk may have refilled the queue. *)
    if not (Queue.is_empty q) then run s
  end

let install s = Machine.set_run_hook s.machine (fun () -> run s)

(* [cpu] is the thread's home CPU: it runs, yields back, and wakes there. *)
let handler s ~cpu name =
  let open Effect.Deep in
  { retc = (fun () -> s.live <- s.live - 1);
    exnc =
      (fun e ->
        s.live <- s.live - 1;
        s.failures <- s.failures @ [ name, e ]);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                enqueue s ~cpu (fun () -> continue k ()))
        | Suspend f ->
            Some
              (fun (k : (a, unit) continuation) ->
                let fired = ref false in
                let waker () =
                  if not !fired then begin
                    fired := true;
                    enqueue s ~cpu (fun () -> continue k ());
                    (* If the wake came from outside the home CPU's
                       execution (a bare world event, or another CPU), get
                       that CPU's scheduler re-entered. *)
                    if not s.running.(cpu) then Machine.kick_on s.machine ~cpu
                  end
                in
                f waker)
        | _ -> None) }

let spawn s ?cpu ?(name = "thread") f =
  let cpu = match cpu with Some c -> c | None -> Machine.cpu s.machine in
  s.live <- s.live + 1;
  enqueue s ~cpu (fun () -> Effect.Deep.match_with f () (handler s ~cpu name))

let yield () = Effect.perform Yield
let suspend f = Effect.perform (Suspend f)
let live s = s.live
let failures s = s.failures
