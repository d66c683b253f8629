(* DragonFly-style netisr: one protocol shard per CPU, fed by a bounded
   message queue.  A frame steered to the executing CPU is processed
   directly (DragonFly's "direct dispatch") — at ncpus=1 that is every
   frame, so the drivers keep one receive loop at any CPU count and a
   direct dispatch allocates nothing; a frame for another CPU is enqueued
   and a drain event — the per-CPU protocol thread — runs it on its home
   CPU at the steering CPU's local time.  Queues are FIFO per CPU, so
   per-flow ordering is preserved (a flow only ever targets one CPU);
   overflow drops the frame and counts it, like a software-interrupt
   queue overflow. *)

type t = {
  machine : Machine.t;
  qmax : int;
  queues : (unit -> unit) Queue.t array;
  scheduled : bool array;
}

let instance =
  Machine.key (fun machine ->
      let n = Machine.ncpus machine in
      { machine;
        qmax = Cost.config.Cost.netisr_qmax;
        queues = Array.init n (fun _ -> Queue.create ());
        scheduled = Array.make n false })

let for_machine machine = Machine.get machine instance

let queue_len t ~cpu = Queue.length t.queues.(cpu)

(* [scheduled] stays set while the drain loop runs, so a frame the loop
   itself steers back to this CPU is picked up by the running loop instead
   of scheduling a second event. *)
let rec drain t cpu () =
  match Queue.take_opt t.queues.(cpu) with
  | None -> t.scheduled.(cpu) <- false
  | Some f ->
      f ();
      drain t cpu ()

let schedule_drain t cpu =
  if not t.scheduled.(cpu) then begin
    t.scheduled.(cpu) <- true;
    (* The drain fires no earlier than the steering CPU's local time — the
       frame cannot be processed before it was steered. *)
    ignore (Machine.at_on t.machine ~cpu (Machine.now t.machine) (drain t cpu))
  end

let dispatch t ~cpu f x =
  if cpu = Machine.cpu t.machine && Queue.is_empty t.queues.(cpu) then begin
    (* Direct dispatch: already on the home CPU with nothing queued ahead
       (the emptiness check keeps FIFO order if a drain is in progress). *)
    f x;
    true
  end
  else if Queue.length t.queues.(cpu) >= t.qmax then begin
    Cost.count_netisr_drop ();
    false
  end
  else begin
    Queue.add (fun () -> f x) t.queues.(cpu);
    Cost.count_netisr_queued ();
    schedule_drain t cpu;
    true
  end

(* Whether every frame of [frames] is homed on [cpu]. *)
let rec one_home ~ncpus cpu = function
  | [] -> true
  | frame :: rest -> Rss.cpu_of_frame ~ncpus frame = cpu && one_home ~ncpus cpu rest

(* Hand each RSS home CPU its slice of a chunk: arrival order within a
   slice, slices in order of first appearance (a flow maps to one CPU, so
   per-flow order is kept).  A chunk with one home, every chunk at one
   CPU, is dispatched as it is, not rebuilt. *)
let rec dispatch_slices t ~ncpus deliver = function
  | [] -> ()
  | first :: rest as frames ->
      let cpu = Rss.cpu_of_frame ~ncpus first in
      if one_home ~ncpus cpu rest then ignore (dispatch t ~cpu deliver frames)
      else begin
        let mine, others = List.partition (fun f -> Rss.cpu_of_frame ~ncpus f = cpu) frames in
        ignore (dispatch t ~cpu deliver mine);
        dispatch_slices t ~ncpus deliver others
      end

(* The one receive loop every NIC driver runs: drain queue [q] of [nic]
   [budget] frames at a time, each chunk sliced by home CPU. *)
let rec rx_drain t nic ~q ~budget deliver =
  match Nic.pop_rx_burst nic ~q ~max:budget with
  | [] -> ()
  | frames ->
      dispatch_slices t ~ncpus:(Machine.ncpus t.machine) deliver frames;
      rx_drain t nic ~q ~budget deliver
