(* GLUE — emulation of the Linux kernel environment (Sections 4.7.5, 4.7.6).
 *
 * The encapsulated driver code is riddled with assumptions about the Linux
 * environment: a `current' task pointer, sleep_on/wake_up wait queues,
 * jiffies, kmalloc, cli/sti.  This module manufactures those abstractions
 * on demand from the much simpler services the client OS provides (sleep
 * records, the osenv allocator, machine time), completely hiding them from
 * the client.
 *)

type task_struct = { comm : string; pid : int }

let next_fake_pid = ref 1000
let current_task : task_struct option ref = ref None

(* "At every entrypoint into the component from the outside, the glue code
   creates and initializes a minimal temporary process structure ... and
   automatically disappears when the call completes."  The saved value is
   restored so concurrent activities during blocking calls cannot trash
   it. *)
let with_current f =
  let saved = !current_task in
  incr next_fake_pid;
  current_task := Some { comm = "oskit"; pid = !next_fake_pid };
  Fun.protect ~finally:(fun () -> current_task := saved) f

let current () =
  match !current_task with
  | Some t -> t
  | None -> invalid_arg "linux: `current' accessed outside a component entry"

(* Linux 2.0 wait queues over OSKit sleep records. *)
type wait_queue = { mutable waiters : Sleep_record.t list }

let wait_queue_head () = { waiters = [] }

let sleep_on q =
  let r = Sleep_record.create ~name:"linux.waitq" () in
  q.waiters <- q.waiters @ [ r ];
  Sleep_record.sleep r;
  q.waiters <- List.filter (fun x -> x != r) q.waiters

let wake_up q = List.iter Sleep_record.wakeup q.waiters

(* jiffies: Linux 2.0 ticked at 100 Hz. *)
let hz = 100

let jiffies machine = Machine.now machine / (1_000_000_000 / hz)

(* kmalloc backed by the osenv allocator; GFP_DMA maps to the <16 MB
   constraint. *)
let kmalloc osenv ~size ~dma =
  let flags = if dma then Lmm.flag_low_16mb else 0 in
  Osenv.mem_alloc osenv ~size ~flags ~align_bits:4

let kfree osenv ~addr ~size = Osenv.mem_free osenv ~addr ~size
