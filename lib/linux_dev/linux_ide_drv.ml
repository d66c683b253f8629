(* ENCAPSULATED LEGACY CODE — Linux-style IDE/SCSI block driver core.
 *
 * Keeps the donor structure: a per-drive request queue of `struct
 * request's, do_request starting the head of the queue on the hardware,
 * and an interrupt handler calling end_request, which wakes the sleeper.
 * Process-level callers block with the emulated sleep_on/wake_up.
 *)

type request = {
  cmd : [ `Read | `Write ];
  sector : int;
  nr_sectors : int;
  buffer : bytes; (* data read lands here / data to write comes from here *)
  buf_pos : int; (* offset of the request's span within [buffer] *)
  wait : Linux_emu.wait_queue;
  mutable errors : int;
  mutable completed : bool;
}

type drive = {
  name : string; (* hda, hdb, ... *)
  model : string;
  hw : Disk.t;
  queue : request Queue.t;
  mutable active : request option;
  mutable irq_requested : bool;
  mutable read_count : int;
  mutable write_count : int;
}

let supported_models = [ "WDC-AC2850"; "ST-3491A"; "QUANTUM-LPS540"; "AHA-1542"; "NCR-53c810" ]

(* A probe names the drives it finds on its machine hda, hdb, ... in bus
   order. *)
let probe_drives osenv =
  Bus.hardware (Osenv.machine osenv)
  |> List.filter_map (function
       | Bus.Hw_disk { model; disk } when List.mem model supported_models -> Some (model, disk)
       | Bus.Hw_disk _ | Bus.Hw_nic _ | Bus.Hw_serial _ -> None)
  |> List.mapi (fun i (model, disk) ->
         { name = "hd" ^ String.make 1 (Char.chr (Char.code 'a' + i));
           model;
           hw = disk;
           queue = Queue.create ();
           active = None;
           irq_requested = false;
           read_count = 0;
           write_count = 0 })

(* Start the head of the queue on the controller. *)
let rec do_request drive =
  match drive.active with
  | Some _ -> ()
  | None -> (
      match Queue.take_opt drive.queue with
      | None -> ()
      | Some req ->
          drive.active <- Some req;
          let op =
            match req.cmd with
            | `Read -> Disk.Read { start = req.sector; count = req.nr_sectors }
            | `Write ->
                Disk.Write
                  { start = req.sector;
                    data =
                      Bytes.sub req.buffer req.buf_pos
                        (req.nr_sectors * Disk.sector_size drive.hw) }
          in
          ignore (Disk.submit drive.hw op))

and end_request drive ok data =
  match drive.active with
  | None -> ()
  | Some req ->
      drive.active <- None;
      if not ok then req.errors <- req.errors + 1
      else begin
        (match req.cmd with
        | `Read ->
            Cost.charge_copy (Bytes.length data);
            Bytes.blit data 0 req.buffer req.buf_pos (Bytes.length data)
        | `Write -> ());
        req.completed <- true
      end;
      Linux_emu.wake_up req.wait;
      do_request drive

let drive_interrupt drive () =
  let rec drain () =
    match Disk.take_completion drive.hw with
    | None -> ()
    | Some { Disk.result = Ok data; _ } ->
        end_request drive true data;
        drain ()
    | Some { Disk.result = Error _; _ } ->
        end_request drive false Bytes.empty;
        drain ()
  in
  drain ()

let attach osenv drive =
  if not drive.irq_requested then begin
    match
      Osenv.irq_request osenv ~irq:(Disk.irq drive.hw) ~handler:(drive_interrupt drive)
    with
    | Ok () -> drive.irq_requested <- true
    | Result.Error _ -> ()
  end

(* Blocking process-level entry: queue, start, sleep until completion. *)
let ide_rw drive cmd ~sector ~nr_sectors ~buffer ?(buf_pos = 0) () =
  let req =
    { cmd; sector; nr_sectors; buffer; buf_pos; wait = Linux_emu.wait_queue_head ();
      errors = 0; completed = false }
  in
  Queue.add req drive.queue;
  do_request drive;
  while not (req.completed || req.errors > 0) do
    Linux_emu.sleep_on req.wait
  done;
  (match cmd with
  | `Read -> drive.read_count <- drive.read_count + 1
  | `Write -> drive.write_count <- drive.write_count + 1);
  if req.errors > 0 then Error.fail Error.Io
