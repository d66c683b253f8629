type op = Read of { start : int; count : int } | Write of { start : int; data : bytes }
type completion = { id : int; result : (bytes, Error.t) result }

type t = {
  machine : Machine.t;
  media : Physmem.t;
  sector_size : int;
  sectors : int;
  irq : int;
  seek_ns : int;
  transfer_bps : int;
  queue : (int * op) Queue.t;
  done_q : completion Queue.t;
  mutable next_id : int;
  mutable busy : bool;
}

let create ~machine ~sectors ~irq ?(sector_size = 512) ?(seek_ns = 8_000_000)
    ?(transfer_bps = 10_000_000) () =
  { machine;
    media = Physmem.create ~bytes:(sectors * sector_size);
    sector_size;
    sectors;
    irq;
    seek_ns;
    transfer_bps;
    queue = Queue.create ();
    done_q = Queue.create ();
    next_id = 0;
    busy = false }

let sector_size t = t.sector_size
let sectors t = t.sectors
let irq t = t.irq

let valid t = function
  | Read { start; count } -> start >= 0 && count >= 0 && start + count <= t.sectors
  | Write { start; data } ->
      let len = Bytes.length data in
      len mod t.sector_size = 0 && start >= 0 && start + (len / t.sector_size) <= t.sectors

let read_raw t ~start ~count =
  let b = Bytes.create (count * t.sector_size) in
  Physmem.blit_to_bytes t.media ~src_addr:(start * t.sector_size) ~dst:b ~dst_pos:0
    ~len:(Bytes.length b);
  b

let write_raw t ~start data =
  if Bytes.length data mod t.sector_size <> 0 then invalid_arg "Disk.write_raw: partial sector";
  Physmem.blit_from_bytes t.media ~src:data ~src_pos:0 ~dst_addr:(start * t.sector_size)
    ~len:(Bytes.length data)

let service_ns t nbytes = t.seek_ns + (nbytes * 8 * 1_000_000_000 / t.transfer_bps)

let rec start_next t =
  match Queue.take_opt t.queue with
  | None -> t.busy <- false
  | Some (id, op) ->
      t.busy <- true;
      if not (valid t op) then begin
        Queue.add { id; result = Error Error.Inval } t.done_q;
        ignore
          (Machine.after t.machine 1_000 (fun () ->
               Machine.raise_irq t.machine ~irq:t.irq;
               start_next t))
      end
      else begin
        let nbytes =
          match op with
          | Read { count; _ } -> count * t.sector_size
          | Write { data; _ } -> Bytes.length data
        in
        let finish () =
          let result =
            match op with
            | Read { start; count } -> Ok (read_raw t ~start ~count)
            | Write { start; data } ->
                write_raw t ~start data;
                Ok Bytes.empty
          in
          Queue.add { id; result } t.done_q;
          Machine.raise_irq t.machine ~irq:t.irq;
          start_next t
        in
        ignore (Machine.after t.machine (service_ns t nbytes) (fun () -> finish ()))
      end

let submit t op =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Queue.add (id, op) t.queue;
  if not t.busy then start_next t;
  id

let take_completion t = Queue.take_opt t.done_q
