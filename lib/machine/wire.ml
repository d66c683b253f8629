type port = { id : int; rx : bytes -> unit }

type t = {
  world : World.t;
  bandwidth_bps : int;
  latency_ns : int;
  mutable ports : port list;
  mutable next_id : int;
  mutable busy_until : int;
  mutable frames : int;
  mutable bytes : int;
  mutable netem : Netem.t option;
  mutable dropped : int;
  mutable delivered : int;
}

(* 100BASE-T framing overhead per frame: 8 B preamble + 4 B FCS + 12 B
   inter-frame gap. *)
let framing_bytes = 24

let create ?(bandwidth_bps = 100_000_000) ?(latency_ns = 1_000) world =
  { world; bandwidth_bps; latency_ns; ports = []; next_id = 0; busy_until = 0;
    frames = 0; bytes = 0; netem = None; dropped = 0; delivered = 0 }

let attach t ~rx =
  let p = { id = t.next_id; rx } in
  t.next_id <- t.next_id + 1;
  t.ports <- p :: t.ports;
  p

let serialization_ns t len =
  (len + framing_bytes) * 8 * 1_000_000_000 / t.bandwidth_bps

let send t port frame ~at =
  (* The sender always serializes the frame onto the medium: loss happens
     in transit, so the medium is busy and the offered-traffic stats move
     whether or not anyone ends up hearing it. *)
  let start = max at t.busy_until in
  let finish = start + serialization_ns t (Bytes.length frame) in
  t.busy_until <- finish;
  t.frames <- t.frames + 1;
  t.bytes <- t.bytes + Bytes.length frame;
  let arrival = finish + t.latency_ns in
  let deliveries =
    match t.netem with
    | None -> [ (frame, 0) ]
    | Some em -> Netem.judge em ~now:start ~port:port.id frame
  in
  (match deliveries with
   | [] -> t.dropped <- t.dropped + 1
   | ds ->
       List.iter
         (fun (f, extra) ->
           t.delivered <- t.delivered + 1;
           let deliver () =
             let copy_for p = p.rx (Bytes.copy f) in
             List.iter (fun p -> if p.id <> port.id then copy_for p) t.ports
           in
           ignore (World.at t.world (arrival + extra) deliver))
         ds);
  arrival

let set_netem t em = t.netem <- em

let frames_dropped t = t.dropped
let frames_delivered t = t.delivered
let frames_carried t = t.frames
let bytes_carried t = t.bytes
