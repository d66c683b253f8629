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

(* Whether a station after these hears a frame from [sender]. *)
let rec heard_later sender = function [] -> false | p :: ps -> p.id <> sender || heard_later sender ps

(* Every station but the sender hears [f], each its own copy but for the
   last, which takes [f] itself when the wire [own]s it. *)
let rec hand ~own sender f = function
  | [] -> ()
  | p :: ps when p.id = sender -> hand ~own sender f ps
  | p :: ps ->
      p.rx (if own && not (heard_later sender ps) then f else Bytes.copy f);
      hand ~own sender f ps

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
  (* The wire owns [frame]: with no emulator it goes itself to the last
     station that hears it.  An emulator's deliveries may share bytes (a
     duplicate), so each of their stations gets a copy. *)
  let own, deliveries =
    match t.netem with
    | None -> true, [ (frame, 0) ]
    | Some em -> false, Netem.judge em ~now:start ~port:port.id frame
  in
  (match deliveries with
   | [] -> t.dropped <- t.dropped + 1
   | ds ->
       List.iter
         (fun (f, extra) ->
           t.delivered <- t.delivered + 1;
           ignore (World.at t.world (arrival + extra) (fun () -> hand ~own port.id f t.ports)))
         ds);
  arrival

let set_netem t em = t.netem <- em

let frames_dropped t = t.dropped
let frames_delivered t = t.delivered
let frames_carried t = t.frames
let bytes_carried t = t.bytes
