(* The connection set of a TCP stack, shared by BSD TCP and Linux TCP:
   which connections exist, which one a segment belongs to, which listener
   takes a SYN, when a listen backlog is full, and the local ports and
   TIME_WAIT records they hold — rules both donors share.  Each stack keeps
   its connection record, buffers, segment building and timers.  A
   connection joins at listen, at connect or as a SYN's child, and leaves
   at [detach], or at [time_wait], where a compact record (Tw_queue.tw)
   takes its place until [release]; every operation is O(1) in the number
   of connections, but for a listener's embryonic children, a list within
   its backlog. *)

(* A listener's backlog: children that finished the handshake and wait
   for accept, oldest first, and the children a SYN made, newest first;
   those that have left SYN_RCVD are pruned whenever the list is read. *)
type 'a listen = { queue : 'a Queue.t; mutable embryos : 'a list; backlog : int }

(* What the table keeps for one connection, stored in the stack's record;
   the key is the one it registered under. *)
type 'a entry = {
  mutable node : 'a Dlist.node option; (* in [all]; None = not registered *)
  mutable serial : int; (* registration order: later is higher *)
  mutable lport : int;
  mutable raddr : int32;
  mutable rport : int;
  mutable home : int; (* RSS home CPU; listeners stay on CPU 0 *)
  mutable listen : 'a listen option; (* Some while a listener *)
  mutable parent : 'a option; (* the listener a passive child came from *)
}

type tw = Tw_queue.tw

(* What a 4-tuple demuxes to: a connection, or the TIME_WAIT record that
   took its place. *)
type 'a conn = Live of 'a | Tw of tw

type 'a t = {
  machine : Machine.t;
  entry : 'a -> 'a entry;
  embryonic : 'a -> bool; (* in SYN_RCVD *)
  all : 'a Dlist.t; (* newest first; only the tests' accessor walks it *)
  demux : 'a conn Demux.t; (* connected ones and TIME_WAIT records, by 4-tuple *)
  by_port : (int, 'a list) Hashtbl.t; (* listeners by local port, newest first *)
  ports : Port_alloc.t;
  tw : Tw_queue.t;
  (* The accept queue is the one structure two CPUs touch: a child parks
     on its RSS home CPU, the application accepts on the listener's. *)
  accept_lock : Smp.spinlock;
  mutable serials : int;
}

let create machine ~entry ~embryonic =
  { machine; entry; embryonic; all = Dlist.create (); demux = Demux.create 64;
    by_port = Hashtbl.create 8; ports = Port_alloc.create ~lo:1024 ~hi:65535;
    tw = Tw_queue.create (); accept_lock = Smp.spinlock ~name:"accept" (); serials = 0 }

let entry () =
  { node = None; serial = 0; lport = 0; raddr = 0l; rport = 0; home = 0; listen = None;
    parent = None }

let registered t x = (t.entry x).node <> None
let is_empty t = Dlist.is_empty t.all && t.tw.Tw_queue.live = 0

(* Every registered connection, newest first, for the tests' scans. *)
let to_list t = Dlist.to_list t.all

let is_live x = function Live y -> y == x | Tw _ -> false
let is_tw r = function Tw s -> s == r | Live _ -> false

let register t x e ~lport =
  if e.node = None then begin
    e.node <- Some (Dlist.push_front t.all x);
    e.lport <- lport;
    Port_alloc.use t.ports lport;
    t.serials <- t.serials + 1;
    e.serial <- t.serials
  end

let listener t ~lport =
  match Hashtbl.find_opt t.by_port lport with Some (l :: _) -> Some l | _ -> None

(* The newest connection or TIME_WAIT record on the 4-tuple, else the
   newest listener on the port. *)
let find t ~raddr ~rport ~lport =
  match Demux.lookup t.demux ~raddr ~rport ~lport with
  | Some (Live x) as hit when Option.is_none (t.entry x).listen -> hit
  | Some (Tw _) as hit -> hit
  | _ -> Option.map (fun l -> Live l) (listener t ~lport)

(* An active open or a passive child.  Its home CPU is the one the NIC
   steers its 4-tuple to, so its input, timers and output meet there. *)
let connect t x ~laddr ~lport ~raddr ~rport =
  let e = t.entry x in
  register t x e ~lport;
  e.raddr <- raddr;
  e.rport <- rport;
  Demux.add t.demux ~raddr ~rport ~lport (Live x);
  e.home <-
    Rss.cpu_of_flow ~ncpus:(Machine.ncpus t.machine) ~proto:6 ~addr_a:laddr ~port_a:lport
      ~addr_b:raddr ~port_b:rport

(* A SYN's child, on its listener's port and embryonic while in SYN_RCVD.
   Only admission makes one, and admission prunes the list first. *)
let child t x ~parent ~laddr ~raddr ~rport =
  connect t x ~laddr ~lport:(t.entry parent).lport ~raddr ~rport;
  (t.entry x).parent <- Some parent;
  match (t.entry parent).listen with Some l -> l.embryos <- x :: l.embryos | None -> ()

(* A listener files by registration order, so one that was a connection
   first keeps its place. *)
let listen t x ~lport ~backlog =
  let e = t.entry x in
  register t x e ~lport;
  if Option.is_none e.listen then begin
    e.listen <- Some { queue = Queue.create (); embryos = []; backlog = max 1 backlog };
    let on_port = Option.value (Hashtbl.find_opt t.by_port e.lport) ~default:[] in
    Hashtbl.replace t.by_port e.lport
      (List.merge (fun a b -> compare (t.entry b).serial (t.entry a).serial) [ x ] on_port)
  end

(* The connection is gone.  A child parked on an accept queue stays there
   until accepted or orphaned. *)
let detach t x =
  let e = t.entry x in
  match e.node with
  | None -> ()
  | Some n ->
      Dlist.remove n;
      e.node <- None;
      Port_alloc.release t.ports e.lport;
      if Option.is_some e.listen then begin
        e.listen <- None;
        match List.filter (( != ) x) (Hashtbl.find t.by_port e.lport) with
        | [] -> Hashtbl.remove t.by_port e.lport
        | ls -> Hashtbl.replace t.by_port e.lport ls
      end;
      Demux.remove t.demux ~raddr:e.raddr ~rport:e.rport ~lport:e.lport ~same:(is_live x)

let ephemeral t = Port_alloc.alloc t.ports

let with_accept_lock t f =
  if Machine.ncpus t.machine > 1 then Smp.with_spinlock t.accept_lock f else f ()

(* The listener's children still in SYN_RCVD, newest first. *)
let embryos t x =
  match (t.entry x).listen with
  | Some l ->
      l.embryos <- List.filter t.embryonic l.embryos;
      l.embryos
  | None -> []

(* A SYN is admitted while the listener's queued and embryonic children
   together stay under its backlog (the donors' so_qlen + so_q0len). *)
let admits_syn t x =
  match (t.entry x).listen with
  | Some l -> Queue.length l.queue + List.length (embryos t x) < l.backlog
  | None -> false

(* A handshake completed from the syncache has no embryonic child: only
   the queue counts.  The prune bounds the list where no SYN counts it. *)
let admits_cookie t x =
  match (t.entry x).listen with
  | Some l ->
      ignore (embryos t x);
      Queue.length l.queue < l.backlog
  | None -> false

(* The child finished its handshake: it parks on its listener's queue. *)
let established t x =
  match (t.entry x).parent with
  | Some p -> (
      match (t.entry p).listen with
      | Some l -> with_accept_lock t (fun () -> Queue.add x l.queue)
      | None -> ())
  | None -> ()

let acceptable t x =
  match (t.entry x).listen with Some l -> not (Queue.is_empty l.queue) | None -> false

let accept t x =
  match (t.entry x).listen with
  | Some l -> with_accept_lock t (fun () -> Queue.take_opt l.queue)
  | None -> None

(* A closing listener's children, for the stack to abort: the parked ones
   oldest first, then the embryonic ones newest first. *)
let orphans t x =
  match (t.entry x).listen with
  | None -> []
  | Some l ->
      let parked = List.of_seq (Queue.to_seq l.queue) and embryos = embryos t x in
      Queue.clear l.queue;
      l.embryos <- [];
      parked @ embryos

(* The connection enters TIME_WAIT: a record of what the wait needs
   takes its place in the demux, keeping its local port, and it leaves
   the table.  With Cost.config.tw_max set, the oldest records are retired
   at once. *)
let time_wait t x ~laddr ~snd_nxt ~rcv_nxt ~win ~scale ~expires ~retire =
  let e = t.entry x in
  (match e.node with
  | Some n -> Dlist.remove n
  | None -> invalid_arg "Conn_table.time_wait: not a registered connection");
  e.node <- None;
  let r =
    { Tw_queue.tw_laddr = laddr; tw_lport = e.lport; tw_raddr = e.raddr; tw_rport = e.rport;
      tw_home = e.home; tw_serial = e.serial; tw_snd_nxt = snd_nxt; tw_rcv_nxt = rcv_nxt;
      tw_win = win; tw_scale = scale; tw_expires = expires; tw_queued = true }
  in
  Demux.replace t.demux ~raddr:e.raddr ~rport:e.rport ~lport:e.lport ~same:(is_live x) (Tw r);
  Tw_queue.add t.tw r ~retire;
  r

(* The record leaves TIME_WAIT (expiry, a reset, or early retirement),
   and with it the table. *)
let release t r =
  Tw_queue.remove t.tw r;
  Port_alloc.release t.ports r.Tw_queue.tw_lport;
  Demux.remove t.demux ~raddr:r.Tw_queue.tw_raddr ~rport:r.Tw_queue.tw_rport
    ~lport:r.Tw_queue.tw_lport ~same:(is_tw r)

(* [f] expires each record due by [now], oldest first. *)
let expire t ~now f = Tw_queue.expire t.tw ~now f

(* Memory pressure: retire every TIME_WAIT record, oldest first, then
   let [f] shed each listener's cold state. *)
let reclaim t ~retire f =
  Tw_queue.reclaim t.tw ~retire;
  Hashtbl.iter (fun _ -> List.iter f) t.by_port
