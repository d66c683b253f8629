(* The TIME_WAIT connections of one TCP stack, kept by its Conn_table as
   compact records, oldest first.  A connection entering TIME_WAIT is
   swapped for a record that keeps only what the 2xMSL wait needs — the
   4-tuple and home CPU, the sequence numbers and window its ACKs carry,
   its place in this queue and its expiry — as FreeBSD 5's tcptw and
   Linux's tcp_tw_bucket do, so the connection's control block, socket
   buffers, timers and socket are garbage once the user has closed it.

   The queue serves the Cost.config.tw_max cap and memory-pressure
   reclaim, and, since every record of one stack waits the same 2xMSL,
   expiry too: a record's expiry is never earlier than an older one's.
   O(1) per operation: [remove] (the record left TIME_WAIT) only clears
   its [tw_queued]; cleared records leave as soon as they reach the head,
   so none outlives the oldest queued one. *)

type tw = {
  tw_laddr : int32;
  tw_lport : int;
  tw_raddr : int32;
  tw_rport : int;
  tw_home : int; (* RSS home CPU, where its input and expiry run *)
  tw_serial : int; (* the connection's registration order *)
  tw_snd_nxt : int;
  tw_rcv_nxt : int;
  tw_win : int; (* the receive window its ACKs offer, unscaled *)
  tw_scale : int; (* and the shift applied to it on the wire *)
  tw_expires : int; (* in the stack's own timer units *)
  mutable tw_queued : bool; (* still in TIME_WAIT, in the queue *)
}

type t = { q : tw Queue.t; mutable live : int }

let create () = { q = Queue.create (); live = 0 }

let take t r =
  r.tw_queued
  && begin
       r.tw_queued <- false;
       t.live <- t.live - 1;
       true
     end

let rec trim t =
  match Queue.peek_opt t.q with
  | Some r when not r.tw_queued ->
      ignore (Queue.pop t.q);
      trim t
  | _ -> ()

let remove t r = if take t r then trim t

(* Append [r]; with the cap set, a connection-churn storm retires the
   oldest at once instead of pinning 2xMSL of connections. *)
let add t r ~retire =
  Queue.add r t.q;
  t.live <- t.live + 1;
  let cap = Cost.config.tw_max in
  if cap > 0 then
    while t.live > cap do
      let o = Queue.pop t.q in
      if take t o then retire o
    done

(* Memory pressure: retire every record queued now, oldest first. *)
let reclaim t ~retire =
  let old = Queue.create () in
  Queue.transfer t.q old;
  Queue.iter (fun r -> if take t r then retire r) old

(* Hand [f] every record whose expiry is at or before [now], oldest
   first, each taken off the queue before [f] sees it. *)
let rec expire t ~now f =
  trim t;
  match Queue.peek_opt t.q with
  | Some r when r.tw_expires <= now ->
      ignore (Queue.pop t.q);
      ignore (take t r);
      f r;
      expire t ~now f
  | _ -> ()

(* The queued records, oldest first. *)
let to_list t = List.filter (fun r -> r.tw_queued) (List.of_seq (Queue.to_seq t.q))
