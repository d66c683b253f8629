(* TIME_WAIT connections oldest-first, for the Cost.config.tw_max cap and
   memory-pressure reclaim, kept by each TCP stack's Conn_table.  The stack
   keeps its own 2xMSL timer and supplies [retire] to close a victim early.

   O(1) per operation: [add] hands back an entry the table keeps with the
   connection, and [remove] (the connection left TIME_WAIT) only marks it.
   Marked entries leave as soon as they reach the head, so none outlives
   the oldest live one. *)

type 'a entry = { v : 'a; mutable queued : bool }
type 'a t = { q : 'a entry Queue.t; mutable live : int }

let create () = { q = Queue.create (); live = 0 }

let take t e =
  e.queued
  && begin
       e.queued <- false;
       t.live <- t.live - 1;
       true
     end

let rec trim t =
  match Queue.peek_opt t.q with
  | Some e when not e.queued ->
      ignore (Queue.pop t.q);
      trim t
  | _ -> ()

let remove t e = if take t e then trim t

(* Append [v]; with the cap set, a connection-churn storm retires the
   oldest at once instead of pinning 2xMSL of connections. *)
let add t v ~retire =
  let e = { v; queued = true } in
  Queue.add e t.q;
  t.live <- t.live + 1;
  let cap = Cost.config.tw_max in
  if cap > 0 then
    while t.live > cap do
      let o = Queue.pop t.q in
      if take t o then retire o.v
    done;
  e

(* Memory pressure: retire every connection queued now, oldest first. *)
let reclaim t ~retire =
  let old = Queue.create () in
  Queue.transfer t.q old;
  Queue.iter (fun e -> if take t e then retire e.v) old
