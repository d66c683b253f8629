(* Intrusive doubly-linked lists with O(1) push at either end, remove,
   and length.

   Both halves of the event core live on these: kqueue ready queues (a
   firing connection enqueues itself in constant time) and timing-wheel
   slots (cancel unlinks in constant time).
   So does a TCP connection table's list, newest first, which a
   connection leaves in constant time however many are in TIME_WAIT.  A node remembers
   its owner so [remove] needs no list argument and double-removal is a
   checked no-op. *)

type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : 'a t option;
}

and 'a t = {
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable length : int;
}

let create () = { first = None; last = None; length = 0 }
let length t = t.length
let is_empty t = t.length = 0

let push_back t v =
  let n = { v; prev = t.last; next = None; owner = Some t } in
  (match t.last with None -> t.first <- Some n | Some l -> l.next <- Some n);
  t.last <- Some n;
  t.length <- t.length + 1;
  n

let push_front t v =
  let n = { v; prev = None; next = t.first; owner = Some t } in
  (match t.first with None -> t.last <- Some n | Some f -> f.prev <- Some n);
  t.first <- Some n;
  t.length <- t.length + 1;
  n

let remove n =
  match n.owner with
  | None -> ()
  | Some t ->
      (match n.prev with None -> t.first <- n.next | Some p -> p.next <- n.next);
      (match n.next with None -> t.last <- n.prev | Some s -> s.prev <- n.prev);
      n.prev <- None;
      n.next <- None;
      n.owner <- None;
      t.length <- t.length - 1

let pop_front t =
  match t.first with
  | None -> None
  | Some n ->
      remove n;
      Some n.v

(* Iterate over a snapshot-ish traversal: the callback may remove the
   current node (we read [next] first) but must not remove the next one. *)
let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.next in
        f n.v;
        go next
  in
  go t.first

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc

(* Unlink every node and hand the values over, front to back: a wheel
   slot is emptied before its entries fire. *)
let drain t =
  let rec go acc =
    match pop_front t with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []
