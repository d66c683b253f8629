(* O(1) connection lookup by (raddr, rport, lport), the only one the BSD
   UDP and both TCP stacks have, with the donor's one-entry tcp_last_inpcb
   cache in front for TCP; Conn_table puts the listener fallback behind
   it.  A lookup allocates only the key tuple and [Hashtbl.find_opt]'s
   result. *)

type 'a t = {
  tbl : (int32 * int * int, 'a) Hashtbl.t;
  mutable last : 'a option;
  (* the key [last] was found under *)
  mutable last_raddr : int32;
  mutable last_rport : int;
  mutable last_lport : int;
}

let create n =
  { tbl = Hashtbl.create n; last = None; last_raddr = 0l; last_rport = 0; last_lport = 0 }

let last_is d ~raddr ~rport ~lport =
  d.last_lport = lport && d.last_rport = rport && Int32.equal d.last_raddr raddr

(* A key can be bound more than once — a newer connection on the 4-tuple
   of one still alive, which the stacks allow — and the newest binding
   answers, as a walk of each stack's newest-first pcb list would.  The
   cache must not keep answering with the older one. *)
let add d ~raddr ~rport ~lport x =
  Hashtbl.add d.tbl (raddr, rport, lport) x;
  if last_is d ~raddr ~rport ~lport then d.last <- None

(* Rebind the key's bindings, newest first, after [f] maps each: [f]
   returns [None] to drop one. *)
let rebind d k ys f =
  List.iter (fun _ -> Hashtbl.remove d.tbl k) ys;
  List.iter (fun y -> Option.iter (Hashtbl.add d.tbl k) (f y)) (List.rev ys)

(* Unbinding the newest uncovers the next newest, again as in that walk.
   [same] picks the binding to drop. *)
let remove d ~raddr ~rport ~lport ~same =
  let k = (raddr, rport, lport) in
  (match Hashtbl.find_all d.tbl k with
  | [] -> ()
  | [ y ] -> if same y then Hashtbl.remove d.tbl k
  | ys -> if List.exists same ys then rebind d k ys (fun y -> if same y then None else Some y));
  match d.last with Some y when same y -> d.last <- None | _ -> ()

(* The binding [same] picks becomes [x], in its place among the key's
   bindings and in the cache. *)
let replace d ~raddr ~rport ~lport ~same x =
  let k = (raddr, rport, lport) in
  (match Hashtbl.find_all d.tbl k with
  | y :: _ when same y -> Hashtbl.replace d.tbl k x
  | ys -> rebind d k ys (fun y -> Some (if same y then x else y)));
  match d.last with Some y when same y -> d.last <- Some x | _ -> ()

(* TCP: the last-entry cache, then the hash. *)
let lookup d ~raddr ~rport ~lport =
  match d.last with
  | Some _ as r when last_is d ~raddr ~rport ~lport ->
      Cost.count_pcb_cache_hit ();
      r
  | _ -> (
      Cost.count_pcb_cache_miss ();
      match Hashtbl.find_opt d.tbl (raddr, rport, lport) with
      | Some _ as r ->
          d.last <- r;
          d.last_raddr <- raddr;
          d.last_rport <- rport;
          d.last_lport <- lport;
          r
      | None -> None)

(* UDP: an exact 4-tuple match counts as the hit, then the wildcard bind
   keyed (0, 0, lport); no one-entry cache. *)
let lookup_dgram d ~raddr ~rport ~lport =
  match Hashtbl.find_opt d.tbl (raddr, rport, lport) with
  | Some _ as r ->
      Cost.count_pcb_cache_hit ();
      r
  | None ->
      Cost.count_pcb_cache_miss ();
      Hashtbl.find_opt d.tbl (0l, 0, lport)
