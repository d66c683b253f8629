(* O(1) connection lookup, shared by both stacks' TCP and the BSD UDP,
   and the only one they have: connections keyed by (raddr, rport, lport),
   with the donor's one-entry tcp_last_inpcb cache in front for TCP.
   Each stack keeps its own listener fallback.  A lookup adds no closure
   and no allocation beyond the key tuple and [Hashtbl.find_opt]'s own. *)

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

(* Unbinding the newest uncovers the next newest, again as in that walk. *)
let remove d ~raddr ~rport ~lport x =
  let k = (raddr, rport, lport) in
  (match Hashtbl.find_all d.tbl k with
  | [] -> ()
  | [ y ] -> if y == x then Hashtbl.remove d.tbl k
  | ys ->
      if List.memq x ys then begin
        List.iter (fun _ -> Hashtbl.remove d.tbl k) ys;
        List.iter (fun y -> if y != x then Hashtbl.add d.tbl k y) (List.rev ys)
      end);
  match d.last with Some y when y == x -> d.last <- None | _ -> ()

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
