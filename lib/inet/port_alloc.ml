(* Local port bookkeeping, shared by BSD UDP and both TCP stacks' Conn_table:
   a use count per port, kept equal to the multiset of the registered
   pcbs' local ports, and the ephemeral cursor.  [alloc] hands out the
   first free port at or after the cursor, wrapping from [hi] back to [lo],
   so a long-lived stack reuses the range instead of running past 65535.
   Port 0 means unbound and is never counted. *)

type t = { lo : int; hi : int; mutable cursor : int; uses : (int, int) Hashtbl.t }

let create ~lo ~hi = { lo; hi; cursor = lo; uses = Hashtbl.create 64 }
let uses t p = Option.value (Hashtbl.find_opt t.uses p) ~default:0
let use t p = if p <> 0 then Hashtbl.replace t.uses p (uses t p + 1)

let release t p =
  match uses t p with
  | 0 -> ()
  | 1 -> Hashtbl.remove t.uses p
  | n -> Hashtbl.replace t.uses p (n - 1)

(* The port a pcb holds changes from [old] to [p]. *)
let move t ~old p =
  release t old;
  use t p

(* The cursor moves past the port handed out; the caller counts it once a
   pcb holds it.  Every port of the range in use is EADDRNOTAVAIL. *)
let alloc t =
  let next p = if p >= t.hi then t.lo else p + 1 in
  let rec scan p left =
    if left = 0 then Error Error.Addrnotavail
    else if Hashtbl.mem t.uses p then scan (next p) (left - 1)
    else begin
      t.cursor <- next p;
      Ok p
    end
  in
  scan t.cursor (t.hi - t.lo + 1)
