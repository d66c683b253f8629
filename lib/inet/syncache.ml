(* SYN-flood defense (Cost.config.syn_defense), written once for both
   TCP stacks: the SYN cookie codec, the bounded per-listener cache of
   half-open handshakes, and its counters.  How a SYN-ACK or RST is built
   and how the child connection is created stay with each stack.

   With the defense on, the ISS a listener answers with is always a
   cookie: bits 1..0 index the MSS class table, bits 31..2 hash the
   4-tuple with a per-stack secret.  When the cache has evicted (or never
   held) the half-open entry, the completing ACK alone — which echoes
   ISS+1 — carries enough to rebuild the connection. *)

(* One cached half-open handshake: a few words, against the two socket
   buffers a child connection would pin, so a flood holds trivial memory
   and embryonic connections stay off the accept backlog. *)
type entry = {
  raddr : int32;
  rport : int;
  irs : int; (* the SYN's sequence number *)
  iss : int; (* the cookie we answered with *)
  mss : int; (* the peer's clamped MSS offer *)
}

(* A listener's cache, newest first, holding at most [size] entries. *)
type listener = { mutable entries : entry list }

let size = 64

type stats = {
  mutable added : int;     (* half-open handshakes cached *)
  mutable evicted : int;   (* entries dropped: overflow, listener close, reclaim *)
  mutable completed : int; (* handshakes finished from the cache *)
  mutable validated : int; (* finished statelessly from the cookie *)
  mutable rejected : int;  (* completing ACKs matching neither *)
}

type t = { secret : int; stats : stats (* what netstat reads *) }

let create ~secret =
  { secret; stats = { added = 0; evicted = 0; completed = 0; validated = 0; rejected = 0 } }

let listener () = { entries = [] }

(* --- the cookie codec --- *)

let mss_classes = [| 536; 1160; 1460; 8960 |]

let mss_class mss =
  let rec go i best =
    if i >= Array.length mss_classes then best
    else if mss_classes.(i) <= mss then go (i + 1) i
    else best
  in
  go 1 0

let cookie_hash t ~raddr ~rport ~lport =
  let mix h k =
    let h = h lxor Codec.m32 (k * 0x9e3779b1) in
    let h = Codec.m32 ((h lxor (h lsr 15)) * 0x85ebca6b) in
    h lxor (h lsr 13)
  in
  let h = mix (t.secret land 0xffffffff) (Int32.to_int raddr land 0xffffffff) in
  let h = mix h rport in
  let h = mix h lport in
  h land 0x3fffffff

let cookie t ~raddr ~rport ~lport ~mss =
  Codec.m32 ((cookie_hash t ~raddr ~rport ~lport lsl 2) lor mss_class mss)

(* The MSS class [iss] recorded, iff its hash checks out. *)
let check_cookie t ~raddr ~rport ~lport ~iss =
  if (iss lsr 2) land 0x3fffffff = cookie_hash t ~raddr ~rport ~lport then
    Some mss_classes.(iss land 3)
  else None

(* --- the per-listener cache --- *)

let find l ~raddr ~rport =
  List.find_opt (fun e -> e.rport = rport && Int32.equal e.raddr raddr) l.entries

(* A SYN: the entry to answer with.  A retransmitted SYN gets its cached
   entry back; a new one is cached with a cookie ISS.  [own_mss] is the
   MSS the stack gives a connection whose SYN carries no option, and the
   clamp for one that does.  Over [size] entries the oldest is evicted —
   not killed: the cookie in its SYN-ACK still completes it statelessly. *)
let add t l ~raddr ~rport ~lport ~irs ~mss ~own_mss =
  match find l ~raddr ~rport with
  | Some e -> e
  | None ->
      let mss = match mss with Some v -> min own_mss v | None -> own_mss in
      let e = { raddr; rport; irs; iss = cookie t ~raddr ~rport ~lport ~mss; mss } in
      t.stats.added <- t.stats.added + 1;
      let cache = e :: l.entries in
      let n = List.length cache in
      if n > size then begin
        t.stats.evicted <- t.stats.evicted + (n - size);
        l.entries <- List.filteri (fun i _ -> i < size) cache
      end
      else l.entries <- cache;
      e

(* The completing ACK of a defended handshake: the handshake restored from
   the listener's entry or — if it was evicted — from the cookie the ACK
   echoes.  [None] for an ACK matching neither (an entry whose numbers do
   not line up is bogus too). *)
let expand t l ~raddr ~rport ~lport ~seq ~ack =
  let r =
    match find l ~raddr ~rport with
    | Some e when ack = Codec.m32 (e.iss + 1) && seq = Codec.m32 (e.irs + 1) ->
        l.entries <- List.filter (fun x -> x != e) l.entries;
        t.stats.completed <- t.stats.completed + 1;
        Some e
    | Some _ -> None
    | None -> (
        let iss = Codec.m32 (ack - 1) in
        match check_cookie t ~raddr ~rport ~lport ~iss with
        | Some mss ->
            t.stats.validated <- t.stats.validated + 1;
            Some { raddr; rport; irs = Codec.m32 (seq - 1); iss; mss }
        | None -> None)
  in
  if Option.is_none r then t.stats.rejected <- t.stats.rejected + 1;
  r

(* Listener close or memory-pressure reclaim: entries hold no segments, so
   dropping the list frees everything (a late ACK gets the cookie check). *)
let drop_all t l =
  if l.entries <> [] then begin
    t.stats.evicted <- t.stats.evicted + List.length l.entries;
    l.entries <- []
  end
