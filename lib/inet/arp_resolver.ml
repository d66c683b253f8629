(* ARP resolution policy, written once for both stacks (if_ether.c's
   table, plus the bounded waiter queue and request backoff both stacks
   grew on top of it).  Resolution table keyed by IP; an unresolved
   destination holds a queue of waiting packets that is flushed, oldest
   first, when the reply arrives.  The donors hold one packet and retry
   on a 5-minute timer; we keep a few waiters, retry with exponential
   backoff, and give up after a handful of tries — failing (and freeing,
   via each waiter's [on_drop]) everything still queued, as if_ether.c's
   arptfree path does.

   How one ARP frame is built and sent stays with each stack — an mbuf
   through [Netif.ether_output] on BSD, an sk_buff through
   [hard_start_xmit] on Linux — and is passed in as [send].  [send] is
   best-effort and must not raise on a refused buffer: a request lost to
   memory pressure is indistinguishable from one lost on the wire, and
   the backoff timer re-sends it. *)

type waiter = {
  deliver : string -> unit; (* continuation awaiting the MAC *)
  on_drop : unit -> unit; (* called instead if resolution fails *)
}

type pending = {
  waiters : waiter Queue.t; (* oldest first *)
  mutable tries : int;
  mutable timer : World.event option;
}

type entry = Resolved of string | Pending of pending

type send = op:int -> dst_mac:string -> target_mac:string -> target_ip:int32 -> unit

type t = {
  machine : Machine.t;
  send : send;
  table : (int32, entry) Hashtbl.t;
  mutable requests : int;
  mutable replies : int;
  mutable waiters_dropped : int; (* queue overflow, drop-head *)
  mutable abandoned : int; (* retries exhausted *)
}

(* Queue/retry limits.  Base interval doubles per try: 0.5 s, 1 s, 2 s... *)
let max_waiters = 16
let max_tries = 5
let retry_base_ns = 500_000_000

let broadcast = "\xff\xff\xff\xff\xff\xff"
let unknown_mac = "\000\000\000\000\000\000"

let create machine ~send =
  { machine; send; table = Hashtbl.create 16; requests = 0; replies = 0;
    waiters_dropped = 0; abandoned = 0 }

let request t ip =
  t.requests <- t.requests + 1;
  t.send ~op:Codec.arp_request ~dst_mac:broadcast ~target_mac:unknown_mac ~target_ip:ip

(* Retry with backoff; on exhaustion tear the entry down and fail every
   queued waiter so its buffer is freed, not leaked. *)
let rec schedule_retry t ip p =
  let delay = retry_base_ns * (1 lsl (p.tries - 1)) in
  p.timer <-
    Some
      (Machine.after t.machine delay (fun () ->
           p.timer <- None;
           if p.tries >= max_tries then begin
             Hashtbl.remove t.table ip;
             t.abandoned <- t.abandoned + 1;
             Queue.iter (fun w -> w.on_drop ()) p.waiters;
             Queue.clear p.waiters
           end
           else begin
             p.tries <- p.tries + 1;
             request t ip;
             schedule_retry t ip p
           end))

(* Call [deliver mac] now if cached, else queue and broadcast.  A full
   queue drops its oldest waiter (drop-head, like a device tx ring): the
   newest packet is the one the caller's retransmit machinery is least
   likely to have given up on. *)
let resolve t ip ?(on_drop = fun () -> ()) deliver =
  match Hashtbl.find_opt t.table ip with
  | Some (Resolved mac) -> deliver mac
  | Some (Pending p) ->
      if Queue.length p.waiters >= max_waiters then begin
        t.waiters_dropped <- t.waiters_dropped + 1;
        (Queue.take p.waiters).on_drop ()
      end;
      Queue.add { deliver; on_drop } p.waiters
  | None ->
      let p = { waiters = Queue.create (); tries = 1; timer = None } in
      Queue.add { deliver; on_drop } p.waiters;
      Hashtbl.replace t.table ip (Pending p);
      request t ip;
      schedule_retry t ip p

(* One received ARP message of [len] bytes at [off] in [d].  [release]
   returns the stack's buffer and runs on every path, the reply's and the
   waiters' included. *)
let input t ~my_ip d ~off ~len ~release =
  Fun.protect ~finally:release (fun () ->
      match Codec.parse_arp d ~off ~len with
      | None -> ()
      | Some a ->
          (* Learn the sender either way (donor behaviour). *)
          let prev = Hashtbl.find_opt t.table a.Codec.spa in
          Hashtbl.replace t.table a.Codec.spa (Resolved a.Codec.sha);
          (match prev with
          | Some (Pending p) ->
              Option.iter World.cancel p.timer;
              p.timer <- None;
              Queue.iter (fun w -> w.deliver a.Codec.sha) p.waiters;
              Queue.clear p.waiters
          | Some (Resolved _) | None -> ());
          if a.Codec.op = Codec.arp_request && Int32.equal a.Codec.tpa my_ip then begin
            t.replies <- t.replies + 1;
            t.send ~op:Codec.arp_reply ~dst_mac:a.Codec.sha ~target_mac:a.Codec.sha
              ~target_ip:a.Codec.spa
          end)
