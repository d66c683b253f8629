(* ENCAPSULATED LEGACY CODE — the Linux 2.0.29 inet stack, abridged: arp.c,
 * ip.c (no fragmentation — TCP at MSS 1460 never fragments on a local
 * Ethernet), tcp.c and the socket glue.  Everything traffics in contiguous
 * sk_buffs end to end — the property that makes the monolithic Linux rows
 * of Tables 1 and 2 behave differently from BSD.
 *
 * The TCP keeps Linux 2.0's observable behaviour on a LAN: one copy
 * user->skb on send, MSS-sized segments, an ACK for every data segment
 * (2.0 had no effective delayed-ACK coalescing), slow start with a coarse
 * retransmit timer, and out-of-order segments held for reassembly.  It
 * speaks standard TCP on the wire and interoperates with the BSD stack.
 *)

let eth_hlen = 14
let mss = 1460
let default_window = 32 * 1024
let rexmt_ns = 300_000_000
let time_wait_ns = 2_000_000_000

let th_fin = 0x01
let th_syn = 0x02
let th_rst = 0x04
let th_ack = 0x10

type tcp_state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_recv
  | Established
  | Fin_wait1
  | Fin_wait2
  | Closing (* the FINs crossed; ours not yet acknowledged *)
  | Close_wait
  | Last_ack
  | Time_wait

type rexmt_entry = { rx_seq : int; rx_end : int; rx_frame : Skbuff.sk_buff }

type sock = {
  stack : stack;
  mutable state : tcp_state;
  mutable lport : int;
  mutable rport : int;
  mutable raddr : int32;
  mutable iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable smss : int; (* per-connection MSS (Cost.config.tcp_mss, peer-clamped) *)
  (* RFC 1323 window scaling (Cost.config.tcp_wscale): [snd_scale] shifts
     incoming window fields, [rcv_scale] ours; 0 until negotiated. *)
  mutable snd_scale : int;
  mutable rcv_scale : int;
  mutable peer_wscale : int; (* scale the peer's SYN offered; -1 = none *)
  (* NewReno fast retransmit/recovery *)
  mutable dupacks : int;
  mutable recover : int; (* snd_nxt at recovery entry *)
  (* RTT estimation, Jacobson in nanoseconds (2.0 had none here: the
     stack retransmitted on a fixed coarse timer only) *)
  mutable srtt_ns : int;
  mutable rttvar_ns : int;
  mutable rto_ns : int;
  mutable rtt_seq : int; (* end seq of the timed segment *)
  mutable rtt_ts : int; (* ns at transmit; 0 = no sample in flight (Karn) *)
  mutable fin_queued : bool;
  rexmt_q : rexmt_entry Queue.t; (* in sequence order, so the acked are a prefix *)
  (* 2.0's partial packet (sk->partial): the short tail of a write, held
     while segments are in flight unless [nonagle] (TCP_NODELAY) is set,
     and filled by the next write.  Its bytes are accepted but not yet
     sent: they lie past snd_nxt. *)
  mutable partial : Bytes.t;
  mutable partial_len : int;
  mutable partial_armed : bool;
  mutable partial_stamp : int; (* when it was last filled: its timer's start *)
  mutable nonagle : bool;
  (* zero-window persist probing *)
  mutable persist_armed : bool;
  mutable persist_shift : int;
  (* receive side *)
  mutable rcv_nxt : int;
  mutable rcv_buf_max : int; (* receive-queue bound; autotuning grows it *)
  mutable adv_wnd : int; (* last window we advertised, post-scale *)
  rxclump : Autotune.clump; (* receive-buffer autotuning *)
  rcv_q : Skbuff.sk_buff Queue.t; (* in-order payload skbs (data at head) *)
  mutable rcv_q_bytes : int;
  (* Out-of-order reassembly, bounded by the receive buffer: without it
     every loss becomes a go-back-N replay of the window behind it. *)
  mutable ooo_q : (int * Skbuff.sk_buff) list; (* (seq, payload), seq-sorted *)
  mutable ooo_bytes : int;
  mutable head_consumed : int;
  mutable peer_fin : bool;
  syn_cache : Syncache.listener; (* listeners only *)
  conn : sock Conn_table.entry; (* this sock's place in the connection table *)
  mutable err : Error.t option;
  sleep : Sleep_record.t;
  mutable rexmt_armed : bool;
  mutable rexmt_stamp : int; (* when the current queue head began waiting: set
     on the empty->non-empty queue transition, on snd_una advance, and on a
     retransmission.  The coarse timer checks it on fire so a fire armed long
     ago cannot retransmit a freshly sent (or freshly replaced) head. *)
  mutable rexmt_shift : int; (* backoff exponent; reset when an ACK advances *)
  mutable nb : bool; (* O_NONBLOCK *)
  listeners : Io_if.Listeners.t; (* oskit_asyncio's, notified by [wake] *)
}

and stack = {
  machine : Machine.t;
  mutable dev : Linux_eth_drv.device option;
  mutable my_ip : int32;
  mutable my_mask : int32;
  arp : Arp_resolver.t;
  conns : sock Conn_table.t; (* lib/inet's connection table *)
  mutable next_iss : int;
  mutable ip_id : int;
  mutable segs_out : int;
  mutable segs_in : int;
  mutable rexmits : int;
  (* netstat-style drop accounting *)
  mutable ipbadsum : int;       (* IP header checksum failures *)
  mutable tcpbadsum : int;      (* TCP checksum failures *)
  mutable rcvdup : int;         (* data at or below rcv_nxt, dropped *)
  mutable rcvoo : int;          (* data beyond rcv_nxt, held for reassembly *)
  mutable rcvfull : int;        (* in-order data dropped: receive queue full *)
  mutable rexmt_give_ups : int; (* connections reset by the rexmt backstop *)
  mutable persist_probes : int; (* zero-window probes sent by the persist timer *)
  mutable listen_overflow : int; (* SYNs dropped: listen queue full *)
  mutable predack : int;  (* header prediction: pure ACK hits *)
  mutable preddat : int;  (* header prediction: in-order data hits *)
  mutable predfallback : int; (* established-state segments that missed *)
  (* overload survival, the shared lib/inet policy *)
  syncache : Syncache.t;
  err_bucket : Token_bucket.t;
  mutable time_wait_reclaimed : int;
  mutable nomem_drops : int;    (* segments/frames dropped for want of an skb *)
  mutable rst_ratelimited : int;
}

let dev_of t = match t.dev with Some d -> d | None -> Error.fail Error.Nodev

(* Build one ARP message in a fresh skb and transmit it.  Best effort, as
   the resolver requires: a refused skb is a frame lost on the wire, and
   must not raise — retries fire from a timer callback. *)
let arp_output t ~op ~dst_mac ~target_mac ~target_ip =
  let dev = dev_of t in
  match Skbuff.alloc_skb (eth_hlen + Codec.arp_len + 16) with
  | exception Memfault.Nomem -> ()
  | skb ->
      Skbuff.skb_reserve skb eth_hlen;
      let off = Skbuff.skb_put skb Codec.arp_len in
      Codec.write_arp skb.Skbuff.skb_data ~off ~op ~sha:dev.Linux_eth_drv.dev_addr ~spa:t.my_ip
        ~tha:target_mac ~tpa:target_ip;
      Linux_eth_drv.eth_header skb ~src:dev.Linux_eth_drv.dev_addr ~dst:dst_mac ~proto:0x0806;
      Linux_eth_drv.hard_start_xmit dev skb;
      (* The card has copied the frame out; retire the buffer. *)
      Skbuff.skb_free skb

let create machine =
  (* Lazy only so the resolver's [send] can name the stack it belongs to. *)
  let rec t =
    lazy
      { machine; dev = None; my_ip = 0l; my_mask = 0l;
        arp =
          Arp_resolver.create machine ~send:(fun ~op ~dst_mac ~target_mac ~target_ip ->
              arp_output (Lazy.force t) ~op ~dst_mac ~target_mac ~target_ip);
        conns =
          Conn_table.create machine ~entry:(fun s -> s.conn)
            ~embryonic:(fun s -> s.state = Syn_recv);
        next_iss = 99000;
        ip_id = 1; segs_out = 0; segs_in = 0; rexmits = 0; ipbadsum = 0; tcpbadsum = 0;
        rcvdup = 0; rcvoo = 0; rcvfull = 0;
        rexmt_give_ups = 0; persist_probes = 0; listen_overflow = 0; predack = 0;
        preddat = 0; predfallback = 0; syncache = Syncache.create ~secret:0x327b23c6;
        err_bucket = Token_bucket.create machine; time_wait_reclaimed = 0; nomem_drops = 0;
        rst_ratelimited = 0 }
  in
  Lazy.force t

(* A dead connection's held frames: the retransmission queue (nobody will
   resend it, and an armed timer finding it empty stands down) and the
   reassembly queue (nobody will read it). *)
let retire_queues s =
  Queue.iter (fun e -> Skbuff.skb_free e.rx_frame) s.rexmt_q;
  Queue.clear s.rexmt_q;
  s.partial_len <- 0;
  List.iter (fun (_, skb) -> Skbuff.skb_free skb) s.ooo_q;
  s.ooo_q <- [];
  s.ooo_bytes <- 0

(* Arm a per-flow timer on the flow's home CPU, so the fire (retransmit,
   probe, TIME_WAIT reclaim) charges that CPU's clock.  On one CPU the
   home CPU is CPU 0 and this is exactly [Machine.after]. *)
let after_home t s dt f =
  ignore (Machine.at_on t.machine ~cpu:s.conn.Conn_table.home (Machine.now t.machine + dt) f)

let ifconfig t ~addr ~mask =
  t.my_ip <- addr;
  t.my_mask <- mask

(* ---- IP ---- *)

(* [skb] carries the transport payload; push the IP header and transmit.
   [free_after] retires the buffer once the frame is on the wire — also
   when ARP defers the transmit into a continuation; frames kept for
   retransmission must not set it. *)
let ip_output t ?(free_after = false) ~proto ~dst skb =
  let off = Skbuff.skb_push skb Codec.ip_hlen in
  Codec.write_ip skb.Skbuff.skb_data ~off ~total:skb.Skbuff.len ~id:t.ip_id ~more_frags:false
    ~frag_off:0 ~ttl:64 ~proto ~src:t.my_ip ~dst;
  t.ip_id <- (t.ip_id + 1) land 0xffff;
  let dev = dev_of t in
  (* If ARP gives up, a fire-and-forget frame is freed here; a frame queued
     for retransmission stays owned by its socket's rexmt machinery (and is
     never handed to the device without a link header — see arm_rexmt). *)
  Arp_resolver.resolve t.arp dst
    ~on_drop:(fun () -> if free_after then Skbuff.skb_free skb)
    (fun mac ->
      Linux_eth_drv.eth_header skb ~src:dev.Linux_eth_drv.dev_addr ~dst:mac ~proto:0x0800;
      Linux_eth_drv.hard_start_xmit dev skb;
      if free_after then Skbuff.skb_free skb)

(* ---- TCP ---- *)

let next_iss t =
  t.next_iss <- Codec.m32 (t.next_iss + 64000);
  t.next_iss

let inflight s = Codec.seq_diff s.snd_nxt s.snd_una

let rcv_window s = max 0 (s.rcv_buf_max - s.rcv_q_bytes)

(* What the congestion and send windows still admit. *)
let usable s = min s.cwnd s.snd_wnd - inflight s

let rexmt_max_shift = 6

(* The retransmission-queue bound: 64 whole frames, as 2.0 shipped — but a
   window-scaled connection needs the queue to cover the window or the
   guard, not the peer, becomes the throughput ceiling. *)
let rexmt_q_limit s =
  if s.snd_scale = 0 then 64
  else max 64 (2 * min s.cwnd s.snd_wnd / max 1 s.smss)

(* Peer offered wscale on its SYN; if the knob is on we offered (or will
   offer) too, so windows are scaled from the end of the handshake. *)
let setup_scaling s ~peer =
  s.peer_wscale <- min 14 peer;
  if Cost.config.tcp_wscale then begin
    s.snd_scale <- min 14 peer;
    s.rcv_scale <- Autotune.request_scale ();
    s.ssthresh <- max s.ssthresh (0xffff lsl s.snd_scale)
  end

(* Current readiness, an [Io_if.aio_*] bitmask.  Mirrors what the blocking
   calls below would do without sleeping: readable = recv or accept
   returns immediately, writable = send can emit at least one segment
   (a full one while others are in flight: see [send]), exception = a
   pending socket error. *)
let sock_readiness s =
  let rd =
    match s.state with
    | Listen -> Conn_table.acceptable s.stack.conns s
    | Closed -> true
    | _ -> s.rcv_q_bytes > 0 || s.peer_fin
  in
  let wr =
    match s.state with
    | Established | Close_wait ->
        let room = usable s in
        (room >= s.smss || (room > 0 && inflight s = 0))
        && Queue.length s.rexmt_q <= rexmt_q_limit s
    | Closed -> true
    | _ -> false
  in
  let ex = s.err <> None in
  (if rd then Io_if.aio_read else 0)
  lor (if wr then Io_if.aio_write else 0)
  lor if ex then Io_if.aio_exception else 0

let readable_bytes s = s.rcv_q_bytes

(* Every protocol event funnels through here: wake the blocking waiter and
   run any asyncio listeners.  The listener scan is a no-op when nothing is
   registered, so the blocking-only paths Table 1/2 measures are
   untouched. *)
let wake s =
  Sleep_record.wakeup s.sleep;
  Io_if.Listeners.notify s.listeners (fun () -> sock_readiness s)
let set_nonblock s v = s.nb <- v
let set_nodelay s v = s.nonagle <- v

(* ---- overload policy (lib/inet) ---- *)

(* Retire one TIME_WAIT record early (the tw_max cap, memory pressure);
   its pending 2xMSL callback is a no-op once it left the queue. *)
let lx_close_tw t r =
  t.time_wait_reclaimed <- t.time_wait_reclaimed + 1;
  Conn_table.release t.conns r

(* The connection's part in TIME_WAIT passes to a compact record in the
   table (tcp_tw_bucket), which the 2xMSL callback releases; a socket the
   user still holds keeps the sock, reading TIME_WAIT, and what it has
   yet to read.  Both FINs are acknowledged by now (CLOSING waits for
   ours), so the record has nothing to retransmit. *)
let lx_enter_time_wait t s =
  s.state <- Time_wait;
  let r =
    Conn_table.time_wait t.conns s ~laddr:t.my_ip ~snd_nxt:s.snd_nxt ~rcv_nxt:s.rcv_nxt
      ~win:(rcv_window s) ~scale:s.rcv_scale
      ~expires:(Machine.now t.machine + time_wait_ns)
      ~retire:(lx_close_tw t)
  in
  ignore
    (Machine.at_on t.machine ~cpu:r.Tw_queue.tw_home r.Tw_queue.tw_expires (fun () ->
         if r.Tw_queue.tw_queued then Conn_table.release t.conns r))

(* Memory pressure: shed the coldest protocol state — every TIME_WAIT
   record and every cached half-open handshake (cookies still complete
   those statelessly). *)
let lx_reclaim t =
  Conn_table.reclaim t.conns ~retire:(lx_close_tw t) (fun l ->
      Syncache.drop_all t.syncache l.syn_cache)

(* The no-sock RST passes the token bucket. *)
let lx_err_allowed t =
  Token_bucket.allow t.err_bucket
  || begin
       t.rst_ratelimited <- t.rst_ratelimited + 1;
       false
     end

(* Build one segment in a fresh contiguous skb: charge and count it, copy
   [payload] in (the send-path copy), checksum it.  [win] is the window
   field as sent.  Raises [Memfault.Nomem], before any charge, when the
   allocation-failure injector refuses the skb. *)
let build_segment t ~lport ~rport ~raddr ~seq ~ack ~flags ~win ~mss ~wscale ~payload =
  let plen = match payload with Some (_, _, len) -> len | None -> 0 in
  let hlen = Codec.tcp_header_len ~mss ~wscale in
  let skb = Skbuff.alloc_skb (eth_hlen + Codec.ip_hlen + hlen + plen + 16) in
  Cost.charge Protocol Cost.config.linux_tcp_pkt_cycles;
  t.segs_out <- t.segs_out + 1;
  Skbuff.skb_reserve skb (eth_hlen + Codec.ip_hlen);
  let off = Skbuff.skb_put skb (hlen + plen) in
  let d = skb.Skbuff.skb_data in
  Codec.write_tcp d ~off ~sport:lport ~dport:rport ~seq ~ack ~flags ~win ~mss ~wscale;
  (match payload with
  | Some (src, pos, len) ->
      Cost.charge_copy len;
      Bytes.blit src pos d (off + hlen) len
  | None -> ());
  let total = hlen + plen in
  Codec.set_tcp_cksum d ~off ~zero_as_ones:false
    (Codec.cksum_bytes d ~off ~len:total
       ~init:(Codec.pseudo_header ~src:t.my_ip ~dst:raddr ~proto:6 ~len:total));
  skb

(* A refused skb is a counted drop — the same recovery story as a frame
   lost on the wire — and triggers a reclaim. *)
let refused t =
  t.nomem_drops <- t.nomem_drops + 1;
  lx_reclaim t

(* A header-only segment nothing will retransmit: an RST, a SYN-ACK or
   an ACK with no sock behind it. *)
let send_bare t ~lport ~rport ~raddr ~seq ~ack ~flags ~win =
  match
    build_segment t ~lport ~rport ~raddr ~seq ~ack ~flags ~win ~mss:None ~wscale:None
      ~payload:None
  with
  | exception Memfault.Nomem -> refused t
  | skb -> ip_output t ~free_after:true ~proto:6 ~dst:raddr skb

(* Send one segment of [s]; the finished frame is kept for retransmission
   when [queue] is set.  Returns whether a frame actually went out. *)
let rec tcp_xmit t s ~seq ~flags ~payload ~queue =
  let plen = match payload with Some (_, _, len) -> len | None -> 0 in
  (* SYN options — only with Cost.config.tcp_wscale, so the 2.0-faithful
     bare-header wire format (and the Table 1/2 baselines) is untouched by
     default.  A SYN-ACK offers wscale only if the peer's SYN did. *)
  let syn = flags land th_syn <> 0 in
  let emit_opts =
    syn && Cost.config.tcp_wscale
    && (flags land th_ack = 0 || s.peer_wscale >= 0)
  in
  let mss, wscale = if emit_opts then Some s.smss, Some (Autotune.request_scale ()) else None, None in
  (* RFC 1323: the window field is scaled except on SYN segments. *)
  let win =
    if syn then min 0xffff (rcv_window s)
    else min 0xffff (rcv_window s asr s.rcv_scale)
  in
  match
    build_segment t ~lport:s.lport ~rport:s.rport ~raddr:s.raddr ~seq
      ~ack:(if flags land th_ack <> 0 then s.rcv_nxt else 0)
      ~flags ~win ~mss ~wscale ~payload
  with
  | exception Memfault.Nomem ->
      refused t;
      false
  | skb ->
  s.adv_wnd <- (if syn then win else win lsl s.rcv_scale);
  let seg_bytes =
    (if flags land th_syn <> 0 then 1 else 0)
    + (if flags land th_fin <> 0 then 1 else 0)
    + plen
  in
  let queued = queue && seg_bytes > 0 in
  if queued then begin
    if Queue.is_empty s.rexmt_q then s.rexmt_stamp <- Machine.now t.machine;
    Queue.push { rx_seq = seq; rx_end = Codec.m32 (seq + seg_bytes); rx_frame = skb } s.rexmt_q;
    (* Start an RTT sample on fresh data when none is in flight.  Only
       tcp_xmit sends first transmissions — every retransmit path resends
       the queued frame directly and discards the pending sample, so a
       sample can never cover a retransmitted range (Karn's rule). *)
    if s.rtt_ts = 0 then begin
      s.rtt_ts <- Machine.now t.machine;
      s.rtt_seq <- Codec.m32 (seq + seg_bytes)
    end
  end;
  (* Unqueued frames (pure ACKs, RSTs) die on the wire; queued ones are
     retired when the ACK covers them. *)
  ip_output t ~free_after:(not queued) ~proto:6 ~dst:s.raddr skb;
  arm_rexmt t s;
  true

(* Retransmission: resend the oldest unacked frame as-is.  The timer backs
   off exponentially (Linux 2.0's coarse doubling) and, after enough barren
   fires, gives the connection up — the backstop that stops a dead peer or
   an unresolvable ARP entry from retransmitting forever. *)
and arm_rexmt t s =
  if (not s.rexmt_armed) && not (Queue.is_empty s.rexmt_q) then begin
    s.rexmt_armed <- true;
    let rec schedule delay =
      ignore
        (after_home t s delay (fun () ->
             match Queue.peek_opt s.rexmt_q with
             | None -> s.rexmt_armed <- false
             | Some entry ->
                 let full = s.rto_ns * (1 lsl min s.rexmt_shift rexmt_max_shift) in
                 let age = Machine.now t.machine - s.rexmt_stamp in
                 if age < full then
                   (* The head changed (or was sent) after this fire was
                      armed — it has not actually waited a full RTO.  Check
                      again when it will have. *)
                   schedule (full - age)
                 else if s.rexmt_shift >= rexmt_max_shift then begin
                   (* Give up: error the socket and free every queued frame. *)
                   s.rexmt_armed <- false;
                   t.rexmt_give_ups <- t.rexmt_give_ups + 1;
                   retire_queues s;
                   s.err <- Some Error.Timedout;
                   s.state <- Closed;
                   Conn_table.detach t.conns s;
                   wake s
                 end
                 else begin
                   t.rexmits <- t.rexmits + 1;
                   s.rexmt_shift <- s.rexmt_shift + 1;
                   s.ssthresh <- max (2 * s.smss) (min s.cwnd s.snd_wnd / 2);
                   s.cwnd <- s.smss;
                   (* Karn: a retransmission makes any pending RTT sample
                      ambiguous, and ends fast recovery. *)
                   s.rtt_ts <- 0;
                   s.dupacks <- 0;
                   s.rexmt_stamp <- Machine.now t.machine;
                   (* The queued frame carries IP+ether headers from its first
                      transmission — unless ARP never resolved, in which case
                      the header was never built and the frame must wait. *)
                   if entry.rx_frame.Skbuff.link_ready then
                     Linux_eth_drv.hard_start_xmit (dev_of t) entry.rx_frame;
                   schedule (s.rto_ns * (1 lsl min s.rexmt_shift rexmt_max_shift))
                 end))
    in
    schedule (s.rto_ns * (1 lsl min s.rexmt_shift rexmt_max_shift))
  end

(* Zero-window persist probing (the BSD stack's persist_timeout, ported):
   a sender parked in [send] with nothing in flight has no retransmit
   timer, so a lost window-update ACK would otherwise strand it forever.
   Probe with one byte *below* snd_una — both stacks drop it as a
   duplicate and answer with an ACK carrying the current window, so no
   sequence space is consumed and no state can desynchronize. *)
and arm_persist t s =
  if not s.persist_armed then begin
    s.persist_armed <- true;
    let delay = s.rto_ns * (1 lsl min s.persist_shift rexmt_max_shift) in
    ignore
      (after_home t s delay (fun () ->
           s.persist_armed <- false;
           let blocked =
             (match s.state with Established | Close_wait -> true | _ -> false)
             && Queue.is_empty s.rexmt_q
             && min s.cwnd s.snd_wnd <= inflight s
           in
           if blocked then begin
             t.persist_probes <- t.persist_probes + 1;
             s.persist_shift <- min (s.persist_shift + 1) rexmt_max_shift;
             let probe = Bytes.make 1 '\000' in
             ignore
               (tcp_xmit t s ~seq:(Codec.m32 (s.snd_nxt - 1)) ~flags:th_ack
                  ~payload:(Some (probe, 0, 1)) ~queue:false);
             arm_persist t s
           end
           else s.persist_shift <- 0))
  end

(* 2.0's partial-packet timer: a partial packet waits at most
   [partial_ns] after its last fill (tcp_enqueue_partial's jiffies+HZ),
   then leaves as far as the window takes it. *)
let partial_ns = 1_000_000_000

(* Transmit the partial packet: whole if the window takes it, or, with
   nothing in flight, as much as the window takes.  Returns whether a
   segment went. *)
let send_partial t s =
  let n = min s.partial_len (usable s) in
  n > 0
  && (n = s.partial_len || inflight s = 0)
  && Queue.length s.rexmt_q <= rexmt_q_limit s
  && tcp_xmit t s ~seq:s.snd_nxt ~flags:th_ack ~payload:(Some (s.partial, 0, n)) ~queue:true
  && begin
       s.snd_nxt <- Codec.m32 (s.snd_nxt + n);
       Bytes.blit s.partial n s.partial 0 (s.partial_len - n);
       s.partial_len <- s.partial_len - n;
       true
     end

(* Restart the partial packet's timer; one fire is armed at a time. *)
let rec arm_partial t s =
  s.partial_stamp <- Machine.now t.machine;
  if not s.partial_armed then begin
    s.partial_armed <- true;
    let rec schedule delay =
      ignore
        (after_home t s delay (fun () ->
             let age = Machine.now t.machine - s.partial_stamp in
             if s.partial_len = 0 then s.partial_armed <- false
             else if age < partial_ns then schedule (partial_ns - age)
             else begin
               s.partial_armed <- false;
               match s.state with
               | Established | Close_wait ->
                   if not (send_partial t s) then begin
                     arm_persist t s;
                     arm_partial t s
                   end
               | _ -> ()
             end))
    in
    schedule partial_ns
  end

(* Nagle's rule for the partial packet: it may leave once full, when
   nothing is in flight, or at once under TCP_NODELAY. *)
let partial_due s = s.partial_len >= s.smss || inflight s = 0 || s.nonagle

let send_ack t s =
  (* A pure ACK refused by the allocator is recovered exactly like one
     lost on the wire: the peer retransmits. *)
  ignore (tcp_xmit t s ~seq:s.snd_nxt ~flags:th_ack ~payload:None ~queue:false)

(* A fresh sock, not yet in the connection table. *)
let blank_sock t =
  { stack = t; state = Closed; lport = 0; rport = 0; raddr = 0l; iss = 0; snd_una = 0;
    snd_nxt = 0; snd_wnd = default_window; cwnd = Cost.config.tcp_mss;
    ssthresh = 64 * 1024;
    smss = Cost.config.tcp_mss; snd_scale = 0; rcv_scale = 0; peer_wscale = -1;
    dupacks = 0; recover = 0; srtt_ns = 0; rttvar_ns = 0; rto_ns = rexmt_ns;
    rtt_seq = 0; rtt_ts = 0;
    fin_queued = false; rexmt_q = Queue.create (); partial = Bytes.empty; partial_len = 0;
    partial_armed = false; partial_stamp = 0; nonagle = false; persist_armed = false;
    persist_shift = 0; rcv_nxt = 0; rcv_q = Queue.create ();
    rcv_q_bytes = 0; ooo_q = []; ooo_bytes = 0;
    rcv_buf_max = default_window; adv_wnd = default_window; rxclump = Autotune.clump ();
    head_consumed = 0; peer_fin = false; syn_cache = Syncache.listener ();
    conn = Conn_table.entry (); err = None; sleep = Sleep_record.create ~name:"lx_sock" ();
    rexmt_armed = false; rexmt_stamp = 0; rexmt_shift = 0; nb = false;
    listeners = Io_if.Listeners.create () }

(* A minimal unsocketed RST, offering a fresh sock's window. *)
let send_rst_for t ~src ~sport ~dport ~ack =
  send_bare t ~lport:dport ~rport:sport ~raddr:src ~seq:ack ~ack:0 ~flags:th_rst
    ~win:default_window

(* A SYN-ACK with no sock behind it (Cost.config.syn_defense): seq/ack
   come from the syncache entry or the cookie.  Never queued — losing it
   just means the client retransmits its SYN — and it carries no option
   (the cookie has no room to remember the peer's scale). *)
let lx_send_synack t ~raddr ~rport ~lport (e : Syncache.entry) =
  send_bare t ~lport ~rport ~raddr ~seq:e.Syncache.iss ~ack:(Codec.m32 (e.Syncache.irs + 1))
    ~flags:(th_syn lor th_ack) ~win:default_window

(* A SYN under the defense: cache the handshake and answer with a cookie
   ISS (or re-answer a retransmitted SYN from its entry).  No child sock
   exists until the ACK returns, so embryonic connections cost the
   listener nothing. *)
let lx_syncache_add t s ~src ~sport ~seq ~mss =
  lx_send_synack t ~raddr:src ~rport:sport ~lport:s.lport
    (Syncache.add t.syncache s.syn_cache ~raddr:src ~rport:sport ~lport:s.lport ~irs:seq ~mss
       ~own_mss:Cost.config.tcp_mss)

(* The completing ACK: from the syncache entry if it survived, else by
   validating the cookie echoed in ack-1.  Only now is a sock created —
   directly Established, straight onto the accept backlog. *)
let lx_syncache_expand t s ~src ~sport ~seq ~ack ~win =
  match Syncache.expand t.syncache s.syn_cache ~raddr:src ~rport:sport ~lport:s.lport ~seq ~ack with
  | None -> if lx_err_allowed t then send_rst_for t ~src ~sport ~dport:s.lport ~ack
  | Some { Syncache.iss; irs; mss; _ } ->
      if not (Conn_table.admits_cookie t.conns s) then
        (* Accept queue full: drop the ACK; the peer retransmits it and the
           cookie completes once there is room. *)
        t.listen_overflow <- t.listen_overflow + 1
      else begin
        let c = blank_sock t in
        c.state <- Established;
        c.nonagle <- s.nonagle;
        c.lport <- s.lport;
        c.rport <- sport;
        c.raddr <- src;
        Conn_table.child t.conns c ~parent:s ~laddr:t.my_ip ~raddr:src ~rport:sport;
        c.iss <- iss;
        c.snd_una <- Codec.m32 (iss + 1);
        c.snd_nxt <- Codec.m32 (iss + 1);
        c.rcv_nxt <- Codec.m32 (irs + 1);
        c.smss <- mss;
        c.snd_wnd <- win;
        c.cwnd <- 2 * c.smss;
        Conn_table.established t.conns c;
        wake s;
        wake c
      end

(* Retire every queued frame the ACK covers: a prefix of the queue,
   freed oldest first. *)
let rec drop_acked s ack =
  if (not (Queue.is_empty s.rexmt_q)) && not (Codec.seq_gt (Queue.peek s.rexmt_q).rx_end ack)
  then begin
    Skbuff.skb_free (Queue.pop s.rexmt_q).rx_frame;
    drop_acked s ack
  end

(* Resend the oldest unacked frame as-is — same mechanics as the RTO path.
   Karn: whatever RTT sample was pending is now ambiguous. *)
let retransmit_head t s =
  s.rtt_ts <- 0;
  match Queue.peek_opt s.rexmt_q with
  | None -> ()
  | Some e ->
      t.rexmits <- t.rexmits + 1;
      s.rexmt_stamp <- Machine.now t.machine;
      if e.rx_frame.Skbuff.link_ready then
        Linux_eth_drv.hard_start_xmit (dev_of t) e.rx_frame

(* Jacobson/Karels in nanoseconds; the RTO keeps 2.0's coarse 300 ms floor
   so the clean-path timer schedule is exactly the donor's. *)
let tcp_rtt_sample s m =
  if s.srtt_ns = 0 then begin
    s.srtt_ns <- m;
    s.rttvar_ns <- m / 2
  end
  else begin
    let err = m - s.srtt_ns in
    s.srtt_ns <- max 1 (s.srtt_ns + (err asr 3));
    s.rttvar_ns <- max 1 (s.rttvar_ns + ((abs err - s.rttvar_ns) asr 2))
  end;
  s.rto_ns <- max rexmt_ns (s.srtt_ns + (4 * s.rttvar_ns))

(* Drop acknowledged segments from the retransmission queue. *)
let ack_advance t s ack =
  if Codec.seq_gt ack s.snd_una then begin
    s.snd_una <- ack;
    drop_acked s ack;
    s.rexmt_shift <- 0;
    s.rexmt_stamp <- Machine.now t.machine;
    if s.cwnd < s.ssthresh then s.cwnd <- s.cwnd + s.smss
    else s.cwnd <- s.cwnd + max 1 (s.smss * s.smss / s.cwnd);
    ignore t;
    wake s
  end

(* An ACK that advances snd_una: sample the RTT (Karn-guarded), then either
   continue NewReno recovery on a partial ACK or leave it and grow cwnd. *)
let tcp_ack t s ack =
  if s.rtt_ts > 0 && Codec.seq_geq ack s.rtt_seq then begin
    tcp_rtt_sample s (Machine.now t.machine - s.rtt_ts);
    s.rtt_ts <- 0
  end;
  if s.dupacks >= 3 && Codec.seq_lt ack s.recover then begin
    (* NewReno partial ACK: the next segment of the same window is lost
       too — plug it now, deflate by the amount acked, stay in recovery. *)
    let acked = Codec.seq_diff ack s.snd_una in
    s.snd_una <- ack;
    drop_acked s ack;
    s.rexmt_shift <- 0;
    s.rexmt_stamp <- Machine.now t.machine;
    retransmit_head t s;
    s.cwnd <- max s.smss (s.cwnd - acked + s.smss);
    wake s
  end
  else begin
    (* A full ACK leaves fast recovery: deflate to ssthresh. *)
    if s.dupacks >= 3 then s.cwnd <- min s.cwnd s.ssthresh;
    s.dupacks <- 0;
    ack_advance t s ack
  end

(* Every ACK funnels through here:
   window update, dup-ACK counting with NewReno fast retransmit, and the
   zero-window-reopen wake that pairs with the persist timer. *)
let tcp_ack_in t s ~ack ~win ~dlen =
  let old_wnd = s.snd_wnd in
  s.snd_wnd <- win;
  if Codec.seq_gt ack s.snd_una then tcp_ack t s ack
  else if dlen = 0 && win = old_wnd && ack = s.snd_una && not (Queue.is_empty s.rexmt_q)
  then begin
    s.dupacks <- s.dupacks + 1;
    if s.dupacks = 3 then begin
      s.ssthresh <- max (2 * s.smss) (min s.cwnd s.snd_wnd / 2);
      s.recover <- s.snd_nxt;
      retransmit_head t s;
      s.cwnd <- s.ssthresh + (3 * s.smss);
      wake s
    end
    else if s.dupacks > 3 then begin
      s.cwnd <- s.cwnd + s.smss;
      wake s
    end
  end;
  (* A pure window update acks nothing, so ack_advance never wakes the
     sender it reopens the window for — wake it here (narrowly, so the
     clean path is untouched: a wake with no sleeper is a no-op). *)
  if s.snd_wnd > old_wnd && old_wnd < s.smss then wake s;
  (* The ACK that empties the flight releases a held partial packet
     (2.0's tcp_ack: packets_out == 0 && sk->partial). *)
  if s.partial_len > 0 && partial_due s then ignore (send_partial t s)

(* Header prediction (Cost.config.tcp_fastpath), the Linux analog: an
   established-state segment with no SYN/FIN/RST and an ACK, whose data —
   if any — is exactly in order and fits the receive queue.  It chooses
   the charge only: every segment then runs [tcp_rcv]'s state match, whose
   Established arm does nothing for such a segment beyond the ACK and the
   in-order append.  (Pure ACKs always qualify: 2.0's general arm treats
   every ACK alike.) *)
let fastpath_pred s ~seq ~flags ~dlen =
  s.state = Established
  && flags land (th_syn lor th_fin lor th_rst) = 0
  && flags land th_ack <> 0
  && (dlen = 0 || (seq = s.rcv_nxt && s.rcv_q_bytes + dlen <= s.rcv_buf_max))

let autotune_rcv t s ~dlen =
  s.rcv_buf_max <- Autotune.rcv s.rxclump t.machine ~dlen ~buf:s.rcv_buf_max

(* Out-of-order segment: hold it for reassembly.  Returns whether the skb
   was stored.  Counters keep their netstat meaning: rcvoo counts each
   segment held, rcvdup and rcvfull the ones dropped. *)
let ooo_insert t s ~seq skb =
  let dlen = skb.Skbuff.len in
  if List.exists (fun (q, _) -> q = seq) s.ooo_q then begin
    t.rcvdup <- t.rcvdup + 1;
    false
  end
  else if s.ooo_bytes + dlen > s.rcv_buf_max then begin
    t.rcvfull <- t.rcvfull + 1;
    false
  end
  else begin
    let rec ins = function
      | [] -> [ (seq, skb) ]
      | (q, _) :: _ as l when Codec.seq_lt seq q -> (seq, skb) :: l
      | e :: rest -> e :: ins rest
    in
    s.ooo_q <- ins s.ooo_q;
    s.ooo_bytes <- s.ooo_bytes + dlen;
    t.rcvoo <- t.rcvoo + 1;
    true
  end

(* After an in-order append advanced rcv_nxt, pull now-contiguous segments
   out of the reassembly queue (a no-op when it is empty). *)
let rec ooo_drain s =
  match s.ooo_q with
  | (q, skb) :: rest when Codec.seq_geq s.rcv_nxt q ->
      s.ooo_q <- rest;
      let len = skb.Skbuff.len in
      s.ooo_bytes <- s.ooo_bytes - len;
      let past = Codec.seq_diff s.rcv_nxt q in
      if past >= len then Skbuff.skb_free skb
      else begin
        if past > 0 then ignore (Skbuff.skb_pull skb past);
        let n = skb.Skbuff.len in
        Queue.add skb s.rcv_q;
        s.rcv_q_bytes <- s.rcv_q_bytes + n;
        s.rcv_nxt <- Codec.m32 (s.rcv_nxt + n)
      end;
      ooo_drain s
  | _ -> ()

(* A segment for a TIME_WAIT record: what [tcp_rcv]'s general arm does
   for a sock in TIME_WAIT.  Any RST releases it.  Data is counted as the
   arm counts it and ACKed — data past the peer's FIN too, which the
   record has no queue for and so does not take — and a FIN at [rcv_nxt]
   is ACKed again, as is a retransmitted FIN (RFC 793's ACK for a
   segment left of the window: the peer's ACK of it was lost).  2MSL
   runs on unchanged. *)
let lx_time_wait_input t r ~seq ~flags ~dlen =
  let open Tw_queue in
  if flags land th_rst <> 0 then Conn_table.release t.conns r
  else begin
    let rcv_nxt = r.tw_rcv_nxt in
    let send_ack () =
      send_bare t ~lport:r.tw_lport ~rport:r.tw_rport ~raddr:r.tw_raddr ~seq:r.tw_snd_nxt
        ~ack:rcv_nxt ~flags:th_ack ~win:(min 0xffff (r.tw_win asr r.tw_scale))
    in
    if dlen > 0 then begin
      if Codec.seq_lt seq rcv_nxt then t.rcvdup <- t.rcvdup + 1
      else if dlen > r.tw_win then t.rcvfull <- t.rcvfull + 1
      else if Codec.seq_gt seq rcv_nxt then t.rcvoo <- t.rcvoo + 1;
      send_ack ()
    end;
    let fin_end = Codec.m32 (seq + dlen) in
    if flags land th_fin <> 0 && (fin_end = rcv_nxt || Codec.m32 (fin_end + 1) = rcv_nxt) then
      send_ack ()
  end

let tcp_rcv t skb ~src =
  let fast = Cost.config.tcp_fastpath in
  Cost.charge Protocol
    (if fast then Cost.config.tcp_fastpath_cycles else Cost.config.linux_tcp_pkt_cycles);
  (* A segment that misses the prediction pays the balance of the general
     per-segment protocol cost, preserving the flags-off charge total for
     every slow-path segment. *)
  let slowpath () =
    if fast then
      Cost.charge Protocol
        (max 0 (Cost.config.linux_tcp_pkt_cycles - Cost.config.tcp_fastpath_cycles))
  in
  t.segs_in <- t.segs_in + 1;
  let d = skb.Skbuff.skb_data and o = skb.Skbuff.head in
  (* The buffer is consumed here unless it lands on a receive queue. *)
  let stored = ref false in
  let total = skb.Skbuff.len in
  (if total < Codec.tcp_hlen then slowpath ()
  else if
    Codec.cksum_bytes d ~off:o ~len:total
      ~init:(Codec.pseudo_header ~src ~dst:t.my_ip ~proto:6 ~len:total)
    <> 0
  then begin
    slowpath ();
    t.tcpbadsum <- t.tcpbadsum + 1
  end
  else
    (* TCP options (2.0 sent none; the BSD peer and our own wscale-mode
       SYNs do) are parsed before the header is stripped.  A data offset
       outside the segment is dropped like a runt. *)
    match Codec.parse_tcp d ~off:o ~len:total with
    | None -> slowpath ()
    | Some { Codec.sport; dport; seq; ack; hlen; flags; win; mss; wscale } -> (
      ignore (Skbuff.skb_pull skb hlen);
      let dlen = skb.Skbuff.len in
      match Conn_table.find t.conns ~raddr:src ~rport:sport ~lport:dport with
      | None ->
          slowpath ();
          (* The no-sock RST is this stack's generated-error path (it has
             no ICMP): a port scan must not turn the stack into a
             packet amplifier, so it shares the token bucket. *)
          if flags land th_rst = 0 && lx_err_allowed t then
            send_rst_for t ~src ~sport ~dport ~ack
      | Some (Conn_table.Tw r) ->
          slowpath ();
          lx_time_wait_input t r ~seq ~flags ~dlen
      | Some (Conn_table.Live s) -> (
          (* Past the handshake the 16-bit window field arrives shifted by
             the peer's negotiated scale; SYN windows are never scaled. *)
          let win = if flags land th_syn = 0 then win lsl s.snd_scale else win in
          if fast && fastpath_pred s ~seq ~flags ~dlen then begin
            Cost.count_fastpath_hit ();
            if dlen > 0 then t.preddat <- t.preddat + 1 else t.predack <- t.predack + 1
          end
          else begin
            slowpath ();
            (* Only established-state, no-control-flag segments count as
               prediction fallbacks; handshake and teardown segments are
               never candidates. *)
            if
              fast && s.state = Established
              && flags land (th_syn lor th_fin lor th_rst) = 0
            then begin
              Cost.count_fastpath_fallback ();
              t.predfallback <- t.predfallback + 1
            end
          end;
          if flags land th_rst <> 0 then begin
            if s.state <> Listen then begin
              retire_queues s;
              s.err <- Some Error.Connreset;
              s.state <- Closed;
              Conn_table.detach t.conns s;
              wake s
            end
          end
          else
            match s.state with
            | Listen ->
                if Cost.config.syn_defense then begin
                  (* Half-open handshakes live in the syncache (or just in
                     the cookie), not as embryonic socks, so a flood cannot
                     pin the backlog. *)
                  if flags land th_syn <> 0 then
                    lx_syncache_add t s ~src ~sport ~seq ~mss:mss
                  else if flags land th_ack <> 0 then
                    lx_syncache_expand t s ~src ~sport ~seq ~ack ~win
                end
                else if flags land th_syn <> 0 then begin
                  if not (Conn_table.admits_syn t.conns s) then
                    (* Drop the SYN on the floor (the peer retransmits). *)
                    t.listen_overflow <- t.listen_overflow + 1
                  else begin
                  let c = blank_sock t in
                  c.state <- Syn_recv;
                  c.nonagle <- s.nonagle;
                  c.lport <- s.lport;
                  c.rport <- sport;
                  c.raddr <- src;
                  Conn_table.child t.conns c ~parent:s ~laddr:t.my_ip ~raddr:src ~rport:sport;
                  c.rcv_nxt <- Codec.m32 (seq + 1);
                  c.iss <- next_iss t;
                  c.snd_una <- c.iss;
                  c.snd_nxt <- Codec.m32 (c.iss + 1);
                  c.snd_wnd <- win;
                  (* Peer options bind before the SYN-ACK goes out, so the
                     SYN-ACK's wscale offer and MSS reflect them. *)
                  (match mss with
                  | Some v -> c.smss <- min Cost.config.tcp_mss v
                  | None -> ());
                  (match wscale with
                  | Some sc -> setup_scaling c ~peer:sc
                  | None -> ());
                  if
                    not
                      (tcp_xmit t c ~seq:c.iss ~flags:(th_syn lor th_ack) ~payload:None
                         ~queue:true)
                  then begin
                    (* No skb for the SYN-ACK: forget the child quietly —
                       to the peer this is a lost SYN, and its retransmit
                       starts the handshake over. *)
                    c.state <- Closed;
                    Conn_table.detach t.conns c
                  end
                  end
                end
            | Syn_sent ->
                if flags land th_syn <> 0 && flags land th_ack <> 0 && ack = s.snd_nxt
                then begin
                  s.rcv_nxt <- Codec.m32 (seq + 1);
                  (match mss with
                  | Some v -> s.smss <- min Cost.config.tcp_mss v
                  | None -> ());
                  (match wscale with
                  | Some sc -> setup_scaling s ~peer:sc
                  | None -> ());
                  s.snd_wnd <- win;
                  ack_advance t s ack;
                  s.state <- Established;
                  s.cwnd <- 2 * s.smss;
                  send_ack t s;
                  wake s
                end
            | Syn_recv ->
                if flags land th_syn <> 0 && flags land th_ack = 0 then
                  (* Retransmitted SYN: our SYN-ACK was lost — resend it now
                     rather than waiting out the coarse timer. *)
                  retransmit_head t s
                else if flags land th_ack <> 0 && ack = s.snd_nxt then begin
                  match s.conn.Conn_table.parent with
                  | Some p when p.state <> Listen ->
                      (* The listener closed while our handshake completed:
                         nobody will ever accept us — reset, don't leak. *)
                      retire_queues s;
                      s.state <- Closed;
                      Conn_table.detach t.conns s;
                      ignore
                        (tcp_xmit t s ~seq:s.snd_nxt ~flags:th_rst ~payload:None
                           ~queue:false)
                  | parent_opt ->
                      s.state <- Established;
                      s.cwnd <- 2 * s.smss;
                      s.snd_wnd <- win;
                      ack_advance t s ack;
                      (match parent_opt with
                      | Some p ->
                          Conn_table.established t.conns s;
                          wake p
                      | None -> ());
                      wake s
                end
            | Established | Fin_wait1 | Fin_wait2 | Closing | Close_wait | Last_ack -> (
                if flags land th_ack <> 0 then begin
                  tcp_ack_in t s ~ack ~win ~dlen;
                  (* Our FIN acked? *)
                  if s.fin_queued && Queue.is_empty s.rexmt_q && ack = s.snd_nxt then
                    match s.state with
                    | Fin_wait1 ->
                        s.state <- Fin_wait2;
                        wake s
                    | Closing ->
                        lx_enter_time_wait t s;
                        wake s
                    | Last_ack ->
                        s.state <- Closed;
                        Conn_table.detach t.conns s;
                        wake s
                    | _ -> ()
                end;
                (* Data. *)
                if dlen > 0 then begin
                  if seq = s.rcv_nxt && s.rcv_q_bytes + dlen <= s.rcv_buf_max then begin
                    autotune_rcv t s ~dlen;
                    Queue.add skb s.rcv_q;
                    stored := true;
                    s.rcv_q_bytes <- s.rcv_q_bytes + dlen;
                    s.rcv_nxt <- Codec.m32 (s.rcv_nxt + dlen);
                    ooo_drain s;
                    send_ack t s;
                    wake s
                  end
                  else if Codec.seq_gt seq s.rcv_nxt then begin
                    (* Beyond the hole: hold it for reassembly; the dup-ACK
                       goes out either way. *)
                    if ooo_insert t s ~seq skb then stored := true;
                    send_ack t s
                  end
                  else begin
                    (* Duplicate or no room: count which, dup-ACK, drop. *)
                    if Codec.seq_lt seq s.rcv_nxt then t.rcvdup <- t.rcvdup + 1
                    else t.rcvfull <- t.rcvfull + 1;
                    send_ack t s
                  end
                end;
                (* FIN, or a retransmission of the one already consumed
                   (its ACK was lost): both are ACKed. *)
                if
                  flags land th_fin <> 0
                  && (Codec.m32 (seq + dlen) = s.rcv_nxt
                     || (s.peer_fin && Codec.m32 (seq + dlen + 1) = s.rcv_nxt))
                then begin
                  if not s.peer_fin then begin
                    s.peer_fin <- true;
                    s.rcv_nxt <- Codec.m32 (s.rcv_nxt + 1);
                    send_ack t s;
                    (match s.state with
                    | Established -> s.state <- Close_wait
                    | Fin_wait1 -> s.state <- Closing
                    | Fin_wait2 -> lx_enter_time_wait t s
                    | _ -> ());
                    wake s
                  end
                  else send_ack t s
                end)
            | Time_wait | Closed -> ())));
  if not !stored then Skbuff.skb_free skb

(* ---- input demux from the driver ---- *)

let ip_rcv t skb =
  let d = skb.Skbuff.skb_data and o = skb.Skbuff.head in
  match Codec.parse_ip d ~off:o ~len:skb.Skbuff.len with
  | None -> Skbuff.skb_free skb (* runt, or bad header lengths *)
  | Some h ->
      if Codec.cksum_bytes d ~off:o ~len:h.Codec.ihl <> 0 then begin
        t.ipbadsum <- t.ipbadsum + 1;
        Skbuff.skb_free skb
      end
      else if not (Int32.equal h.Codec.dst t.my_ip) then Skbuff.skb_free skb
      else begin
        (* Trim link padding, strip the header. *)
        Skbuff.skb_trim skb h.Codec.total;
        ignore (Skbuff.skb_pull skb h.Codec.ihl);
        if h.Codec.proto = 6 then tcp_rcv t skb ~src:h.Codec.src else Skbuff.skb_free skb
      end

let netif_rx t skb =
  ignore (Skbuff.skb_pull skb eth_hlen);
  (* Interrupt level: any allocation failure still unconverted on the input
     path must end here as a counted frame drop, not an exception into the
     driver.  The skb is left to the GC — it may be partially consumed. *)
  try
    match skb.Skbuff.protocol with
    | 0x0800 -> ip_rcv t skb
    | 0x0806 ->
        Arp_resolver.input t.arp ~my_ip:t.my_ip skb.Skbuff.skb_data ~off:skb.Skbuff.head
          ~len:skb.Skbuff.len ~release:(fun () -> Skbuff.skb_free skb)
    | _ -> Skbuff.skb_free skb
  with Memfault.Nomem -> t.nomem_drops <- t.nomem_drops + 1

(* The native Linux kernel links its driver directly: the machine crosses
   no glue. *)
let attach_dev t osenv dev =
  Machine.bind_kernel t.machine Machine.Native;
  t.dev <- Some dev;
  match Linux_eth_drv.dev_open osenv dev ~rx:(List.iter (netif_rx t)) with
  | Ok () -> ()
  | Result.Error e -> Error.fail e

(* ---- blocking socket calls ---- *)

let socket t = blank_sock t

(* A sock in the connection table is past binding (inet_bind's EINVAL). *)
let bind t s ~port =
  if Conn_table.registered t.conns s then Error.fail Error.Inval;
  s.lport <- port

(* An unbound sock takes the next free ephemeral port. *)
let bind_ephemeral t s =
  if s.lport <> 0 then Ok () else Result.map (fun p -> s.lport <- p) (Conn_table.ephemeral t.conns)

(* Raises [Error.Error Addrnotavail] when no ephemeral port is free. *)
let listen t s ~backlog =
  Result.iter_error Error.fail (bind_ephemeral t s);
  s.state <- Listen;
  Conn_table.listen t.conns s ~lport:s.lport ~backlog

let accept _t s =
  let t = s.stack in
  let rec wait () =
    match Conn_table.accept t.conns s with
    | Some c -> Ok c
    | None ->
        if s.state <> Listen then Result.Error Error.Badf
        else if s.nb then Result.Error Error.Wouldblock
        else begin
          Sleep_record.sleep s.sleep;
          wait ()
        end
  in
  wait ()

(* connect up to the wait for the SYN-ACK.  A sock already in the
   connection table gets EISCONN. *)
let connect_start t s ~dst ~dport =
  match bind_ephemeral t s with
  | Result.Error e -> s.err <- Some e (* no free port: [connect] fails with it *)
  | Ok () when Conn_table.registered t.conns s -> s.err <- Some Error.Isconn
  | Ok () ->
      s.raddr <- dst;
      s.rport <- dport;
      Conn_table.connect t.conns s ~laddr:t.my_ip ~lport:s.lport ~raddr:dst ~rport:dport;
      s.iss <- next_iss t;
      s.snd_una <- s.iss;
      s.snd_nxt <- Codec.m32 (s.iss + 1);
      s.state <- Syn_sent;
      if not (tcp_xmit t s ~seq:s.iss ~flags:th_syn ~payload:None ~queue:true) then begin
        (* The SYN never left and nothing is queued to retransmit it: fail
           the connect with ENOBUFS instead of blocking forever. *)
        s.state <- Closed;
        s.err <- Some Error.Nomem;
        Conn_table.detach t.conns s
      end

let connect t s ~dst ~dport =
  connect_start t s ~dst ~dport;
  let rec wait () =
    match s.state with
    | Established -> Ok ()
    | Syn_sent ->
        Sleep_record.sleep s.sleep;
        wait ()
    | _ -> Result.Error (Option.value s.err ~default:Error.Connrefused)
  in
  wait ()

(* Blocking send of the whole buffer, 2.0's tcp_write: full segments,
   each waiting until the window takes all of it (or, with nothing in
   flight, as much as it takes), and a short tail that leaves at once
   only when nothing is in flight.  Otherwise the tail becomes the
   partial packet, which the next write fills; it leaves when full, when
   an ACK empties the flight, at once under TCP_NODELAY, or when its
   timer fires. *)
let send t s ~buf ~pos ~len =
  let rec push sent =
    if sent >= len && s.partial_len = 0 then Ok len
    else
      match s.state with
      | Established | Close_wait ->
          if s.partial_len >= s.smss || (s.partial_len > 0 && sent >= len) then begin
            if partial_due s && send_partial t s then push sent
            else if sent >= len then Ok len
            else wait sent
          end
          else if s.partial_len > 0 then begin
            let k = min (s.smss - s.partial_len) (len - sent) in
            Bytes.blit buf (pos + sent) s.partial s.partial_len k;
            s.partial_len <- s.partial_len + k;
            arm_partial t s;
            push (sent + k)
          end
          else begin
            let n = min s.smss (len - sent) in
            let room = usable s in
            if n < s.smss && inflight s > 0 then begin
              if Bytes.length s.partial < s.smss then s.partial <- Bytes.create s.smss;
              Bytes.blit buf (pos + sent) s.partial 0 n;
              s.partial_len <- n;
              arm_partial t s;
              push (sent + n)
            end
            else if
              Queue.length s.rexmt_q > rexmt_q_limit s || room <= 0
              || (room < n && inflight s > 0)
            then wait sent
            else begin
              let n = min n room in
              if
                tcp_xmit t s ~seq:s.snd_nxt ~flags:th_ack
                  ~payload:(Some (buf, pos + sent, n))
                  ~queue:true
              then begin
                s.snd_nxt <- Codec.m32 (s.snd_nxt + n);
                push (sent + n)
              end
              else if s.nb then if sent > 0 then Ok sent else Result.Error Error.Wouldblock
              else begin
                (* No skb for the segment: snd_nxt did not advance, so the
                   stream is intact.  Park with a timed kick — under pure
                   memory pressure no ACK is coming to wake it. *)
                ignore (Machine.after t.machine 10_000_000 (fun () -> wake s));
                Sleep_record.sleep s.sleep;
                push sent
              end
            end
          end
      | Closed -> Result.Error (Option.value s.err ~default:Error.Pipe)
      | _ -> Result.Error Error.Pipe
  (* The window (or the retransmission queue) is full: report what went
     to a non-blocking caller; park a blocking one until an ACK. *)
  and wait sent =
    if s.nb then if sent > 0 then Ok sent else Result.Error Error.Wouldblock
    else begin
      arm_persist t s;
      Sleep_record.sleep s.sleep;
      push sent
    end
  in
  if Error.bad_range buf ~pos ~len then Result.Error Error.Inval else push 0

(* Blocking receive of at least one byte (0 = EOF). *)
let recv t s ~buf ~pos ~len =
  let rec take taken =
    if taken >= len then taken
    else
      match Queue.peek_opt s.rcv_q with
      | None -> taken
      | Some skb ->
          let avail = skb.Skbuff.len - s.head_consumed in
          let n = min avail (len - taken) in
          Cost.charge_copy n;
          Bytes.blit skb.Skbuff.skb_data (skb.Skbuff.head + s.head_consumed) buf (pos + taken) n;
          s.head_consumed <- s.head_consumed + n;
          s.rcv_q_bytes <- s.rcv_q_bytes - n;
          if s.head_consumed >= skb.Skbuff.len then begin
            ignore (Queue.take s.rcv_q);
            Skbuff.skb_free skb;
            s.head_consumed <- 0
          end;
          take (taken + n)
  in
  let rec wait () =
    let n = take 0 in
    (* Window update: if the app drained a window the peer saw as (near)
       closed, tell it — 2.0 relied on the peer's probes alone, which is
       exactly the deadlock the persist timer papers over.  Silent on
       clean runs: adv_wnd only dips below an MSS when the receive queue
       actually filled. *)
    if n > 0 && s.state = Established && s.adv_wnd < s.smss
       && rcv_window s >= 2 * s.smss
    then send_ack t s;
    if n > 0 then Ok n
    else if s.peer_fin then Ok 0
    else
      match s.state with
      | Closed -> ( match s.err with Some e -> Result.Error e | None -> Ok 0)
      | _ when s.nb -> Result.Error Error.Wouldblock
      | _ ->
          Sleep_record.sleep s.sleep;
          wait ()
  in
  if Error.bad_range buf ~pos ~len then Result.Error Error.Inval
  else if len = 0 then Ok 0
  else wait ()

(* Hard-reset a never-accepted child of a closing listener: free its
   held frames, RST the peer, drop the sock. *)
let abort_orphan t c =
  if c.state <> Closed then begin
    retire_queues c;
    c.err <- Some Error.Connreset;
    c.state <- Closed;
    Conn_table.detach t.conns c;
    ignore (tcp_xmit t c ~seq:c.snd_nxt ~flags:th_rst ~payload:None ~queue:false);
    wake c
  end

let rec close t s =
  (* If the FIN's skb is refused, leave the state alone and retry shortly:
     to the application close is fire-and-forget, and nothing is queued
     that would retransmit the FIN for us. *)
  let send_fin next_state =
    (* The partial packet goes first, whatever Nagle says (2.0's
       tcp_close sends it). *)
    if
      (s.partial_len = 0
      || tcp_xmit t s ~seq:s.snd_nxt ~flags:th_ack
           ~payload:(Some (s.partial, 0, s.partial_len))
           ~queue:true
         && begin
              s.snd_nxt <- Codec.m32 (s.snd_nxt + s.partial_len);
              s.partial_len <- 0;
              true
            end)
      && tcp_xmit t s ~seq:s.snd_nxt ~flags:(th_fin lor th_ack) ~payload:None ~queue:true
    then begin
      s.state <- next_state;
      s.fin_queued <- true;
      s.snd_nxt <- Codec.m32 (s.snd_nxt + 1)
    end
    else ignore (Machine.after t.machine 10_000_000 (fun () -> close t s))
  in
  match s.state with
  | Established | Syn_recv -> send_fin Fin_wait1
  | Close_wait -> send_fin Last_ack
  | Listen ->
      (* Reset the children nobody will ever accept — both the established
         ones parked on the backlog queue and the embryonic ones still
         shaking hands — and wake parked accepters so they fail with Badf
         instead of sleeping forever (the ARP on_drop discipline). *)
      s.state <- Closed;
      (* Cached half-open handshakes die with the listener (no frames are
         held for them — defended SYN-ACKs are never queued). *)
      Syncache.drop_all t.syncache s.syn_cache;
      List.iter (abort_orphan t) (Conn_table.orphans t.conns s);
      Conn_table.detach t.conns s;
      wake s
  | Syn_sent ->
      s.state <- Closed;
      Conn_table.detach t.conns s;
      wake s
  | _ -> ()

(* ---- per-layer drop accounting, netstat -s style ---- *)

let netstat t =
  let sc = t.syncache.Syncache.stats in
  Printf.sprintf
    "ip:\n\
    \  %d bad header checksums\n\
     tcp:\n\
    \  %d segments sent\n\
    \  %d segments received\n\
    \  %d segments retransmitted\n\
    \  %d bad checksums\n\
    \  %d duplicate segments dropped\n\
    \  %d out-of-order segments queued\n\
    \  %d segments dropped, full receive queue\n\
    \  %d listen queue overflows\n\
    \  %d connections timed out retransmitting\n\
    \  %d ack predictions ok\n\
    \  %d data predictions ok\n\
    \  %d prediction fallbacks\n\
    \  %d persist probes sent\n\
    \  %d syncache entries added (%d evicted, %d completed)\n\
    \  %d SYN cookies validated, %d rejected\n\
    \  %d TIME_WAIT connections reclaimed\n\
    \  %d drops for want of memory\n\
    \  %d RSTs rate limited\n\
     arp:\n\
    \  %d waiters dropped (queue full)\n\
    \  %d resolutions abandoned (retries exhausted)\n\
     event:\n\
    \  %d timer-wheel arms (%d cancels, %d fires)\n\
    \  %d kqueue events posted (%d coalesced)\n"
    t.ipbadsum t.segs_out t.segs_in t.rexmits t.tcpbadsum t.rcvdup t.rcvoo
    t.rcvfull t.listen_overflow t.rexmt_give_ups t.predack t.preddat t.predfallback
    t.persist_probes sc.Syncache.added sc.Syncache.evicted sc.Syncache.completed
    sc.Syncache.validated sc.Syncache.rejected t.time_wait_reclaimed
    t.nomem_drops t.rst_ratelimited t.arp.Arp_resolver.waiters_dropped
    t.arp.Arp_resolver.abandoned
    Cost.counters.Cost.wheel_arms Cost.counters.Cost.wheel_cancels
    Cost.counters.Cost.wheel_fires
    Cost.counters.Cost.kq_posted Cost.counters.Cost.kq_coalesced
