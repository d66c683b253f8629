(* ENCAPSULATED LEGACY CODE — tcp_input.c / tcp_output.c / tcp_timer.c /
 * tcp_subr.c, in the 4.4BSD shape: 32-bit modular sequence space, the
 * two-rate timer wheel (fast = delayed ACKs at 200 ms, slow = everything
 * else at 500 ms), Jacobson RTT estimation in BSD fixed point, slow start
 * and congestion avoidance, fast retransmit on three duplicate ACKs, a
 * per-connection reassembly queue, and send/receive socket buffers.
 *
 * Simplifications vs. the donor, documented per Section 4.5: no keepalive
 * probing, no TCP options beyond MSS, no urgent data.  None of these
 * affect the paper's measurements (bulk transfer and 1-byte latency on a
 * LAN).  Header prediction — absent from the 1997 snapshot this models —
 * is a charge, not a second input routine: with Cost.config.tcp_fastpath
 * on (default off, so the measured Table 2 shape is untouched) a segment
 * that fastpath_pred admits pays tcp_fastpath_cycles instead of the full
 * per-segment cost, and every segment runs the one input path below.
 * Connections are kept, found and admitted by lib/inet's connection table;
 * one entering TIME_WAIT becomes the table's compact record, which
 * [time_wait_input] answers and the slow tick expires.
 *)

let max_win = 65535
let slow_interval_ns = 500_000_000 (* PR_SLOWHZ = 2 *)
let fast_interval_ns = 200_000_000 (* delayed-ACK timer *)
let msl_ticks = 4 (* 2 s in slow ticks — MSL scaled for a LAN *)
let max_rxtshift = 12

(* --- header flags --- *)

let th_fin = 0x01
let th_syn = 0x02
let th_rst = 0x04
let th_push = 0x08
let th_ack = 0x10

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let state_name = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

type stats = {
  mutable sndpack : int;
  mutable sndrexmitpack : int;
  mutable rcvpack : int;
  mutable rcvdup : int;
  mutable rcvoo : int;
  mutable rcvbadsum : int;
  mutable rcvshort : int;    (* segments shorter than a TCP header *)
  mutable rcvafterwin : int; (* data wholly or partly beyond the window *)
  mutable delack : int;
  mutable fastrexmit : int;
  mutable drops : int;
  mutable accepts : int;
  mutable connects : int;
  mutable listen_overflow : int; (* SYNs dropped: listen queue full *)
  mutable predack : int;  (* header prediction: pure/piggyback ACK hits *)
  mutable preddat : int;  (* header prediction: in-order data hits *)
  mutable predfallback : int; (* established-state segments that missed *)
  mutable time_wait_reclaimed : int;  (* TIME_WAIT reclaimed early (cap/pressure) *)
  mutable nomem_drops : int;          (* segments dropped for want of an mbuf *)
  mutable rst_ratelimited : int;      (* error RSTs suppressed by the token bucket *)
}

type tcpcb = {
  t_stack : t;
  mutable t_state : state;
  mutable laddr : int32;
  mutable lport : int;
  mutable raddr : int32;
  mutable rport : int;
  mutable t_maxseg : int;
  (* send sequence space *)
  mutable iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int;
  mutable snd_wnd : int;
  mutable max_sndwnd : int; (* the largest window the peer has offered *)
  mutable snd_wl1 : int;
  mutable snd_wl2 : int;
  mutable snd_cwnd : int;
  mutable snd_ssthresh : int;
  mutable snd_recover : int; (* NewReno: snd_max at fast-rexmit entry *)
  (* RFC 1323 window scaling (Cost.config.tcp_wscale): [snd_scale] shifts
     incoming window fields (the peer's offer), [rcv_scale] ours.  Both 0
     until a SYN exchange where each side carried the option. *)
  mutable snd_scale : int;
  mutable rcv_scale : int;
  mutable peer_wscale : int; (* scale the peer's SYN offered; -1 = none *)
  snd_buf : Sockbuf.t;
  mutable snd_fin_pending : bool;
  mutable fin_sent : bool;
  (* TCP_NOPUSH (T/TCP's cork) and TCP_NODELAY: tcp_output's short-segment
     test reads both (see [tcp_output_segs]).  A listener's values are
     copied into the connections it spawns. *)
  mutable t_nopush : bool;
  mutable t_nodelay : bool;
  mutable t_force : bool; (* the persist timer is forcing a send *)
  (* receive sequence space *)
  mutable irs : int;
  mutable rcv_nxt : int;
  mutable rcv_adv : int;
  rcv_buf : Sockbuf.t;
  mutable rcv_fin : bool;
  mutable reass : (int * Mbuf.mbuf) list;
  (* The three timers, indexed by tw_rexmt/tw_persist/tw_delack: an
     entry on the stack's slow (or, for the delayed ACK, fast) tick wheel
     while armed, None while disarmed.  The 2xMSL wait is the TIME_WAIT
     record's. *)
  tw_ents : Timewheel.entry option array;
  (* RTT machinery, BSD fixed point *)
  mutable t_rtt : int; (* slow tick of the timed send; -1 = none timed *)
  mutable t_rtseq : int;
  mutable t_srtt : int; (* << 3 *)
  mutable t_rttvar : int; (* << 2 *)
  mutable t_rxtcur : int;
  mutable t_rxtshift : int;
  (* ACK strategy *)
  mutable ack_now : bool;
  mutable delack_pending : bool;
  mutable t_dupacks : int;
  rxclump : Autotune.clump; (* receive-buffer autotuning *)
  syn_cache : Syncache.listener; (* listeners only *)
  conn : tcpcb Conn_table.entry; (* this pcb's place in the connection table *)
  (* socket-layer callbacks *)
  mutable on_readable : unit -> unit;
  mutable on_writable : unit -> unit;
  mutable on_state : unit -> unit;
  mutable so_error : Error.t option;
}

and t = {
  ip : Ip.t;
  machine : Machine.t;
  (* The shared lib/inet policy: the connection table, the SYN-flood
     defense and the RST token bucket. *)
  conns : tcpcb Conn_table.t;
  mutable iss_source : int;
  mutable ticking : bool;  (* the 500 ms slow loop is scheduled *)
  mutable fast_ticking : bool;  (* the 200 ms fast loop is scheduled *)
  (* The donor's two timer rates as tick-indexed wheels: one tick per
     loop event, so "n ticks ahead" is the n-th event of that loop.
     [slow_wheel] holds rexmt and persist, and its ticks time the
     TIME_WAIT records' 2MSL; [fast_wheel] the delayed ACKs. *)
  slow_wheel : Timewheel.t;
  fast_wheel : Timewheel.t;
  mutable due : due list;  (* fired by the running tick *)
  syncache : Syncache.t;
  err_bucket : Token_bucket.t;
  (* [stats] is the aggregation view netstat and every existing test read;
     [stats_shards.(cpu)] is the per-CPU split (every bump updates both).
     One per machine CPU. *)
  stats : stats;
  stats_shards : stats array;
}

(* What a tick fires: a connection's timer, or a TIME_WAIT record's
   expiry. *)
and due = Slot of tcpcb * int | Expiry of Conn_table.tw

let default_sb_size = 48 * 1024

(* ------------------------------------------------------------------ *)
(* pcb management                                                      *)

let create_pcb t =
  { t_stack = t; t_state = Closed; laddr = 0l; lport = 0; raddr = 0l; rport = 0;
    t_maxseg = Cost.config.tcp_mss; iss = 0; snd_una = 0; snd_nxt = 0; snd_max = 0;
    snd_wnd = 0; max_sndwnd = 0;
    snd_wl1 = 0; snd_wl2 = 0; snd_cwnd = Cost.config.tcp_mss; snd_ssthresh = max_win;
    snd_recover = 0; snd_scale = 0; rcv_scale = 0; peer_wscale = -1;
    snd_buf = Sockbuf.create ~hiwat:default_sb_size; snd_fin_pending = false;
    fin_sent = false; t_nopush = false; t_nodelay = false; t_force = false; irs = 0;
    rcv_nxt = 0; rcv_adv = 0;
    rcv_buf = Sockbuf.create ~hiwat:default_sb_size; rcv_fin = false; reass = [];
    tw_ents = Array.make 3 None; t_rtt = -1; t_rtseq = 0; t_srtt = 0;
    t_rttvar = 24; t_rxtcur = 2; t_rxtshift = 0; ack_now = false; delack_pending = false;
    t_dupacks = 0; rxclump = Autotune.clump (); syn_cache = Syncache.listener ();
    conn = Conn_table.entry (); on_readable = (fun () -> ()); on_writable = (fun () -> ());
    on_state = (fun () -> ()); so_error = None }

let rcv_window pcb = min (Sockbuf.space pcb.rcv_buf) (max_win lsl pcb.rcv_scale)

(* The peer's offer, and the largest offer seen, which the sender's
   silly-window test halves. *)
let set_snd_wnd pcb win =
  pcb.snd_wnd <- win;
  if win > pcb.max_sndwnd then pcb.max_sndwnd <- win

(* Both sides offered: windows are scaled from here on.  ssthresh starts
   effectively unbounded again, in the scaled range. *)
let setup_scaling pcb ~peer =
  pcb.peer_wscale <- min 14 peer;
  if Cost.config.tcp_wscale then begin
    pcb.snd_scale <- min 14 peer;
    pcb.rcv_scale <- Autotune.request_scale ();
    pcb.snd_ssthresh <- max_win lsl pcb.snd_scale
  end

let stats_for t ~cpu = t.stats_shards.(cpu)

(* Bump a statistic in the aggregate record and in the executing CPU's
   shard, so netstat totals are ncpus-invariant and the shards always sum
   to them. *)
let bump t f =
  f t.stats;
  f t.stats_shards.(Machine.cpu t.machine)

(* ------------------------------------------------------------------ *)
(* timers on the tick wheels                                          *)

(* Slot indices into pcb.tw_ents.  Ascending is the order in which the
   donor's slow-tick walk tests one pcb's timers. *)
let tw_rexmt = 0

let tw_persist = 1
let tw_delack = 2
let armed pcb slot = pcb.tw_ents.(slot) <> None

let tw_cancel pcb slot =
  match pcb.tw_ents.(slot) with
  | Some e ->
      pcb.tw_ents.(slot) <- None;
      Timewheel.cancel e
  | None -> ()

(* Arm [slot] [n] ticks ahead on its wheel, replacing any live entry.  A
   due entry only parks the pcb on [t.due]; the tick that came due fires
   it (see [tick]). *)
let tw_arm t pcb slot n =
  tw_cancel pcb slot;
  let w = if slot = tw_delack then t.fast_wheel else t.slow_wheel in
  let e =
    Timewheel.arm w ~ticks:n (fun () ->
        pcb.tw_ents.(slot) <- None;
        t.due <- Slot (pcb, slot) :: t.due)
  in
  pcb.tw_ents.(slot) <- Some e

(* The slow-timer setters: [n] slow ticks ahead; 0 disarms.  Every TCP
   deadline is at most 128 ticks out, inside the wheel's 255-tick span. *)
let set_timer t pcb slot n = if n <= 0 then tw_cancel pcb slot else tw_arm t pcb slot n
let set_rexmt t pcb n = set_timer t pcb tw_rexmt n
let set_persist t pcb n = set_timer t pcb tw_persist n

(* A delayed ACK goes out on the next fast tick; asking again while one
   is pending keeps that tick. *)
let set_delack t pcb on =
  pcb.delack_pending <- on;
  if not on then tw_cancel pcb tw_delack
  else if not (armed pcb tw_delack) then tw_arm t pcb tw_delack 1

let cancel_timers pcb =
  for slot = tw_rexmt to tw_delack do
    tw_cancel pcb slot
  done

let detach t pcb =
  cancel_timers pcb;
  (* A dying connection retires its socket buffers, so their clusters go
     back to the pool and loaned ext mbufs run the on-free callbacks that
     unpin buffer-cache blocks: an abort (peer RST, rexmt give-up) is the
     one path where those bytes are never acked and dropped. *)
  Sockbuf.sbdrop pcb.snd_buf pcb.snd_buf.Sockbuf.sb_cc;
  Sockbuf.sbdrop pcb.rcv_buf pcb.rcv_buf.Sockbuf.sb_cc;
  Conn_table.detach t.conns pcb

let next_iss t =
  t.iss_source <- Codec.m32 (t.iss_source + 64000);
  t.iss_source

(* Every registered pcb, newest first. *)
let pcb_list t = Conn_table.to_list t.conns

(* ------------------------------------------------------------------ *)
(* overload policy (lib/inet)                                          *)

(* A TIME_WAIT record leaves before its 2MSL is up, its wait cancelled:
   a reset, the tw_max cap, or memory pressure. *)
let end_time_wait t r =
  Cost.count_wheel_cancel ();
  Conn_table.release t.conns r

let retire_time_wait t r =
  bump t (fun s -> s.time_wait_reclaimed <- s.time_wait_reclaimed + 1);
  end_time_wait t r

(* Memory pressure: give back the coldest protocol state first — every
   TIME_WAIT record (losing the 2xMSL guard under overload is the
   documented BSD tradeoff) and every cached half-open handshake (the
   cookie can still complete those statelessly). *)
let tcp_reclaim t =
  Conn_table.reclaim t.conns ~retire:(retire_time_wait t) (fun l ->
      Syncache.drop_all t.syncache l.syn_cache)

(* The RST answering a segment no connection claims passes the bucket. *)
let err_allowed t =
  Token_bucket.allow t.err_bucket
  || begin
       bump t (fun s -> s.rst_ratelimited <- s.rst_ratelimited + 1);
       false
     end

(* An mbuf with [hlen] bytes of room for a header-only segment. *)
let header_mbuf hlen =
  let m = Mbuf.m_gethdr () in
  ignore (Mbuf.m_put m hlen);
  m

(* Write the header through the shared codec into the front of [m] and
   checksum the whole chain in place; BSD stores a zero sum as 0xffff. *)
let write_header m ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale =
  let d = m.Mbuf.m_data and off = m.Mbuf.m_off in
  Codec.write_tcp d ~off ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale;
  let len = Mbuf.m_length m in
  Codec.set_tcp_cksum d ~off ~zero_as_ones:true
    (In_cksum.cksum_chain m ~off:0 ~len
       ~init:(Codec.pseudo_header ~src ~dst ~proto:Ip.proto_tcp ~len))

(* A header-only segment with no pcb behind it: RSTs, cookie SYN-ACKs,
   and the crafted segments of tests and benches. *)
let raw_segment ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~mss =
  let m = header_mbuf (Codec.tcp_header_len ~mss ~wscale:None) in
  write_header m ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale:None;
  m

(* ------------------------------------------------------------------ *)
(* timers: armed while any pcb exists, quiesce when none               *)

(* The two loops are the wheels' clocks: each event advances its wheel
   one tick.  Each loop stops on its first event that finds no pcb, and
   clears its own flag, so a pcb created after either loop stopped
   restarts that loop.  Both wheels are empty then: [detach] cancels a
   pcb's entries. *)
let rec ensure_timers t =
  if not t.ticking then begin
    t.ticking <- true;
    tick_loop t slow_interval_ns t.slow_wheel (fun () -> t.ticking <- false)
  end;
  if not t.fast_ticking then begin
    t.fast_ticking <- true;
    tick_loop t fast_interval_ns t.fast_wheel (fun () -> t.fast_ticking <- false)
  end

(* The next event is scheduled from the CPU-local clock after this one's
   charges, and a tick that finds its CPU busy runs late, so the loop's
   phase drifts under load: the wheels count events, not time. *)
and tick_loop t ns wheel stop =
  ignore
    (Machine.after t.machine ns (fun () ->
         if Conn_table.is_empty t.conns then stop ()
         else begin
           tick t wheel;
           tick_loop t ns wheel stop
         end))

(* ------------------------------------------------------------------ *)
(* segment emission                                                    *)

and emit_segment t pcb ~seq ~ack ~flags ~win ~payload ~mss_opt ~wscale =
  (* ENOBUFS on transmit behaves like a lost wire frame: count it, shed
     cold state, and let retransmission recover — an allocation failure
     on a timer or input path must never become an uncaught exception. *)
  try emit_segment_nomem t pcb ~seq ~ack ~flags ~win ~payload ~mss_opt ~wscale
  with Memfault.Nomem ->
    bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
    tcp_reclaim t

and emit_segment_nomem t pcb ~seq ~ack ~flags ~win ~payload ~mss_opt ~wscale =
  let mss = if mss_opt then Some pcb.t_maxseg else None in
  let hlen = Codec.tcp_header_len ~mss ~wscale in
  let m =
    match payload with Some data -> Mbuf.m_prepend data hlen | None -> header_mbuf hlen
  in
  (* The window field is scaled except on SYN segments (RFC 1323: the
     shift applies only once both sides have offered). *)
  let win =
    if flags land th_syn <> 0 then min win max_win
    else min (win asr pcb.rcv_scale) max_win
  in
  output_segment t m ~src:pcb.laddr ~dst:pcb.raddr ~sport:pcb.lport ~dport:pcb.rport ~seq
    ~ack ~flags ~win ~mss ~wscale

(* Write the header into [m], charge and count the segment, and send it. *)
and output_segment t m ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale =
  write_header m ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~mss ~wscale;
  Cost.charge Protocol Cost.config.bsd_tcp_pkt_cycles;
  bump t (fun s -> s.sndpack <- s.sndpack + 1);
  Ip.output t.ip ~proto:Ip.proto_tcp ~src ~dst m

and send_rst t ~src ~dst ~sport ~dport ~seq ~ack ~had_ack =
  let flags, seq, ack = if had_ack then th_rst, ack, 0 else th_rst lor th_ack, 0, seq in
  try
    Ip.output t.ip ~proto:Ip.proto_tcp ~src:dst ~dst:src
      (raw_segment ~src:dst ~dst:src ~sport:dport ~dport:sport ~seq ~ack ~flags ~win:0
         ~mss:None)
  with Memfault.Nomem ->
    bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
    tcp_reclaim t

(* A SYN-ACK on a listener's behalf with no child pcb behind it — the
   syncache/cookie path.  Crafted raw like send_rst, plus the MSS option.
   No wscale is ever offered here: a cookie cannot carry the negotiation,
   so defended passive connections stay unscaled (the real syncookie
   limitation). *)
and send_synack_raw t ~laddr ~lport ~raddr ~rport ~iss ~irs ~mss =
  try
    let m =
      raw_segment ~src:laddr ~dst:raddr ~sport:lport ~dport:rport ~seq:iss ~ack:(irs + 1)
        ~flags:(th_syn lor th_ack) ~win:(min default_sb_size max_win) ~mss:(Some mss)
    in
    Cost.charge Protocol Cost.config.bsd_tcp_pkt_cycles;
    bump t (fun s -> s.sndpack <- s.sndpack + 1);
    Ip.output t.ip ~proto:Ip.proto_tcp ~src:laddr ~dst:raddr m
  with Memfault.Nomem ->
    bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
    tcp_reclaim t

(* ------------------------------------------------------------------ *)
(* tcp_output                                                          *)

(* One call's segments leave as one transmit burst under the batched
   glue (Netif.with_burst): its loop never sleeps, so no frame waits on
   anything but the loop itself.  [idle] (nothing unacknowledged) is
   taken once, before the first segment, as the donor's [idle] is. *)
and tcp_output t pcb =
  Netif.with_burst t.ip.Ip.ifp tcp_output_segs pcb (pcb.snd_max = pcb.snd_una)

and tcp_output_segs pcb idle =
  let t = pcb.t_stack in
  let sendable_state =
    match pcb.t_state with
    | Established | Close_wait | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait ->
        true
    | Syn_sent | Syn_received | Listen | Closed -> false
  in
  let off = Codec.seq_diff pcb.snd_nxt pcb.snd_una in
  let win = max (min pcb.snd_wnd pcb.snd_cwnd) 0 in
  let pending = pcb.snd_buf.Sockbuf.sb_cc - off in
  let len = if sendable_state && off >= 0 then max 0 (min pending (win - off)) else 0 in
  let len = min len pcb.t_maxseg in
  let all_data_sent = off + len >= pcb.snd_buf.Sockbuf.sb_cc in
  let send_fin =
    sendable_state && pcb.snd_fin_pending && all_data_sent
    && ((not pcb.fin_sent) || Codec.seq_lt pcb.snd_nxt pcb.snd_max)
  in
  let window_update =
    sendable_state
    && rcv_window pcb >= 2 * pcb.t_maxseg
    && Codec.seq_geq
         (Codec.m32 (pcb.rcv_nxt + rcv_window pcb))
         (Codec.m32 (pcb.rcv_adv + (2 * pcb.t_maxseg)))
  in
  (* 4.4BSD's short-segment test (Nagle and sender silly-window
     avoidance), in the donor's order: a full segment goes; a short one
     goes when the connection is idle or TCP_NODELAY is set, the cork is
     off and it empties the buffer; when the persist timer forces it;
     when it is at least half the largest window the peer has offered;
     or when it is a retransmission.  Otherwise it waits for an ACK, the
     FIN or a window update to carry it. *)
  let send_data =
    len > 0
    && (len = pcb.t_maxseg
       || ((idle || pcb.t_nodelay) && (not pcb.t_nopush) && all_data_sent)
       || pcb.t_force
       || (pcb.max_sndwnd > 0 && len >= pcb.max_sndwnd / 2)
       || Codec.seq_lt pcb.snd_nxt pcb.snd_max)
  in
  if send_data || send_fin || pcb.ack_now || window_update then begin
    let flags =
      (if sendable_state then th_ack else 0)
      lor (if send_fin then th_fin else 0)
      lor if len > 0 && all_data_sent then th_push else 0
    in
    let payload_ok, payload =
      if len > 0 then
        match Sockbuf.copy_range pcb.snd_buf ~off ~len with
        | p -> true, Some p
        | exception Memfault.Nomem ->
            (* No mbufs to clone the send window into: skip this round
               with the retransmit timer armed as the retry, and shed
               cold state so the retry finds room. *)
            bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
            tcp_reclaim t;
            if not (armed pcb tw_rexmt) then set_rexmt t pcb pcb.t_rxtcur;
            false, None
      else true, None
    in
    if payload_ok then begin
      let wnd = rcv_window pcb in
      emit_segment t pcb ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~flags ~win:wnd ~payload
        ~mss_opt:false ~wscale:None;
      if Codec.seq_gt (Codec.m32 (pcb.rcv_nxt + wnd)) pcb.rcv_adv then
        pcb.rcv_adv <- Codec.m32 (pcb.rcv_nxt + wnd);
      pcb.ack_now <- false;
      set_delack t pcb false;
      if len > 0 || send_fin then begin
        (* Karn's rule: only time a transmission of *new* data.  After a
           retransmit snd_nxt trails snd_max; starting the clock there would
           let an ACK of the original transmission feed update_rtt an
           ambiguous (far too short) sample. *)
        if pcb.t_rtt < 0 && len > 0 && Codec.seq_geq pcb.snd_nxt pcb.snd_max then begin
          pcb.t_rtt <- Timewheel.now t.slow_wheel;
          pcb.t_rtseq <- pcb.snd_nxt
        end;
        pcb.snd_nxt <- Codec.m32 (pcb.snd_nxt + len + if send_fin then 1 else 0);
        if send_fin then pcb.fin_sent <- true;
        if Codec.seq_gt pcb.snd_nxt pcb.snd_max then pcb.snd_max <- pcb.snd_nxt;
        if not (armed pcb tw_rexmt) then set_rexmt t pcb pcb.t_rxtcur
      end;
      if len > 0 && not all_data_sent then tcp_output_segs pcb idle
    end
  end
  else if
    (* Data the window holds back, with no timer to end the wait: persist.
       (A corked tail the window would take waits for the uncork.) *)
    sendable_state && pending > win - off
    && (not (armed pcb tw_persist))
    && not (armed pcb tw_rexmt)
  then set_persist t pcb (max 2 pcb.t_rxtcur)

and send_syn t pcb ~with_ack =
  let flags = th_syn lor if with_ack then th_ack else 0 in
  (* Offer wscale on an active SYN whenever the knob is on; on a SYN-ACK
     only if the peer's SYN offered it (RFC 1323 negotiation). *)
  let wscale =
    if Cost.config.tcp_wscale && ((not with_ack) || pcb.peer_wscale >= 0) then
      Some (Autotune.request_scale ())
    else None
  in
  emit_segment t pcb ~seq:pcb.iss ~ack:(if with_ack then pcb.rcv_nxt else 0) ~flags
    ~win:(min (rcv_window pcb) max_win) ~payload:None ~mss_opt:true ~wscale;
  pcb.snd_nxt <- Codec.m32 (pcb.iss + 1);
  if Codec.seq_gt pcb.snd_nxt pcb.snd_max then pcb.snd_max <- pcb.snd_nxt;
  if not (armed pcb tw_rexmt) then set_rexmt t pcb pcb.t_rxtcur

(* ------------------------------------------------------------------ *)
(* timers                                                              *)

and drop_connection t pcb err =
  pcb.t_state <- Closed;
  pcb.so_error <- Some err;
  bump t (fun s -> s.drops <- s.drops + 1);
  detach t pcb;
  pcb.on_state ();
  pcb.on_readable ();
  pcb.on_writable ()

and rexmt_timeout t pcb =
  pcb.t_rxtshift <- pcb.t_rxtshift + 1;
  if pcb.t_rxtshift > max_rxtshift then drop_connection t pcb Error.Timedout
  else begin
    bump t (fun s -> s.sndrexmitpack <- s.sndrexmitpack + 1);
    pcb.t_rxtcur <- min 128 (max 1 pcb.t_rxtcur * 2);
    let w = max (min pcb.snd_wnd pcb.snd_cwnd / 2) (2 * pcb.t_maxseg) in
    pcb.snd_ssthresh <- w;
    pcb.snd_cwnd <- pcb.t_maxseg;
    pcb.t_rtt <- -1;
    pcb.t_dupacks <- 0;
    pcb.snd_recover <- pcb.snd_max;
    (match pcb.t_state with
    | Syn_sent ->
        pcb.snd_nxt <- pcb.iss;
        send_syn t pcb ~with_ack:false
    | Syn_received ->
        pcb.snd_nxt <- pcb.iss;
        send_syn t pcb ~with_ack:true
    | _ ->
        pcb.snd_nxt <- pcb.snd_una;
        if pcb.fin_sent then pcb.fin_sent <- false;
        pcb.ack_now <- true;
        tcp_output t pcb);
    if pcb.t_state <> Closed && not (armed pcb tw_rexmt) then set_rexmt t pcb pcb.t_rxtcur
  end

(* A window too small for the short-segment test, with nothing in flight:
   send what it takes, forced, as the donor's persist fire does.  A zero
   window gets the one-byte probe. *)
and persist_timeout t pcb =
  let off = Codec.seq_diff pcb.snd_nxt pcb.snd_una in
  if min pcb.snd_wnd pcb.snd_cwnd > off then begin
    pcb.t_force <- true;
    tcp_output t pcb;
    pcb.t_force <- false
  end
  else begin
    (try
       if pcb.snd_buf.Sockbuf.sb_cc > off then begin
         let payload = Sockbuf.copy_range pcb.snd_buf ~off ~len:1 in
         emit_segment t pcb ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~flags:th_ack
           ~win:(rcv_window pcb) ~payload:(Some payload) ~mss_opt:false ~wscale:None
       end
     with Memfault.Nomem ->
       (* The probe is skipped; the persist timer re-arms below anyway. *)
       bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
       tcp_reclaim t);
    set_persist t pcb (min 128 (max 2 (pcb.t_rxtcur * 2)))
  end

(* One loop event: advance [wheel] one tick — a slow tick also expires
   the TIME_WAIT records whose 2MSL it ends — then fire what came due in
   the order the donor's walk of the pcb list visits it.  The walk goes
   one home CPU at a time, ascending (one group at one CPU), with each
   CPU's fires charged to that CPU's clock brought up to the tick's time;
   within a CPU it follows the list, newest connection first, and within
   a pcb it tests rexmt, persist, then delack.  Every due entry leaves the
   wheel before the first fires, as the walk ages all of a pcb's counters
   before firing any. *)
and tick t wheel =
  ignore (Timewheel.advance wheel ~now:(Timewheel.now wheel + 1));
  if wheel == t.slow_wheel then
    Conn_table.expire t.conns ~now:(Timewheel.now wheel) (fun r ->
        Cost.count_wheel_fire ();
        t.due <- Expiry r :: t.due);
  let home = function Slot (p, _) -> p.conn.Conn_table.home | Expiry r -> r.Tw_queue.tw_home
  and serial = function
    | Slot (p, _) -> p.conn.Conn_table.serial
    | Expiry r -> r.Tw_queue.tw_serial
  and slot = function Slot (_, i) -> i | Expiry _ -> 0 in
  let due =
    List.sort (fun d e -> compare (home d, serial e, slot d) (home e, serial d, slot e)) t.due
  in
  t.due <- [];
  let rec on_home_cpus = function
    | [] -> ()
    | d :: _ as due ->
        let mine, rest = List.partition (fun e -> home e = home d) due in
        Machine.run_on t.machine ~cpu:(home d) (fun () -> List.iter (fire t) mine);
        on_home_cpus rest
  in
  on_home_cpus due

and fire t = function
  | Expiry r -> Conn_table.release t.conns r
  | Slot (pcb, slot) -> fire_slot t pcb slot

and fire_slot t pcb slot =
  if slot = tw_rexmt then rexmt_timeout t pcb
  else if slot = tw_persist then (if pcb.t_state <> Closed then persist_timeout t pcb)
  else if pcb.delack_pending then begin
    pcb.delack_pending <- false;
    pcb.ack_now <- true;
    bump t (fun s -> s.delack <- s.delack + 1);
    tcp_output t pcb
  end

(* ------------------------------------------------------------------ *)
(* RTT estimation (Jacobson, BSD fixed point)                          *)

(* The Karn-filtered RTT sample, in slow ticks: 1 at the timed send, +1
   per slow tick since, as the donor's per-tick [t_rtt++] counts. *)
let rtt_sample t pcb = 1 + Timewheel.now t.slow_wheel - pcb.t_rtt

let update_rtt pcb rtt =
  if pcb.t_srtt <> 0 then begin
    let delta = rtt - 1 - (pcb.t_srtt lsr 3) in
    pcb.t_srtt <- max 1 (pcb.t_srtt + delta);
    let delta = abs delta - (pcb.t_rttvar lsr 2) in
    pcb.t_rttvar <- max 1 (pcb.t_rttvar + delta)
  end
  else begin
    pcb.t_srtt <- rtt lsl 3;
    pcb.t_rttvar <- rtt lsl 1
  end;
  pcb.t_rtt <- -1;
  pcb.t_rxtshift <- 0;
  pcb.t_rxtcur <- max 1 (min 128 ((pcb.t_srtt lsr 3) + pcb.t_rttvar))

(* ------------------------------------------------------------------ *)
(* reassembly                                                          *)

let rec reass_deliver pcb =
  (* Entries the stream has advanced past are dead; shed (and retire) them
     or they block FIN processing forever. *)
  let live, dead =
    List.partition
      (fun (seq, m) -> Codec.seq_gt (Codec.m32 (seq + Mbuf.m_length m)) pcb.rcv_nxt)
      pcb.reass
  in
  List.iter (fun (_, m) -> Mbuf.m_freem m) dead;
  pcb.reass <- live;
  match
    List.find_opt
      (fun (seq, m) ->
        Codec.seq_leq seq pcb.rcv_nxt
        && Codec.seq_gt (Codec.m32 (seq + Mbuf.m_length m)) pcb.rcv_nxt)
      pcb.reass
  with
  | None -> ()
  | Some ((seq, m) as entry) ->
      pcb.reass <- List.filter (fun e -> e != entry) pcb.reass;
      let skip = Codec.seq_diff pcb.rcv_nxt seq in
      if skip > 0 then Mbuf.m_adj m skip;
      let len = Mbuf.m_length m in
      if len > 0 then begin
        Sockbuf.sbappend_chain pcb.rcv_buf m;
        pcb.rcv_nxt <- Codec.m32 (pcb.rcv_nxt + len)
      end
      else Mbuf.m_freem m;
      reass_deliver pcb

(* ------------------------------------------------------------------ *)
(* tcp_input                                                           *)

(* The connection's part in TIME_WAIT passes to a compact record in the
   table, timed by the slow ticks (the 2MSL wait still counts as a timer
   armed, fired or cancelled).  Its timers stop and its send buffer, all
   acknowledged, is retired; a socket the user still holds keeps the pcb,
   reading TIME_WAIT, and what it has yet to read. *)
let enter_time_wait t pcb =
  pcb.t_state <- Time_wait;
  let win = rcv_window pcb in
  cancel_timers pcb;
  Sockbuf.sbdrop pcb.snd_buf pcb.snd_buf.Sockbuf.sb_cc;
  Cost.count_wheel_arm ();
  ignore
    (Conn_table.time_wait t.conns pcb ~laddr:pcb.laddr ~snd_nxt:pcb.snd_nxt
       ~rcv_nxt:pcb.rcv_nxt ~win ~scale:pcb.rcv_scale
       ~expires:(Timewheel.now t.slow_wheel + (2 * msl_ticks))
       ~retire:(retire_time_wait t))

(* Cache (or, for a retransmitted SYN, re-answer) a half-open handshake
   without creating a child pcb.  A SYN with no MSS option gets the
   undefended child's t_maxseg. *)
let syncache_add t pcb ~src ~sport ~seq ~mss =
  let e =
    Syncache.add t.syncache pcb.syn_cache ~raddr:src ~rport:sport ~lport:pcb.lport ~irs:seq
      ~mss ~own_mss:Cost.config.tcp_mss
  in
  send_synack_raw t ~laddr:pcb.laddr ~lport:pcb.lport ~raddr:src ~rport:sport
    ~iss:e.Syncache.iss ~irs:e.Syncache.irs ~mss:e.Syncache.mss

let enter_established t pcb =
  match pcb.conn.Conn_table.parent with
  | Some parent when parent.t_state <> Listen ->
      (* The listener closed while our handshake completed: nobody will
         ever accept us, so reset rather than leak an orphaned pcb. *)
      emit_segment t pcb ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~flags:(th_rst lor th_ack)
        ~win:0 ~payload:None ~mss_opt:false ~wscale:None;
      pcb.t_state <- Closed;
      bump t (fun s -> s.drops <- s.drops + 1);
      detach t pcb
  | parent_opt ->
      pcb.t_state <- Established;
      pcb.snd_cwnd <- 2 * pcb.t_maxseg;
      (match parent_opt with
      | Some parent ->
          bump t (fun s -> s.accepts <- s.accepts + 1);
          Conn_table.established t.conns pcb;
          parent.on_readable ()
      | None -> bump t (fun s -> s.connects <- s.connects + 1));
      pcb.on_state ();
      pcb.on_writable ()

(* Returns true if our FIN was acknowledged by [ack]. *)
let process_ack pcb ack =
  let acked = Codec.seq_diff ack pcb.snd_una in
  if acked <= 0 then false
  else begin
    pcb.t_dupacks <- 0;
    if pcb.t_rtt >= 0 && Codec.seq_gt ack pcb.t_rtseq then
      update_rtt pcb (rtt_sample pcb.t_stack pcb);
    if pcb.snd_cwnd < pcb.snd_ssthresh then pcb.snd_cwnd <- pcb.snd_cwnd + pcb.t_maxseg
    else
      pcb.snd_cwnd <-
        min
          (max_win lsl max 2 pcb.snd_scale)
          (pcb.snd_cwnd + max 1 (pcb.t_maxseg * pcb.t_maxseg / pcb.snd_cwnd));
    let data_acked = min acked pcb.snd_buf.Sockbuf.sb_cc in
    let fin_acked = pcb.fin_sent && acked > data_acked in
    if data_acked > 0 then Sockbuf.sbdrop pcb.snd_buf data_acked;
    pcb.snd_una <- ack;
    if Codec.seq_lt pcb.snd_nxt pcb.snd_una then pcb.snd_nxt <- pcb.snd_una;
    set_rexmt pcb.t_stack pcb
      (if Codec.seq_geq pcb.snd_una pcb.snd_max then 0 else pcb.t_rxtcur);
    pcb.on_writable ();
    fin_acked
  end

let fast_retransmit t pcb =
  bump t (fun s -> s.fastrexmit <- s.fastrexmit + 1);
  let w = max (min pcb.snd_wnd pcb.snd_cwnd / 2) (2 * pcb.t_maxseg) in
  pcb.snd_ssthresh <- w;
  pcb.snd_recover <- pcb.snd_max;
  set_rexmt t pcb 0;
  pcb.t_rtt <- -1;
  let onxt = pcb.snd_nxt in
  pcb.snd_nxt <- pcb.snd_una;
  pcb.snd_cwnd <- pcb.t_maxseg;
  tcp_output t pcb;
  pcb.snd_cwnd <- w + (3 * pcb.t_maxseg);
  if Codec.seq_gt onxt pcb.snd_nxt then pcb.snd_nxt <- onxt

(* NewReno partial ACK: the first hole is plugged but [ack] stops short of
   [snd_recover], so another segment from the same window is lost too.
   Retransmit the next one immediately, deflate cwnd by the amount acked,
   and stay in recovery — do not sample RTT (Karn: the range includes a
   retransmission) and do not reset the dup-ACK count. *)
let newreno_partial_ack t pcb ack =
  let acked = Codec.seq_diff ack pcb.snd_una in
  let onxt = pcb.snd_nxt in
  let ocwnd = pcb.snd_cwnd in
  set_rexmt t pcb 0;
  pcb.t_rtt <- -1;
  pcb.snd_nxt <- ack;
  pcb.snd_cwnd <- pcb.t_maxseg + acked;
  tcp_output t pcb;
  if Codec.seq_gt onxt pcb.snd_nxt then pcb.snd_nxt <- onxt;
  pcb.snd_cwnd <- max pcb.t_maxseg (ocwnd - acked + pcb.t_maxseg);
  let data_acked = min acked pcb.snd_buf.Sockbuf.sb_cc in
  if data_acked > 0 then Sockbuf.sbdrop pcb.snd_buf data_acked;
  pcb.snd_una <- ack;
  if Codec.seq_lt pcb.snd_nxt pcb.snd_una then pcb.snd_nxt <- pcb.snd_una;
  if not (armed pcb tw_rexmt) then set_rexmt t pcb pcb.t_rxtcur;
  pcb.on_writable ()

(* Receive-buffer autotuning: the 500 ms slow-tick srtt is far too coarse
   to size buffers at millisecond RTTs, so the shared clump detector
   infers the RTT structurally. *)
let autotune_rcv t pcb ~dlen =
  let b = pcb.rcv_buf in
  b.Sockbuf.sb_hiwat <- Autotune.rcv pcb.rxclump t.machine ~dlen ~buf:b.Sockbuf.sb_hiwat

(* Returns true when ownership of [data] was taken (appended to the receive
   buffer or parked in the reassembly queue); the caller frees it otherwise. *)
let rec segment_arrives t pcb ~src ~sport ~seq ~ack ~flags ~win ~mss ~wscale ~data =
  let dlen = Mbuf.m_length data in
  match pcb.t_state with
  | Closed -> false
  | Listen ->
      if flags land th_rst <> 0 then false
      else if flags land th_ack <> 0 then begin
        if Cost.config.syn_defense && flags land th_syn = 0 then
          (* The third packet of a defended handshake: no child pcb exists
             yet — complete from the syncache, or from the cookie. *)
          syncache_expand t pcb ~src ~sport ~seq ~ack ~flags ~win ~data
        else begin
          if err_allowed t then
            send_rst t ~src ~dst:pcb.laddr ~sport ~dport:pcb.lport ~seq ~ack ~had_ack:true;
          false
        end
      end
      else if flags land th_syn <> 0 then begin
        (if Cost.config.syn_defense then
           (* Embryonic state lives in the syncache, off the backlog. *)
           syncache_add t pcb ~src ~sport ~seq ~mss
         else if not (Conn_table.admits_syn t.conns pcb) then
          (* Queue overflow: drop the SYN on the floor (the peer will
             retransmit it) and count the drop. *)
          bump t (fun s -> s.listen_overflow <- s.listen_overflow + 1)
        else begin
          let conn = create_pcb t in
          conn.laddr <- pcb.laddr;
          conn.lport <- pcb.lport;
          conn.raddr <- src;
          conn.rport <- sport;
          conn.t_nopush <- pcb.t_nopush;
          conn.t_nodelay <- pcb.t_nodelay;
          (match mss with Some v -> conn.t_maxseg <- min Cost.config.tcp_mss v | None -> ());
          (match wscale with Some s -> setup_scaling conn ~peer:s | None -> ());
          conn.irs <- seq;
          conn.rcv_nxt <- Codec.m32 (seq + 1);
          conn.rcv_adv <- Codec.m32 (conn.rcv_nxt + rcv_window conn);
          conn.iss <- next_iss t;
          conn.snd_una <- conn.iss;
          conn.snd_nxt <- conn.iss;
          conn.snd_max <- conn.iss;
          set_snd_wnd conn win;
          conn.t_state <- Syn_received;
          Conn_table.child t.conns conn ~parent:pcb ~laddr:conn.laddr ~raddr:src ~rport:sport;
          ensure_timers t;
          send_syn t conn ~with_ack:true
        end);
        false
      end
      else false
  | Syn_sent ->
      let ack_ok =
        flags land th_ack <> 0 && Codec.seq_gt ack pcb.iss && Codec.seq_leq ack pcb.snd_max
      in
      (if flags land th_ack <> 0 && not ack_ok then begin
        if flags land th_rst = 0 then
          send_rst t ~src ~dst:pcb.laddr ~sport ~dport:pcb.lport ~seq ~ack ~had_ack:true
      end
      else if flags land th_rst <> 0 then begin
        if ack_ok then drop_connection t pcb Error.Connrefused
      end
      else if flags land th_syn <> 0 then begin
        (match mss with Some v -> pcb.t_maxseg <- min Cost.config.tcp_mss v | None -> ());
        (match wscale with Some s -> setup_scaling pcb ~peer:s | None -> ());
        pcb.irs <- seq;
        pcb.rcv_nxt <- Codec.m32 (seq + 1);
        pcb.rcv_adv <- Codec.m32 (pcb.rcv_nxt + rcv_window pcb);
        set_snd_wnd pcb win;
        pcb.snd_wl1 <- seq;
        pcb.snd_wl2 <- ack;
        if ack_ok then begin
          pcb.snd_una <- ack;
          set_rexmt t pcb 0;
          pcb.t_rxtshift <- 0;
          enter_established t pcb;
          pcb.ack_now <- true;
          tcp_output t pcb
        end
        else begin
          (* Simultaneous open. *)
          pcb.t_state <- Syn_received;
          pcb.snd_nxt <- pcb.iss;
          send_syn t pcb ~with_ack:true
        end
      end);
      false
  | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      common_input t pcb ~src ~sport ~seq ~ack ~flags ~win ~data ~dlen
  | Time_wait -> false

(* Returns true when [data] was stored (receive buffer / reassembly queue). *)
and common_input t pcb ~src ~sport ~seq ~ack ~flags ~win ~data ~dlen =
  ignore src;
  ignore sport;
  let stored = ref false in
  (if flags land th_rst <> 0 then begin
    if
      Codec.seq_geq seq pcb.rcv_nxt
      && Codec.seq_lt seq (Codec.m32 (pcb.rcv_nxt + max 1 (rcv_window pcb)))
    then drop_connection t pcb Error.Connreset
  end
  else begin
    (* Trim to the receive window. *)
    let seq = ref seq and dlen = ref dlen and fin = ref (flags land th_fin <> 0) in
    let dup = ref false in
    let todrop = Codec.seq_diff pcb.rcv_nxt !seq in
    if todrop > 0 then begin
      if todrop >= !dlen then begin
        (* Entirely duplicate data (or a pure old segment). *)
        if !dlen > 0 then begin
          bump t (fun s -> s.rcvdup <- s.rcvdup + 1);
          dup := true;
          pcb.ack_now <- true
        end;
        (* A retransmitted FIN we already consumed: our ACK of it was
           lost, so send it again. *)
        if !fin && todrop > !dlen then begin
          fin := false;
          pcb.ack_now <- true
        end;
        Mbuf.m_adj data !dlen;
        seq := Codec.m32 (!seq + !dlen);
        dlen := 0
      end
      else begin
        Mbuf.m_adj data todrop;
        seq := Codec.m32 (!seq + todrop);
        dlen := !dlen - todrop
      end
    end;
    let wnd = rcv_window pcb in
    let past = Codec.seq_diff (Codec.m32 (!seq + !dlen)) (Codec.m32 (pcb.rcv_nxt + wnd)) in
    if past > 0 && !dlen > 0 then begin
      bump t (fun s -> s.rcvafterwin <- s.rcvafterwin + 1);
      if past >= !dlen then begin
        (* Entirely beyond the window. *)
        pcb.ack_now <- true;
        Mbuf.m_adj data !dlen;
        dlen := 0;
        fin := false
      end
      else begin
        Mbuf.m_adj data (- past);
        dlen := !dlen - past;
        fin := false
      end
    end;
    (* ACK processing. *)
    let proceed = ref true in
    if flags land th_ack = 0 then proceed := false
    else begin
      (match pcb.t_state with
      | Syn_received ->
          if Codec.seq_gt ack pcb.snd_una && Codec.seq_leq ack pcb.snd_max then begin
            pcb.snd_una <- ack;
            set_rexmt t pcb 0;
            pcb.t_rxtshift <- 0;
            set_snd_wnd pcb win;
            pcb.snd_wl1 <- !seq;
            pcb.snd_wl2 <- ack;
            enter_established t pcb
          end
          else begin
            send_rst t ~src ~dst:pcb.laddr ~sport ~dport:pcb.lport ~seq:!seq ~ack
              ~had_ack:true;
            proceed := false
          end
      | _ -> ());
      if !proceed && pcb.t_state <> Syn_received then begin
        if Codec.seq_leq ack pcb.snd_una then begin
          (* Old or duplicate ACK. *)
          if
            !dlen = 0 && win = pcb.snd_wnd
            && Codec.seq_lt pcb.snd_una pcb.snd_max
          then begin
            pcb.t_dupacks <- pcb.t_dupacks + 1;
            if pcb.t_dupacks = 3 then fast_retransmit t pcb
            else if pcb.t_dupacks > 3 then begin
              pcb.snd_cwnd <- pcb.snd_cwnd + pcb.t_maxseg;
              tcp_output t pcb
            end
          end
          else if !dlen = 0 then pcb.t_dupacks <- 0
        end
        else if Codec.seq_gt ack pcb.snd_max then pcb.ack_now <- true
        else if pcb.t_dupacks >= 3 && Codec.seq_lt ack pcb.snd_recover then
          newreno_partial_ack t pcb ack
        else begin
          (* A full ACK past snd_recover leaves fast recovery: deflate. *)
          if pcb.t_dupacks >= 3 then pcb.snd_cwnd <- min pcb.snd_cwnd pcb.snd_ssthresh;
          let fin_acked = process_ack pcb ack in
          match pcb.t_state with
          | Fin_wait_1 ->
              if fin_acked then begin
                pcb.t_state <- Fin_wait_2;
                pcb.on_state ()
              end
          | Closing ->
              if fin_acked then begin
                pcb.t_state <- Time_wait;
                pcb.on_state ()
              end
          | Last_ack ->
              if fin_acked then begin
                pcb.t_state <- Closed;
                detach t pcb;
                pcb.on_state ()
              end
          | _ -> ()
        end
      end
    end;
    if !proceed && pcb.t_state <> Closed then begin
      (* Window update (donor's wl1/wl2 rules). *)
      if
        flags land th_ack <> 0
        && (Codec.seq_lt pcb.snd_wl1 !seq
           || pcb.snd_wl1 = !seq
              && (Codec.seq_lt pcb.snd_wl2 ack || (pcb.snd_wl2 = ack && win > pcb.snd_wnd)))
      then begin
        set_snd_wnd pcb win;
        pcb.snd_wl1 <- !seq;
        pcb.snd_wl2 <- ack;
        if win > 0 then set_persist t pcb 0;
        pcb.on_writable ()
      end;
      (* Data. *)
      if !dlen > 0 then begin
        if !seq = pcb.rcv_nxt && pcb.reass = [] then begin
          (* In order: append the arriving chain, zero-copy. *)
          autotune_rcv t pcb ~dlen:!dlen;
          Sockbuf.sbappend_chain pcb.rcv_buf data;
          stored := true;
          pcb.rcv_nxt <- Codec.m32 (pcb.rcv_nxt + !dlen);
          (* Every-other-segment ACK: delay the first, force on the
             second. *)
          if pcb.delack_pending then begin
            set_delack t pcb false;
            pcb.ack_now <- true
          end
          else set_delack t pcb true;
          pcb.on_readable ()
        end
        else begin
          bump t (fun s -> s.rcvoo <- s.rcvoo + 1);
          pcb.reass <- (!seq, data) :: pcb.reass;
          stored := true;
          let before = pcb.rcv_buf.Sockbuf.sb_cc in
          reass_deliver pcb;
          (* Wake the reader if the splice made bytes available, even when
             later out-of-order segments are still queued. *)
          if pcb.rcv_buf.Sockbuf.sb_cc > before then pcb.on_readable ();
          pcb.ack_now <- true
        end
      end
      else if !dup then pcb.ack_now <- true;
      (* FIN. *)
      if !fin && Codec.m32 (!seq + !dlen) = pcb.rcv_nxt && pcb.reass = [] then begin
        if not pcb.rcv_fin then begin
          pcb.rcv_fin <- true;
          pcb.rcv_nxt <- Codec.m32 (pcb.rcv_nxt + 1);
          pcb.ack_now <- true;
          pcb.on_readable ();
          match pcb.t_state with
          | Syn_received | Established ->
              pcb.t_state <- Close_wait;
              pcb.on_state ()
          | Fin_wait_1 ->
              (* Our FIN not yet acked: simultaneous close. *)
              pcb.t_state <- Closing;
              pcb.on_state ()
          | Fin_wait_2 ->
              pcb.t_state <- Time_wait;
              pcb.on_state ()
          | Close_wait | Closing | Last_ack | Time_wait | Closed | Listen | Syn_sent -> ()
        end
        else pcb.ack_now <- true
      end;
      if pcb.ack_now || pcb.t_state <> Closed then tcp_output t pcb;
      (* This segment took the connection into TIME_WAIT. *)
      if pcb.t_state = Time_wait then enter_time_wait t pcb
    end
  end);
  !stored

(* The completing ACK of a defended handshake, arriving at the listener
   because no child pcb exists yet.  Restore the handshake from the
   syncache entry, or — if it was evicted — from the cookie the ACK
   echoes, then build the child and run this very segment through the
   normal machine so any data or FIN it carries is processed.  Returns
   true when [data] was stored. *)
and syncache_expand t pcb ~src ~sport ~seq ~ack ~flags ~win ~data =
  match
    Syncache.expand t.syncache pcb.syn_cache ~raddr:src ~rport:sport ~lport:pcb.lport ~seq ~ack
  with
  | None ->
      if err_allowed t then
        send_rst t ~src ~dst:pcb.laddr ~sport ~dport:pcb.lport ~seq ~ack ~had_ack:true;
      false
  | Some { Syncache.iss; irs; mss; _ } ->
      if not (Conn_table.admits_cookie t.conns pcb) then begin
        (* Accept queue full: drop the ACK, not the handshake — the peer
           retransmits, and the cookie completes it once the queue
           drains. *)
        bump t (fun s -> s.listen_overflow <- s.listen_overflow + 1);
        false
      end
      else begin
        let conn = create_pcb t in
        conn.laddr <- pcb.laddr;
        conn.lport <- pcb.lport;
        conn.raddr <- src;
        conn.rport <- sport;
        conn.t_nopush <- pcb.t_nopush;
        conn.t_nodelay <- pcb.t_nodelay;
        conn.t_maxseg <- min Cost.config.tcp_mss mss;
        conn.irs <- irs;
        conn.rcv_nxt <- Codec.m32 (irs + 1);
        conn.rcv_adv <- Codec.m32 (conn.rcv_nxt + rcv_window conn);
        conn.iss <- iss;
        conn.snd_una <- iss;
        conn.snd_nxt <- Codec.m32 (iss + 1);
        conn.snd_max <- Codec.m32 (iss + 1);
        conn.t_state <- Syn_received;
        Conn_table.child t.conns conn ~parent:pcb ~laddr:conn.laddr ~raddr:src ~rport:sport;
        ensure_timers t;
        segment_arrives t conn ~src ~sport ~seq ~ack ~flags ~win ~mss:None ~wscale:None ~data
      end

(* ------------------------------------------------------------------ *)
(* TIME_WAIT                                                           *)

(* The ACK a TIME_WAIT record sends, as tcp_output sends it for a pcb in
   TIME_WAIT: everything sent and acknowledged, nothing to add. *)
let time_wait_ack t r =
  let open Tw_queue in
  try
    output_segment t (header_mbuf Codec.tcp_hlen) ~src:r.tw_laddr ~dst:r.tw_raddr
      ~sport:r.tw_lport ~dport:r.tw_rport ~seq:r.tw_snd_nxt ~ack:r.tw_rcv_nxt ~flags:th_ack
      ~win:(min (r.tw_win asr r.tw_scale) max_win) ~mss:None ~wscale:None
  with Memfault.Nomem ->
    bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
    tcp_reclaim t

(* A segment for a TIME_WAIT record: what [common_input] does for a pcb
   in TIME_WAIT, whose stream is complete both ways.  An RST inside the
   window resets it; otherwise data is trimmed to the window and counted
   as [common_input] counts it, and an ACK goes back for duplicate data,
   a FIN at [rcv_nxt] or a retransmitted one, an acknowledgment of
   something never sent, or data past the peer's FIN, which the record
   has no buffer for and so does not take.  A segment without ACK is
   answered by nothing. *)
let time_wait_input t r ~seq ~ack ~flags ~dlen =
  let open Tw_queue in
  let rcv_nxt = r.tw_rcv_nxt and wnd = r.tw_win in
  if flags land th_rst <> 0 then begin
    if Codec.seq_geq seq rcv_nxt && Codec.seq_lt seq (Codec.m32 (rcv_nxt + max 1 wnd)) then begin
      bump t (fun s -> s.drops <- s.drops + 1);
      end_time_wait t r
    end
  end
  else begin
    let ack_now = ref false and fin = ref (flags land th_fin <> 0) in
    let todrop = Codec.seq_diff rcv_nxt seq in
    let seq, dlen =
      if todrop <= 0 then seq, dlen
      else if todrop >= dlen then begin
        if dlen > 0 then begin
          bump t (fun s -> s.rcvdup <- s.rcvdup + 1);
          ack_now := true
        end;
        (* a retransmitted FIN, already consumed: ACK it again (its ACK
           was lost), as 4.4BSD does for any FIN left of the window *)
        if todrop > dlen then begin
          fin := false;
          ack_now := true
        end;
        Codec.m32 (seq + dlen), 0
      end
      else rcv_nxt, dlen - todrop
    in
    let past = Codec.seq_diff (Codec.m32 (seq + dlen)) (Codec.m32 (rcv_nxt + wnd)) in
    let dlen =
      if past > 0 && dlen > 0 then begin
        bump t (fun s -> s.rcvafterwin <- s.rcvafterwin + 1);
        fin := false;
        if past >= dlen then begin
          ack_now := true;
          0
        end
        else dlen - past
      end
      else dlen
    in
    if flags land th_ack <> 0 then begin
      if Codec.seq_gt ack r.tw_snd_nxt then ack_now := true;
      if dlen > 0 then begin
        if seq <> rcv_nxt then bump t (fun s -> s.rcvoo <- s.rcvoo + 1);
        ack_now := true
      end
      else if !fin && seq = rcv_nxt then ack_now := true;
      if !ack_now then Netif.with_burst t.ip.Ip.ifp time_wait_ack t r
    end
  end

(* ------------------------------------------------------------------ *)
(* header prediction (Cost.config.tcp_fastpath)                        *)

(* The Van Jacobson one-compare test, broadened just enough for this
   testbed's traffic: an established-state segment with no SYN/FIN/RST,
   exactly in order, nothing queued for reassembly, nothing retransmitted
   in flight, an ACK inside [snd_una, snd_max], and either new data or a
   forward ACK (a pure duplicate/probe is left to the dup-ack machinery).
   For such a segment [common_input]'s trim, dup-ACK, FIN and state-change
   branches do nothing, so the prediction only chooses the charge. *)
let fastpath_pred pcb ~seq ~ack ~flags ~dlen =
  pcb.t_state = Established
  && flags land (th_syn lor th_fin lor th_rst) = 0
  && flags land th_ack <> 0
  && seq = pcb.rcv_nxt
  && pcb.reass = []
  && pcb.snd_nxt = pcb.snd_max
  && pcb.t_dupacks < 3
  && Codec.seq_geq ack pcb.snd_una
  && Codec.seq_leq ack pcb.snd_max
  && (Codec.seq_gt ack pcb.snd_una || dlen > 0)
  && dlen <= rcv_window pcb

let rec input t ~src ~dst m =
  try input_segment t ~src ~dst m
  with Memfault.Nomem ->
    (* The only unguarded allocation on the input path is the header
       pullup, which fails before the chain is touched: drop the segment
       whole, as if the wire had lost it. *)
    bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
    tcp_reclaim t;
    Mbuf.m_freem m

and input_segment t ~src ~dst m =
  let fast = Cost.config.tcp_fastpath in
  Cost.charge Protocol
    (if fast then Cost.config.tcp_fastpath_cycles else Cost.config.bsd_tcp_pkt_cycles);
  (* A segment that misses the prediction pays the balance of the general
     per-segment protocol cost, so the flags-off charge total is preserved
     exactly for every slow-path segment. *)
  let slowpath () =
    if fast then
      Cost.charge Protocol
        (max 0 (Cost.config.bsd_tcp_pkt_cycles - Cost.config.tcp_fastpath_cycles))
  in
  bump t (fun s -> s.rcvpack <- s.rcvpack + 1);
  let total = Mbuf.m_length m in
  (* A runt, or a header whose data offset lies outside the segment. *)
  let drop_short m =
    slowpath ();
    bump t (fun s -> s.rcvshort <- s.rcvshort + 1);
    Mbuf.m_freem m
  in
  if total < Codec.tcp_hlen then drop_short m
  else begin
    let sum =
      In_cksum.cksum_chain m ~off:0 ~len:total
        ~init:(Codec.pseudo_header ~src ~dst ~proto:Ip.proto_tcp ~len:total)
    in
    if sum <> 0 then begin
      slowpath ();
      bump t (fun s -> s.rcvbadsum <- s.rcvbadsum + 1);
      Mbuf.m_freem m
    end
    else begin
      let m = Mbuf.m_pullup m (min total 64) in
      match Codec.parse_tcp m.Mbuf.m_data ~off:m.Mbuf.m_off ~len:total with
      | None -> drop_short m
      | Some { Codec.sport; dport; seq; ack; hlen; flags; win; mss; wscale } -> (
          Mbuf.m_adj m hlen;
          match Conn_table.find t.conns ~raddr:src ~rport:sport ~lport:dport with
          | None ->
              slowpath ();
              if flags land th_rst = 0 && err_allowed t then begin
                (* SYN and FIN occupy sequence space: the RST must acknowledge
                   them or the peer will ignore it. *)
                let seg_len =
                  Mbuf.m_length m
                  + (if flags land th_syn <> 0 then 1 else 0)
                  + if flags land th_fin <> 0 then 1 else 0
                in
                send_rst t ~src ~dst ~sport ~dport ~seq:(Codec.m32 (seq + seg_len)) ~ack
                  ~had_ack:(flags land th_ack <> 0)
              end;
              Mbuf.m_freem m
          | Some (Conn_table.Tw r) ->
              slowpath ();
              time_wait_input t r ~seq ~ack ~flags ~dlen:(Mbuf.m_length m);
              Mbuf.m_freem m
          | Some (Conn_table.Live pcb) ->
              let dlen = Mbuf.m_length m in
              (* Past the handshake the 16-bit window field arrives shifted by
                 the peer's negotiated scale; SYN windows are never scaled. *)
              let win = if flags land th_syn = 0 then win lsl pcb.snd_scale else win in
              if fast && fastpath_pred pcb ~seq ~ack ~flags ~dlen then begin
                Cost.count_fastpath_hit ();
                if dlen > 0 then bump t (fun s -> s.preddat <- s.preddat + 1)
                else bump t (fun s -> s.predack <- s.predack + 1)
              end
              else begin
                slowpath ();
                (* Only established-state, no-control-flag segments count as
                   prediction fallbacks; handshake and teardown segments are
                   never candidates. *)
                if
                  fast && pcb.t_state = Established
                  && flags land (th_syn lor th_fin lor th_rst) = 0
                then begin
                  Cost.count_fastpath_fallback ();
                  bump t (fun s -> s.predfallback <- s.predfallback + 1)
                end
              end;
              if
                not
                  (segment_arrives t pcb ~src ~sport ~seq ~ack ~flags ~win ~mss ~wscale ~data:m)
              then Mbuf.m_freem m)
    end
  end

(* ------------------------------------------------------------------ *)
(* user requests (what the socket layer calls)                         *)

let make_stats () =
  { sndpack = 0; sndrexmitpack = 0; rcvpack = 0; rcvdup = 0; rcvoo = 0;
    rcvbadsum = 0; rcvshort = 0; rcvafterwin = 0; delack = 0; fastrexmit = 0;
    drops = 0; accepts = 0; connects = 0; listen_overflow = 0;
    predack = 0; preddat = 0; predfallback = 0;
    time_wait_reclaimed = 0; nomem_drops = 0; rst_ratelimited = 0 }

let attach ip machine =
  let t =
    { ip; machine; conns =
        Conn_table.create machine ~entry:(fun p -> p.conn)
          ~embryonic:(fun p -> p.t_state = Syn_received);
      iss_source = 1; ticking = false; fast_ticking = false;
      slow_wheel = Timewheel.create ();
      fast_wheel = Timewheel.create ();
      due = []; syncache = Syncache.create ~secret:0x6b8b4567;
      err_bucket = Token_bucket.create machine;
      stats = make_stats ();
      stats_shards = Array.init (Machine.ncpus machine) (fun _ -> make_stats ()) }
  in
  Ip.set_proto ip ~proto:Ip.proto_tcp (fun ~src ~dst m -> input t ~src ~dst m);
  t

(* A pcb in the connection table is past binding (in_pcbbind's EINVAL). *)
let usr_bind t pcb ~port =
  if Conn_table.registered t.conns pcb then Result.Error Error.Inval
  else if Option.is_some (Conn_table.listener t.conns ~lport:port) then Result.Error Error.Addrinuse
  else begin
    pcb.lport <- port;
    pcb.laddr <- t.ip.Ip.ifp.Netif.if_addr;
    Ok ()
  end

(* An unbound pcb takes the next free ephemeral port. *)
let bind_ephemeral t pcb =
  if pcb.lport <> 0 then Ok ()
  else Result.map (fun p -> pcb.lport <- p) (Conn_table.ephemeral t.conns)

let usr_listen t pcb ~backlog =
  Result.map
    (fun () ->
      if Int32.equal pcb.laddr 0l then pcb.laddr <- t.ip.Ip.ifp.Netif.if_addr;
      pcb.t_state <- Listen;
      Conn_table.listen t.conns pcb ~lport:pcb.lport ~backlog;
      ensure_timers t)
    (bind_ephemeral t pcb)

let usr_connect t pcb ~dst ~dport =
  if pcb.t_state <> Closed then Result.Error Error.Isconn
  else
    Result.map
      (fun () ->
        pcb.laddr <- t.ip.Ip.ifp.Netif.if_addr;
        pcb.raddr <- dst;
        pcb.rport <- dport;
        pcb.iss <- next_iss t;
        pcb.snd_una <- pcb.iss;
        pcb.snd_nxt <- pcb.iss;
        pcb.snd_max <- pcb.iss;
        pcb.t_state <- Syn_sent;
        Conn_table.connect t.conns pcb ~laddr:pcb.laddr ~lport:pcb.lport ~raddr:dst ~rport:dport;
        ensure_timers t;
        send_syn t pcb ~with_ack:false)
      (bind_ephemeral t pcb)

let autotune_snd pcb =
  let b = pcb.snd_buf in
  b.Sockbuf.sb_hiwat <-
    Autotune.snd ~net:(min pcb.snd_wnd pcb.snd_cwnd) ~buf:b.Sockbuf.sb_hiwat

(* How bytes enter the send buffer, as 4.4BSD's sosend takes a uio or an
   mbuf chain: [Copy b], copied out of [b] into clusters, or [Loan frags],
   the sendfile path's mapped file fragments, wrapped as loaned ext mbufs
   with no copy.  A loaned mbuf holds its cache block until the last alias
   of its storage is freed — once the bytes are acked, retransmit aliases
   sharing the hold — and carries the block's checksum memo, so resent
   bytes are not summed again. *)
type send_src = Copy of bytes | Loan of Io_if.file_frag list

(* Append the bytes [off, off + len) of [frags] to [sb] as loaned mbufs,
   wrapped in fragment order. *)
let sbappend_loan sb frags ~off ~len =
  let rec build fs skip need =
    match fs with
    | f :: rest when need > 0 ->
        if skip >= f.Io_if.fr_len then build rest (skip - f.Io_if.fr_len) need
        else begin
          let take = min need (f.Io_if.fr_len - skip) in
          f.Io_if.fr_hold ();
          let m =
            Mbuf.m_ext_wrap_free f.Io_if.fr_data ~off:(f.Io_if.fr_off + skip) ~len:take
              ~sums:f.Io_if.fr_sums ~on_free:f.Io_if.fr_release
          in
          m.Mbuf.m_next <- build rest 0 (need - take);
          Some m
        end
    | _ -> None
  in
  match build frags off len with
  | Some first ->
      first.Mbuf.m_pkthdr_len <- Mbuf.m_length first;
      Sockbuf.sbappend_chain sb first
  | None -> ()

(* Append as much of the source's bytes [off, off + len) as the send
   buffer takes, and push; returns bytes accepted. *)
let usr_send t pcb src ~off ~len =
  Cost.charge Socket Cost.config.socket_op_cycles;
  match pcb.t_state with
  | Established | Close_wait ->
      autotune_snd pcb;
      let n = min len (Sockbuf.space pcb.snd_buf) in
      let taken =
        if n <= 0 then 0
        else
          match src with
          | Copy b ->
              let taken = Sockbuf.sbappend_bytes_nomem pcb.snd_buf ~src:b ~src_pos:off ~len:n in
              if taken < n then begin
                (* ENOBUFS backpressure: shed cold state, and kick the
                   writer again shortly — with nothing in flight no ACK
                   would ever arrive to unblock a sleeping sender. *)
                bump t (fun s -> s.nomem_drops <- s.nomem_drops + 1);
                tcp_reclaim t;
                ignore (Machine.after t.machine 10_000_000 (fun () -> pcb.on_writable ()))
              end;
              taken
          | Loan frags ->
              sbappend_loan pcb.snd_buf frags ~off ~len:n;
              n
      in
      if taken > 0 then tcp_output t pcb;
      Ok taken
  | Closed | Listen -> Result.Error Error.Notconn
  | Syn_sent | Syn_received -> Ok 0 (* not yet connected: caller blocks *)
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait -> Result.Error Error.Pipe

(* Copy out of the receive buffer; 0 = nothing available (caller blocks
   unless the peer has FINed). *)
let usr_recv t pcb ~dst ~dst_pos ~len =
  Cost.charge Socket Cost.config.socket_op_cycles;
  let avail = pcb.rcv_buf.Sockbuf.sb_cc in
  let n = min len avail in
  if n > 0 then begin
    Sockbuf.copy_out pcb.rcv_buf ~off:0 ~len:n ~dst ~dst_pos;
    Sockbuf.sbdrop pcb.rcv_buf n;
    (* The window just opened: maybe send an update. *)
    tcp_output t pcb
  end;
  n

let usr_abort t pcb =
  (match pcb.t_state with
  | Established | Syn_received | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      emit_segment t pcb ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~flags:(th_rst lor th_ack)
        ~win:0 ~payload:None ~mss_opt:false ~wscale:None
  | Closed | Listen | Syn_sent | Time_wait -> ());
  pcb.t_state <- Closed;
  detach t pcb;
  pcb.on_state ()

let usr_close t pcb =
  match pcb.t_state with
  | Closed -> ()
  | Syn_sent ->
      pcb.t_state <- Closed;
      detach t pcb;
      pcb.on_state ()
  | Listen ->
      (* Closing a listener orphans its never-accepted children: reset the
         established ones parked on the accept queue and the embryonic ones
         still shaking hands, so neither side leaks a connection (the PR-2
         ARP on_drop discipline — fail waiters, don't strand them). *)
      pcb.t_state <- Closed;
      (* Half-open state cached for this listener dies with it (the
         late-arriving ACK of a freed entry gets the no-listener RST). *)
      Syncache.drop_all t.syncache pcb.syn_cache;
      List.iter
        (fun conn -> if conn.t_state <> Closed then usr_abort t conn)
        (Conn_table.orphans t.conns pcb);
      detach t pcb;
      pcb.on_state ()
  | Syn_received | Established ->
      pcb.snd_fin_pending <- true;
      pcb.t_state <- Fin_wait_1;
      pcb.on_state ();
      tcp_output t pcb
  | Close_wait ->
      pcb.snd_fin_pending <- true;
      pcb.t_state <- Last_ack;
      pcb.on_state ();
      tcp_output t pcb
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait -> ()

(* TCP_NOPUSH.  Clearing it offers the held tail to the short-segment
   test again. *)
let usr_set_nopush t pcb on =
  pcb.t_nopush <- on;
  if not on then tcp_output t pcb

(* TCP_NODELAY: a short segment that empties the buffer need not wait
   for the ACK of what is in flight. *)
let usr_set_nodelay pcb on = pcb.t_nodelay <- on

let set_buffer_sizes pcb ~snd ~rcv =
  pcb.snd_buf.Sockbuf.sb_hiwat <- snd;
  pcb.rcv_buf.Sockbuf.sb_hiwat <- rcv
