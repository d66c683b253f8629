(* ENCAPSULATED LEGACY CODE — uipc_socket.c: the blocking socket layer.
 *
 * sosend/soreceive/soconnect/soaccept over the TCP and UDP protocol
 * blocks.  Blocking (sbwait) and wakeup (sowakeup) go through the donor's
 * event-hash sleep/wakeup retained inside this component (Bsd_sleep,
 * Section 4.7.6); the only client-OS service underneath is the sleep
 * record.  Wait channels are the addresses of the socket buffers in the
 * donor; here, small unique integers per socket.
 *)

type stack = {
  machine : Machine.t;
  ifp : Netif.ifnet;
  arp : Arp_resolver.t;
  ip : Ip.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  sleepq : Bsd_sleep.t; (* the component's event hash *)
  mutable next_chan : int;
}

let create_stack machine ~hwaddr ~name =
  let ifp = Netif.create ~name ~hwaddr in
  (* A jumbo MSS only makes sense on a link framed for it: grow the MTU so
     TCP segments of [tcp_mss] never hit the IP fragmenter (default 1460
     leaves the classic Ethernet 1500). *)
  ifp.Netif.if_mtu <-
    max ifp.Netif.if_mtu (Cost.config.Cost.tcp_mss + Codec.ip_hlen + Codec.tcp_hlen);
  let arp = Arp.attach ifp machine in
  let ip = Ip.attach ifp arp machine in
  let icmp = Icmp.attach ip in
  let udp = Udp.attach ip in
  let tcp = Tcp.attach ip machine in
  { machine; ifp; arp; ip; icmp; udp; tcp; sleepq = Bsd_sleep.create (); next_chan = 0 }

let alloc_chan st =
  st.next_chan <- st.next_chan + 3;
  st.next_chan

let ifconfig stack ~addr ~mask = Netif.ifconfig stack.ifp ~addr ~mask

(* ---- TCP stream sockets ---- *)

(* A readiness listener: the socket-side half of oskit_asyncio.  [rl_fn]
   runs at wakeup level whenever a condition in [rl_mask] is true after a
   protocol event — spurious calls allowed, blocking not. *)
type ready_listener = { rl_id : int; rl_mask : int; rl_fn : int -> unit }

type tsock = {
  st : stack;
  pcb : Tcp.tcpcb;
  chan : int; (* rd = chan, wr = chan+1, cn = chan+2 *)
  mutable nonblock : bool;
  mutable listeners : ready_listener list;
  mutable next_lid : int;
}

(* The donor idiom: sbwait sleeps on the buffer's channel; sowakeup wakes
   every sleeper on it.  Wakeups on an empty channel are naturally lost
   here (as in BSD), so every sleep below sits in a re-checking loop. *)
let sbwait s which = Bsd_sleep.tsleep s.st.sleepq ~channel:(s.chan + which)
let sowakeup st chan which = Bsd_sleep.wakeup st.sleepq ~channel:(chan + which)

(* Current readiness, an [Io_if.aio_*] bitmask.  Mirrors what the blocking
   entry points below would do without sleeping: readable = soreceive or
   soaccept returns immediately, writable = sosend can take the send
   buffer's low-water mark (sowriteable), exception = a pending
   so_error. *)
let so_readiness s =
  let pcb = s.pcb in
  let rd =
    if pcb.Tcp.t_state = Tcp.Listen then Conn_table.acceptable s.st.tcp.Tcp.conns pcb
    else
      pcb.Tcp.rcv_buf.Sockbuf.sb_cc > 0 || pcb.Tcp.rcv_fin
      || pcb.Tcp.t_state = Tcp.Closed
  in
  let wr =
    match pcb.Tcp.t_state with
    | Tcp.Established | Tcp.Close_wait ->
        Sockbuf.space pcb.Tcp.snd_buf >= Sockbuf.lowat pcb.Tcp.snd_buf
    | Tcp.Closed -> true
    | _ -> false
  in
  let ex = pcb.Tcp.so_error <> None in
  (if rd then Io_if.aio_read else 0)
  lor (if wr then Io_if.aio_write else 0)
  lor if ex then Io_if.aio_exception else 0

let so_readable_bytes s = s.pcb.Tcp.rcv_buf.Sockbuf.sb_cc

(* No-op when nothing is registered, so the blocking-only paths that Table
   1/2 measures are untouched. *)
let notify_listeners s =
  match s.listeners with
  | [] -> ()
  | ls ->
      let ready = so_readiness s in
      List.iter (fun l -> if ready land l.rl_mask <> 0 then l.rl_fn ready) ls

let so_add_listener s ~mask f =
  let id = s.next_lid in
  s.next_lid <- id + 1;
  s.listeners <- s.listeners @ [ { rl_id = id; rl_mask = mask; rl_fn = f } ];
  id

let so_remove_listener s id =
  s.listeners <- List.filter (fun l -> l.rl_id <> id) s.listeners

let so_set_nonblock s v = s.nonblock <- v
let so_set_nopush s v = Tcp.usr_set_nopush s.st.tcp s.pcb v

let wrap_pcb st pcb =
  let s = { st; pcb; chan = alloc_chan st; nonblock = false; listeners = []; next_lid = 1 } in
  pcb.Tcp.on_readable <-
    (fun () ->
      sowakeup st s.chan 0;
      notify_listeners s);
  pcb.Tcp.on_writable <-
    (fun () ->
      sowakeup st s.chan 1;
      notify_listeners s);
  pcb.Tcp.on_state <-
    (fun () ->
      sowakeup st s.chan 2;
      sowakeup st s.chan 0;
      sowakeup st s.chan 1;
      notify_listeners s);
  s

let tcp_socket st = wrap_pcb st (Tcp.create_pcb st.tcp)

let so_bind s ~port = Tcp.usr_bind s.st.tcp s.pcb ~port
let so_listen s ~backlog = Tcp.usr_listen s.st.tcp s.pcb ~backlog

let so_accept s =
  if s.pcb.Tcp.t_state <> Tcp.Listen then Result.Error Error.Inval
  else begin
    let rec wait () =
      match Conn_table.accept s.st.tcp.Tcp.conns s.pcb with
      | Some conn -> Ok (wrap_pcb s.st conn)
      | None ->
          if s.pcb.Tcp.t_state <> Tcp.Listen then Result.Error Error.Badf
          else if s.nonblock then Result.Error Error.Wouldblock
          else begin
            sbwait s 0;
            wait ()
          end
    in
    wait ()
  end

let so_connect s ~dst ~dport =
  match Tcp.usr_connect s.st.tcp s.pcb ~dst ~dport with
  | Result.Error _ as e -> e
  | Ok () ->
      let rec wait () =
        match s.pcb.Tcp.t_state with
        | Tcp.Established -> Ok ()
        | Tcp.Syn_sent | Tcp.Syn_received ->
            sbwait s 2;
            wait ()
        | _ -> Result.Error (Option.value s.pcb.Tcp.so_error ~default:Error.Connrefused)
      in
      wait ()

(* sosend: block until all bytes are accepted into the send buffer. *)
let so_send s ~buf ~pos ~len =
  let rec push sent =
    if sent >= len then Ok len
    else
      match Tcp.usr_send s.st.tcp s.pcb ~src:buf ~src_pos:(pos + sent) ~len:(len - sent) with
      | Result.Error e -> if sent > 0 then Ok sent else Result.Error e
      | Ok 0 -> (
          match s.pcb.Tcp.t_state with
          | Tcp.Closed -> Result.Error (Option.value s.pcb.Tcp.so_error ~default:Error.Pipe)
          | _ when s.nonblock ->
              if sent > 0 then Ok sent else Result.Error Error.Wouldblock
          | _ ->
              sbwait s 1;
              push sent)
      | Ok n -> push (sent + n)
  in
  if Error.bad_range buf ~pos ~len then Result.Error Error.Inval else push 0

(* sosend for mapped file fragments (the sendfile path): loan the
   fragments into the send buffer with no copy, blocking until the bytes
   from [pos] onward are all accepted.  Nonblocking sockets get partial
   progress or Wouldblock, like so_send. *)
let so_sendv s ~frags ~pos =
  let total = List.fold_left (fun a f -> a + f.Io_if.fr_len) 0 frags in
  let len = max 0 (total - pos) in
  let rec push sent =
    if sent >= len then Ok len
    else
      match Tcp.usr_sendv s.st.tcp s.pcb ~frags ~pos:(pos + sent) with
      | Result.Error e -> if sent > 0 then Ok sent else Result.Error e
      | Ok 0 -> (
          match s.pcb.Tcp.t_state with
          | Tcp.Closed -> Result.Error (Option.value s.pcb.Tcp.so_error ~default:Error.Pipe)
          | _ when s.nonblock ->
              if sent > 0 then Ok sent else Result.Error Error.Wouldblock
          | _ ->
              sbwait s 1;
              push sent)
      | Ok n -> push (sent + n)
  in
  push 0

(* soreceive: block until at least one byte (or EOF). *)
let so_recv s ~buf ~pos ~len =
  let rec wait () =
    let n = Tcp.usr_recv s.st.tcp s.pcb ~dst:buf ~dst_pos:pos ~len in
    if n > 0 then Ok n
    else if s.pcb.Tcp.rcv_fin then Ok 0
    else
      match s.pcb.Tcp.t_state with
      | Tcp.Closed -> (
          match s.pcb.Tcp.so_error with Some e -> Result.Error e | None -> Ok 0)
      | _ when s.nonblock -> Result.Error Error.Wouldblock
      | _ ->
          sbwait s 0;
          wait ()
  in
  if Error.bad_range buf ~pos ~len then Result.Error Error.Inval
  else if len = 0 then Ok 0
  else wait ()

let so_close s =
  Tcp.usr_close s.st.tcp s.pcb;
  Ok ()

let so_shutdown s =
  Tcp.usr_close s.st.tcp s.pcb;
  Ok ()

let so_abort s =
  Tcp.usr_abort s.st.tcp s.pcb;
  Ok ()

let so_sockname s =
  Ok (s.st.ifp.Netif.if_addr, s.pcb.Tcp.lport)

(* ---- UDP datagram sockets ---- *)

type usock = { ust : stack; upcb : Udp.pcb; urd : Sleep_record.t }

let udp_socket st =
  let upcb = Udp.create_pcb st.udp in
  let s = { ust = st; upcb; urd = Sleep_record.create ~name:"udp_rcv" () } in
  upcb.Udp.on_readable <- (fun () -> Sleep_record.wakeup s.urd);
  s

let uso_bind s ~port = Udp.bind s.ust.udp s.upcb ~port

let uso_sendto s ~buf ~pos ~len ~dst ~dport =
  if Error.bad_range buf ~pos ~len then Result.Error Error.Inval
  else begin
    Cost.charge_cycles Cost.config.socket_op_cycles;
    match
      Error.to_result (fun () ->
          Udp.output s.ust.udp s.upcb ~dst ~dport ~src:buf ~src_pos:pos ~len)
    with
    | Ok () -> Ok len
    | Result.Error _ as e -> e
  end

let uso_recvfrom s =
  Cost.charge_cycles Cost.config.socket_op_cycles;
  let rec wait () =
    match Udp.recv s.upcb with
    | Some dgram -> dgram
    | None ->
        Sleep_record.sleep s.urd;
        wait ()
  in
  wait ()

let uso_close s =
  Udp.detach s.ust.udp s.upcb;
  Ok ()

(* ---- per-layer drop accounting, netstat -s style ---- *)

let netstat st =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let ifp = st.ifp and ip = st.ip and tcp = st.tcp.Tcp.stats and udp = st.udp
  and arp = st.arp in
  line "%s:" ifp.Netif.if_name;
  line "  %d packets received" ifp.Netif.if_ipackets;
  line "  %d packets sent" ifp.Netif.if_opackets;
  line "  %d input drops for want of memory" ifp.Netif.if_idrops;
  line "  %d output errors (refused by the driver)" ifp.Netif.if_oerrors;
  line "  %d output drops for want of memory (refused by the driver)" ifp.Netif.if_onomem;
  line "ip:";
  line "  %d packets received" ip.Ip.ipackets;
  line "  %d packets sent" ip.Ip.opackets;
  line "  %d bad header checksums" ip.Ip.badsum;
  line "  %d packets dropped (no route)" ip.Ip.noroute;
  line "  %d fragments dropped after timeout" ip.Ip.reass_expired;
  line "  %d packets dropped (arp resolution failed)" ip.Ip.arp_drops;
  line "tcp:";
  line "  %d packets sent" tcp.Tcp.sndpack;
  line "  %d data packets retransmitted" tcp.Tcp.sndrexmitpack;
  line "  %d packets received" tcp.Tcp.rcvpack;
  line "  %d discarded for bad checksums" tcp.Tcp.rcvbadsum;
  line "  %d discarded for bad header lengths" tcp.Tcp.rcvshort;
  line "  %d duplicate packets" tcp.Tcp.rcvdup;
  line "  %d out-of-order packets" tcp.Tcp.rcvoo;
  line "  %d packets with data after window" tcp.Tcp.rcvafterwin;
  line "  %d listen queue overflows" tcp.Tcp.listen_overflow;
  line "  %d ack predictions ok" tcp.Tcp.predack;
  line "  %d data predictions ok" tcp.Tcp.preddat;
  line "  %d prediction fallbacks" tcp.Tcp.predfallback;
  let sc = st.tcp.Tcp.syncache.Syncache.stats in
  line "  %d syncache entries added (%d evicted, %d completed)" sc.Syncache.added
    sc.Syncache.evicted sc.Syncache.completed;
  line "  %d SYN cookies validated, %d rejected" sc.Syncache.validated sc.Syncache.rejected;
  line "  %d TIME_WAIT connections reclaimed" tcp.Tcp.time_wait_reclaimed;
  line "  %d drops for want of memory" tcp.Tcp.nomem_drops;
  line "  %d RSTs rate limited" tcp.Tcp.rst_ratelimited;
  line "udp:";
  line "  %d with bad data length field" udp.Udp.badlen;
  line "  %d with bad checksum" udp.Udp.badsum;
  line "  %d dropped, no socket" udp.Udp.noport;
  line "  %d dropped, full socket buffer" udp.Udp.fulldrops;
  line "  %d port unreachables sent" udp.Udp.unreach_sent;
  line "  %d port unreachables rate limited" udp.Udp.icmp_ratelimited;
  line "  %d drops for want of memory" udp.Udp.nomem_drops;
  line "arp:";
  line "  %d requests sent" arp.Arp_resolver.requests;
  line "  %d replies sent" arp.Arp_resolver.replies;
  line "  %d waiters dropped (queue full)" arp.Arp_resolver.waiters_dropped;
  line "  %d resolutions abandoned (retries exhausted)" arp.Arp_resolver.abandoned;
  line "event:";
  line "  %d timer-wheel arms (%d cancels, %d fires)"
    Cost.counters.Cost.wheel_arms Cost.counters.Cost.wheel_cancels
    Cost.counters.Cost.wheel_fires;
  line "  %d kqueue events posted (%d coalesced)" Cost.counters.Cost.kq_posted
    Cost.counters.Cost.kq_coalesced;
  Buffer.contents b
