(* The connection table (lib/inet Conn_table), the one both TCP stacks
   keep their connections in, and the BSD UDP's hashed lookup (Demux),
   against reference models recomputed from the full, newest-first list
   of registered connections.  Random sequences of bind, listen, connect,
   SYN arrival, RSTs and handshake-completing ACKs to SYN_RCVD children,
   close, TIME_WAIT entry, expiry and reclaim — including 4-tuple reuse
   while a TIME_WAIT record is alive, and the tw_max cap retiring the
   oldest — are applied to BSD TCP, Linux TCP and BSD UDP.

   After every step one checker, the same for both TCP stacks, holds the
   table to a linear scan of that list and of the TIME_WAIT records, in
   registration order: every probe tuple finds the same connection or
   record; the listener index lists the listeners newest first; each
   listener's embryonic children are its SYN_RCVD children, newest first,
   and with its accept queue stay within its backlog; the port use table
   counts the connections' and records' local ports; nothing is listed
   twice.
   A step that closes a listener must abort exactly its parked children,
   oldest first, then its embryonic ones, newest first. *)

let ip, mask = Endpoint.(ip, mask)
let local = ip "10.0.0.1"
let raddrs = [| ip "10.0.0.2"; ip "10.0.0.3" |]
let rports = [| 80; 81 |]
let syn_sports = [| 5000; 5001 |]
let lports = [| 80; 81; 1100; 1101 |]

(* Small enough that the SYN steps overflow it. *)
let backlog = 2

let with_tw_max n f = Cost.with_config { Cost.config with Cost.tw_max = n } f

(* Every (src, sport, dport) the sequence could have touched, plus the
   lports actually in use (ephemeral ones included). *)
let probes used_lports =
  let dports = List.sort_uniq compare (0 :: Array.to_list lports @ used_lports) in
  let sports = Array.to_list rports @ Array.to_list syn_sports in
  List.concat_map
    (fun src -> List.concat_map (fun sport -> List.map (fun d -> (src, sport, d)) dports) sports)
    (Array.to_list raddrs)

let agree ~same ~hashed ~linear used_lports =
  List.for_all
    (fun (src, sport, dport) ->
      match hashed ~src ~sport ~dport, linear ~src ~sport ~dport with
      | None, None -> true
      | Some a, Some b -> same a b
      | _ -> false)
    (probes used_lports)

let same_conn a b =
  match a, b with
  | Conn_table.Live x, Conn_table.Live y -> x == y
  | Conn_table.Tw x, Conn_table.Tw y -> x == y
  | _ -> false

(* What the checker needs to know of a stack's connection record. *)
type 'a view = {
  tbl : 'a Conn_table.t;
  lport : 'a -> int;
  rport : 'a -> int;
  raddr : 'a -> int32;
  listening : 'a -> bool;
  syn_rcvd : 'a -> bool;
  closed : 'a -> bool;
}

let bsd_view t =
  { tbl = t.Tcp.conns; lport = (fun p -> p.Tcp.lport); rport = (fun p -> p.Tcp.rport);
    raddr = (fun p -> p.Tcp.raddr); listening = (fun p -> p.Tcp.t_state = Tcp.Listen);
    syn_rcvd = (fun p -> p.Tcp.t_state = Tcp.Syn_received);
    closed = (fun p -> p.Tcp.t_state = Tcp.Closed) }

let linux_view t =
  { tbl = t.Linux_inet.conns; lport = (fun s -> s.Linux_inet.lport);
    rport = (fun s -> s.Linux_inet.rport); raddr = (fun s -> s.Linux_inet.raddr);
    listening = (fun s -> s.Linux_inet.state = Linux_inet.Listen);
    syn_rcvd = (fun s -> s.Linux_inet.state = Linux_inet.Syn_recv);
    closed = (fun s -> s.Linux_inet.state = Linux_inet.Closed) }

let find v ~src ~sport ~dport = Conn_table.find v.tbl ~raddr:src ~rport:sport ~lport:dport

(* Everything the table files, newest registration first: its
   connections, and the TIME_WAIT records that took some of their
   places. *)
let bindings v =
  let serial = function
    | Conn_table.Live p -> (v.tbl.Conn_table.entry p).Conn_table.serial
    | Conn_table.Tw r -> r.Tw_queue.tw_serial
  in
  List.sort
    (fun a b -> compare (serial b) (serial a))
    (List.map (fun p -> Conn_table.Live p) (Conn_table.to_list v.tbl)
    @ List.map (fun r -> Conn_table.Tw r) (Tw_queue.to_list v.tbl.Conn_table.tw))

let lport_of v = function Conn_table.Live p -> v.lport p | Conn_table.Tw r -> r.Tw_queue.tw_lport

(* The reference scan: the newest connection or record on the 4-tuple,
   else the newest listener on the port. *)
let scan v ~src ~sport ~dport =
  let all = bindings v in
  let on_tuple = function
    | Conn_table.Live p ->
        v.lport p = dport && v.rport p = sport && Int32.equal (v.raddr p) src
        && not (v.listening p)
    | Conn_table.Tw r ->
        r.Tw_queue.tw_lport = dport && r.Tw_queue.tw_rport = sport
        && Int32.equal r.Tw_queue.tw_raddr src
  in
  let listening_on = function
    | Conn_table.Live p -> v.lport p = dport && v.listening p
    | Conn_table.Tw _ -> false
  in
  match List.find_opt on_tuple all with
  | Some _ as connected -> connected
  | None -> List.find_opt listening_on all

(* UDP: the newest pcb bound to the port, wildcard or connected to the
   source; an unbound pcb takes nothing, not even port 0. *)
let udp_scan u ~src ~sport ~dport =
  List.find_opt
    (fun p ->
      p.Udp.lport = dport && dport <> 0
      && (p.Udp.rport = 0 || (p.Udp.rport = sport && Int32.equal p.Udp.raddr src)))
    u.Udp.pcbs

let backlog_of v l =
  match (v.tbl.Conn_table.entry l).Conn_table.listen with
  | Some b -> b
  | None -> Alcotest.fail "a listener without a backlog"

(* [l]'s SYN_RCVD children, found by walking the whole list. *)
let embryonic v l =
  List.filter
    (fun p ->
      v.syn_rcvd p
      && match (v.tbl.Conn_table.entry p).Conn_table.parent with Some x -> x == l | None -> false)
    (Conn_table.to_list v.tbl)

(* A stack's port use table equals the multiset of its pcbs' [lports]
   (port 0, unbound, uncounted). *)
let ports_agree ports lports =
  let reference = Port_alloc.create ~lo:0 ~hi:0 in
  List.iter (Port_alloc.use reference) lports;
  let sorted a = List.sort compare (Hashtbl.fold (fun p n l -> (p, n) :: l) a.Port_alloc.uses []) in
  sorted ports = sorted reference

let same a b = List.equal ( == ) a b

let table_agrees v =
  let all = Conn_table.to_list v.tbl and filed = bindings v in
  let listeners = List.filter v.listening all in
  let index = v.tbl.Conn_table.by_port in
  agree ~same:same_conn ~hashed:(find v) ~linear:(scan v) (List.map (lport_of v) filed)
  (* the listener index: each port's listeners, newest first *)
  && Hashtbl.fold (fun _ ls n -> n + List.length ls) index 0 = List.length listeners
  && List.for_all
       (fun l ->
         same
           (Option.value (Hashtbl.find_opt index (v.lport l)) ~default:[])
           (List.filter (fun x -> v.lport x = v.lport l) listeners))
       listeners
  && List.for_all
       (fun l ->
         let b = backlog_of v l and kids = embryonic v l in
         same (Conn_table.embryos v.tbl l) kids
         && Queue.length b.Conn_table.queue + List.length kids <= b.Conn_table.backlog)
       listeners
  && ports_agree v.tbl.Conn_table.ports (List.map (lport_of v) filed)
  && List.for_all (fun p -> List.length (List.filter (same_conn p) filed) = 1) filed

(* Close listener [l] with [close], recording each connection the stack
   aborts through [watch c on_abort] (which returns how to stop
   watching).  It must abort the children parked on [l]'s accept queue,
   oldest first, then its embryonic children, newest first, and nothing
   else. *)
let closes_its_children v ~watch ~close l =
  let b = backlog_of v l in
  let expected =
    List.filter (fun c -> not (v.closed c)) (List.of_seq (Queue.to_seq b.Conn_table.queue))
    @ embryonic v l
  in
  let aborted = ref [] in
  let unwatch =
    List.map
      (fun c ->
        watch c (fun () ->
            if v.closed c && not (List.memq c !aborted) then aborted := c :: !aborted))
      (List.filter (( != ) l) (Conn_table.to_list v.tbl)
      @ List.of_seq (Queue.to_seq b.Conn_table.queue))
  in
  close l;
  List.iter (fun f -> f ()) (List.rev unwatch);
  same (List.rev !aborted) expected

let bsd_watch p f =
  let before = p.Tcp.on_state in
  p.Tcp.on_state <- f;
  fun () -> p.Tcp.on_state <- before

let linux_watch s f =
  let l = Io_if.listener_create f in
  Io_if.Listeners.add s.Linux_inet.listeners l Io_if.aio_exception;
  fun () -> ignore (Io_if.Listeners.remove s.Linux_inet.listeners l)

(* One step: (kind, a, b, c) with kind 0..9, a 0..3, b and c 0..1. *)
let gen_ops =
  QCheck.(
    pair (int_bound 2)
      (list_of_size Gen.(1 -- 30) (quad (int_bound 9) (int_bound 3) (int_bound 1) (int_bound 1))))

(* Sockets made by an earlier step are connected newest first, so
   creation order and connect order differ. *)
let take_fresh fresh make =
  match !fresh with
  | s :: rest ->
      fresh := rest;
      s
  | [] -> make ()

let nth_live live a = match live with [] -> None | l -> Some (List.nth l (a mod List.length l))

(* An option-less TCP segment header with a valid checksum. *)
let tcp_header ?(dst = local) ?(seq = 7) ?(ack = 0) ~src ~sport ~dport ~flags () =
  let d = Bytes.make 20 '\000' in
  Codec.write_tcp d ~off:0 ~sport ~dport ~seq ~ack ~flags ~win:8192 ~mss:None ~wscale:None;
  Codec.set_tcp_cksum d ~off:0 ~zero_as_ones:false
    (Codec.cksum_bytes d ~off:0 ~len:20 ~init:(Codec.pseudo_header ~src ~dst ~proto:6 ~len:20));
  d

let bsd_segment hdr =
  let m = Mbuf.m_gethdr () in
  Mbuf.m_append m ~src:hdr ~src_pos:0 ~len:(Bytes.length hdr);
  m

(* The steps both stacks share.  [listen] returns the new listener, if
   the port was free; [to_child] sends an RST or an ACK from a child's
   peer, in the child's window. *)
let tcp_steps v ~listen ~connect ~syn ~to_child ~close ~abort ~watch ~time_wait ~expire
    ~reclaim ~fresh:make ops =
  let live = ref [] and fresh = ref [] in
  let step (kind, a, b, c) =
    let closes_in_order =
      match kind with
      | 0 ->
          let x = take_fresh fresh make in
          connect x ~port:(if a >= 2 then Some lports.(a) else None) ~dst:raddrs.(b)
            ~dport:rports.(c);
          live := x :: !live;
          true
      | 1 ->
          Option.iter (fun x -> live := x :: !live) (listen ~port:lports.(a land 1));
          true
      | 2 ->
          (* one SYN, or a SYN from each peer address *)
          Array.iteri
            (fun i src -> if i <= b then syn ~src ~sport:syn_sports.(c) ~dport:lports.(a land 1))
            raddrs;
          live := List.filter (fun p -> not (List.memq p !live)) (Conn_table.to_list v.tbl) @ !live;
          true
      | 3 -> (
          (* half the closes pick a listener, if there is one *)
          let listeners = List.filter v.listening (Conn_table.to_list v.tbl) in
          match nth_live (if b = 1 && c = 1 then listeners else !live) a with
          | Some x when b = 1 && v.listening x -> closes_its_children v ~watch ~close x
          | Some x ->
              if b = 0 then abort x else close x;
              true
          | None -> true)
      | 4 ->
          Option.iter time_wait (nth_live !live a);
          true
      | 5 ->
          Option.iter expire (nth_live (Tw_queue.to_list v.tbl.Conn_table.tw) a);
          true
      | 6 ->
          reclaim ();
          true
      | 7 ->
          fresh := make () :: !fresh;
          true
      | _ ->
          (* An RST, or the ACK that completes the handshake, to a
             SYN_RCVD child. *)
          let children = List.filter v.syn_rcvd (Conn_table.to_list v.tbl) in
          Option.iter (to_child ~rst:(kind = 8)) (nth_live children a);
          true
    in
    closes_in_order && table_agrees v
  in
  List.for_all step ops

let bsd_tcp (tw_max, ops) =
  with_tw_max tw_max @@ fun () ->
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let t = st.Bsd_socket.tcp in
  let input hdr ~src = Tcp.input t ~src ~dst:local (bsd_segment hdr) in
  tcp_steps (bsd_view t) ~fresh:(fun () -> Tcp.create_pcb t)
    ~connect:(fun pcb ~port ~dst ~dport ->
      Option.iter (fun port -> ignore (Tcp.usr_bind t pcb ~port)) port;
      ignore (Tcp.usr_connect t pcb ~dst ~dport))
    ~listen:(fun ~port ->
      let pcb = Tcp.create_pcb t in
      if Result.is_ok (Tcp.usr_bind t pcb ~port) then begin
        ignore (Tcp.usr_listen t pcb ~backlog);
        Some pcb
      end
      else None)
    ~syn:(fun ~src ~sport ~dport ->
      input ~src (tcp_header ~src ~sport ~dport ~flags:Tcp.th_syn ()))
    ~to_child:(fun ~rst p ->
      let src = p.Tcp.raddr in
      input ~src
        (tcp_header ~src ~sport:p.Tcp.rport ~dport:p.Tcp.lport ~seq:p.Tcp.rcv_nxt
           ~ack:p.Tcp.snd_nxt ~flags:(if rst then Tcp.th_rst else Tcp.th_ack) ()))
    ~close:(Tcp.usr_close t) ~abort:(Tcp.usr_abort t) ~watch:bsd_watch
    ~time_wait:(fun p ->
      match p.Tcp.t_state with
      | Tcp.Listen | Tcp.Closed | Tcp.Time_wait -> ()
      | _ -> Tcp.enter_time_wait t p)
    ~expire:(Conn_table.release t.Tcp.conns) (* the 2xMSL expiry *)
    ~reclaim:(fun () -> Tcp.tcp_reclaim t)
    ops

let linux_tcp (tw_max, ops) =
  with_tw_max tw_max @@ fun () ->
  let tb = Clientos.make_testbed () in
  let t = Clientos.linux_host tb.Clientos.host_a ~ip:local ~mask in
  let input hdr ~src = Linux_inet.tcp_rcv t ~src (Skbuff.skb_wrap hdr) in
  tcp_steps (linux_view t) ~fresh:(fun () -> Linux_inet.socket t)
    ~connect:(fun s ~port ~dst ~dport ->
      Option.iter (fun port -> Linux_inet.bind t s ~port) port;
      Linux_inet.connect_start t s ~dst ~dport)
    ~listen:(fun ~port ->
      (* Linux binds without checking the port: one listener per port. *)
      if Option.is_some (Conn_table.listener t.Linux_inet.conns ~lport:port) then None
      else begin
        let s = Linux_inet.socket t in
        Linux_inet.bind t s ~port;
        Linux_inet.listen t s ~backlog;
        Some s
      end)
    ~syn:(fun ~src ~sport ~dport ->
      input ~src (tcp_header ~src ~sport ~dport ~flags:Linux_inet.th_syn ()))
    ~to_child:(fun ~rst s ->
      let src = s.Linux_inet.raddr in
      input ~src
        (tcp_header ~src ~sport:s.Linux_inet.rport ~dport:s.Linux_inet.lport
           ~seq:s.Linux_inet.rcv_nxt ~ack:s.Linux_inet.snd_nxt
           ~flags:(if rst then Linux_inet.th_rst else Linux_inet.th_ack) ()))
    ~close:(Linux_inet.close t) ~abort:(Linux_inet.abort_orphan t) ~watch:linux_watch
    ~time_wait:(fun s ->
      match s.Linux_inet.state with
      | Linux_inet.Listen | Linux_inet.Closed | Linux_inet.Time_wait -> ()
      | _ -> Linux_inet.lx_enter_time_wait t s)
    ~expire:(Conn_table.release t.Linux_inet.conns)
    ~reclaim:(fun () -> Linux_inet.lx_reclaim t)
    ops

(* UDP has no TIME_WAIT: kinds map to bind, connected bind (the exact
   4-tuple key), implicit bind by sending, and detach. *)
let bsd_udp (_, ops) =
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let u = st.Bsd_socket.udp in
  let live = ref [] in
  let step (kind, a, b, c) =
    (match kind mod 4 with
    | 0 | 1 ->
        let p = Udp.create_pcb u in
        if kind = 1 then begin
          p.Udp.raddr <- raddrs.(b);
          p.Udp.rport <- rports.(c)
        end;
        ignore (Udp.bind u p ~port:lports.(a));
        live := p :: !live
    | 2 ->
        let p = Udp.create_pcb u in
        Udp.output u p ~dst:raddrs.(b) ~dport:rports.(c) ~src:(Bytes.make 1 'x') ~src_pos:0 ~len:1;
        live := p :: !live
    | _ -> Option.iter (Udp.detach u) (nth_live !live a));
    let lports = List.map (fun p -> p.Udp.lport) u.Udp.pcbs in
    agree ~same:( == ) ~hashed:(Udp.find_pcb u) ~linear:(udp_scan u) lports
    && ports_agree u.Udp.ports lports
  in
  List.for_all step ops

(* Pinned from the property: a second connection on a live 4-tuple (the
   scan finds the newest) must not be shadowed by the cached older one,
   and closing the newer must uncover the older again. *)
let test_tuple_reuse () =
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let t = st.Bsd_socket.tcp in
  let connect () =
    let pcb = Tcp.create_pcb t in
    ignore (Tcp.usr_bind t pcb ~port:1100);
    ignore (Tcp.usr_connect t pcb ~dst:raddrs.(0) ~dport:80);
    pcb
  in
  let check name pcb =
    List.iter
      (fun (how, find) ->
        Alcotest.(check bool) (Printf.sprintf "%s (%s)" name how) true
          (match find ~src:raddrs.(0) ~sport:80 ~dport:1100 with
          | Some (Conn_table.Live p) -> p == pcb
          | Some (Conn_table.Tw _) | None -> false))
      [ "hashed", find (bsd_view t); "scan", scan (bsd_view t) ]
  in
  let older = connect () in
  check "one connection" older;
  let newer = connect () in
  check "the newest answers" newer;
  Tcp.usr_abort t newer;
  check "the older is uncovered" older

(* Pinned from the property: a Linux socket made before another but
   connected after it, on the other's 4-tuple while that one sits in
   TIME_WAIT, is the one both lookups find. *)
let test_linux_connect_order () =
  let tb = Clientos.make_testbed () in
  let t = Clientos.linux_host tb.Clientos.host_a ~ip:local ~mask in
  let older = Linux_inet.socket t in
  let newer = Linux_inet.socket t in
  let connect s =
    Linux_inet.bind t s ~port:1100;
    Linux_inet.connect_start t s ~dst:raddrs.(0) ~dport:80
  in
  connect newer;
  Linux_inet.lx_enter_time_wait t newer;
  connect older;
  List.iter
    (fun (how, find) ->
      Alcotest.(check bool) (Printf.sprintf "the later connect answers (%s)" how) true
        (match find ~src:raddrs.(0) ~sport:80 ~dport:1100 with
        | Some (Conn_table.Live s) -> s == older
        | Some (Conn_table.Tw _) | None -> false))
    [ "hashed", find (linux_view t); "scan", scan (linux_view t) ]

(* Pinned from the property: an unbound UDP pcb (lport 0) takes nothing,
   not even a datagram to port 0. *)
let test_udp_unbound () =
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let u = st.Bsd_socket.udp in
  ignore (Udp.create_pcb u);
  List.iter
    (fun find ->
      Alcotest.(check bool) "port 0 finds no pcb" true
        (find ~src:raddrs.(0) ~sport:53 ~dport:0 = None))
    [ Udp.find_pcb u; udp_scan u ]

(* The destination ports of the RSTs [tb]'s wire carries, latest first. *)
let tap_rsts tb =
  let rsts = ref [] in
  ignore
    (Wire.attach tb.Clientos.wire ~rx:(fun f ->
         match Test_tcp_behavior.tcp_of_frame f with
         | Some (h, _) when h.Codec.flags land Tcp.th_rst <> 0 -> rsts := h.Codec.dport :: !rsts
         | _ -> ()));
  rsts

let resolved = Arp_resolver.Resolved "\x02\x00\x00\x00\x00\x99"

(* Closing a listener resets its SYN_RCVD children newest first — the
   order the walk of the newest-first pcb list met them — and leaves no
   embryonic child behind. *)
let test_listener_close_order () =
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let t = st.Bsd_socket.tcp in
  let peer = raddrs.(0) in
  Hashtbl.replace st.Bsd_socket.arp.Arp_resolver.table peer resolved;
  let rsts = tap_rsts tb in
  let ls = Tcp.create_pcb t in
  Alcotest.(check bool) "bind" true (Result.is_ok (Tcp.usr_bind t ls ~port:80));
  Alcotest.(check bool) "listen" true (Result.is_ok (Tcp.usr_listen t ls ~backlog:8));
  let sports = [ 5000; 5001; 5002; 5003 ] in
  List.iter
    (fun sport ->
      Tcp.input t ~src:peer ~dst:local
        (bsd_segment (tcp_header ~src:peer ~sport ~dport:80 ~flags:Tcp.th_syn ())))
    sports;
  Alcotest.(check (list int)) "children queued newest first" (List.rev sports)
    (List.map (fun p -> p.Tcp.rport) (Conn_table.embryos t.Tcp.conns ls));
  Tcp.usr_close t ls;
  Clientos.run tb ~until:(fun () -> List.length !rsts = List.length sports);
  Alcotest.(check (list int)) "RSTs leave newest first" (List.rev sports) (List.rev !rsts);
  Alcotest.(check int) "no pcb left" 0 (List.length (Tcp.pcb_list t))

(* The Linux listen backlog counts embryonic children: a backlog-4
   listener given 6 SYNs that never complete holds 4 children and drops 2
   SYNs as listen overflows, and closing it resets the 4, newest first. *)
let test_linux_backlog () =
  let tb = Clientos.make_testbed () in
  let t = Clientos.linux_host tb.Clientos.host_a ~ip:local ~mask in
  let peer = raddrs.(0) in
  Hashtbl.replace t.Linux_inet.arp.Arp_resolver.table peer resolved;
  let rsts = tap_rsts tb in
  let ls = Linux_inet.socket t in
  Linux_inet.bind t ls ~port:80;
  Linux_inet.listen t ls ~backlog:4;
  let sports = [ 5000; 5001; 5002; 5003; 5004; 5005 ] in
  List.iter
    (fun sport ->
      Linux_inet.tcp_rcv t ~src:peer
        (Skbuff.skb_wrap (tcp_header ~src:peer ~sport ~dport:80 ~flags:Linux_inet.th_syn ())))
    sports;
  let children = List.filter (( != ) ls) (Conn_table.to_list t.Linux_inet.conns) in
  Alcotest.(check (list int)) "4 children, newest first" [ 5003; 5002; 5001; 5000 ]
    (List.map (fun s -> s.Linux_inet.rport) children);
  Alcotest.(check int) "2 SYNs overflow the backlog" 2 t.Linux_inet.listen_overflow;
  Linux_inet.close t ls;
  Clientos.run tb ~until:(fun () -> List.length !rsts = 4);
  Alcotest.(check (list int)) "RSTs leave newest first" [ 5003; 5002; 5001; 5000 ]
    (List.rev !rsts);
  Alcotest.(check int) "no sock left" 0 (List.length (Conn_table.to_list t.Linux_inet.conns))

let prop name f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name gen_ops f)

let suite =
  [ prop "demux: hashed = linear scan (bsd tcp)" bsd_tcp;
    prop "demux: hashed = linear scan (linux tcp)" linux_tcp;
    prop "demux: hashed = linear scan (bsd udp)" bsd_udp;
    Alcotest.test_case "demux: 4-tuple reuse, newest answers, older uncovered" `Quick
      test_tuple_reuse;
    Alcotest.test_case "demux: linux, the later connect on a live 4-tuple answers" `Quick
      test_linux_connect_order;
    Alcotest.test_case "demux: an unbound udp pcb takes nothing" `Quick test_udp_unbound;
    Alcotest.test_case "pcb index: listener close resets SYN_RCVD children newest first" `Quick
      test_listener_close_order;
    Alcotest.test_case "linux backlog: 4 of 6 SYNs held, 2 overflow, RSTs newest first" `Quick
      test_linux_backlog ]
