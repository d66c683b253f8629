(* The hashed connection lookup (lib/inet Demux), each stack's only one,
   against a reference model: a linear scan of the stack's full,
   newest-first pcb list.  Random sequences of bind,
   listen, connect, SYN arrival, close, TIME_WAIT entry, expiry and
   reclaim — including 4-tuple reuse while a TIME_WAIT connection is
   alive, and the tw_max cap retiring the oldest — are applied to BSD TCP,
   Linux TCP and BSD UDP.  After every step, every probe tuple must find
   the same pcb through the stack's lookup as through the scan.

   BSD TCP also gets RSTs and handshake-completing ACKs for its SYN_RCVD
   children, and after every step its O(1) indexes must equal what the
   full pcb list says: the listener index, each listener's backlog count,
   the port use table, and no pcb listed twice. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let local = ip "10.0.0.1"
let raddrs = [| ip "10.0.0.2"; ip "10.0.0.3" |]
let rports = [| 80; 81 |]
let syn_sports = [| 5000; 5001 |]
let lports = [| 80; 81; 1100; 1101 |]

let with_tw_max n f = Cost.with_config { Cost.config with Cost.tw_max = n } f

(* Every (src, sport, dport) the sequence could have touched, plus the
   lports actually in use (ephemeral ones included). *)
let probes used_lports =
  let dports = List.sort_uniq compare (0 :: Array.to_list lports @ used_lports) in
  let sports = Array.to_list rports @ Array.to_list syn_sports in
  List.concat_map
    (fun src -> List.concat_map (fun sport -> List.map (fun d -> (src, sport, d)) dports) sports)
    (Array.to_list raddrs)

let agree ~hashed ~linear used_lports =
  List.for_all
    (fun (src, sport, dport) ->
      match hashed ~src ~sport ~dport, linear ~src ~sport ~dport with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false)
    (probes used_lports)

(* The reference scans.  TCP: the newest connected pcb on the 4-tuple,
   else the newest listener on the port; the pcb lists are newest first. *)
let bsd_scan t ~src ~sport ~dport =
  let all = Tcp.pcb_list t in
  let on_tuple p =
    p.Tcp.lport = dport && p.Tcp.rport = sport && Int32.equal p.Tcp.raddr src
    && p.Tcp.t_state <> Tcp.Listen
  in
  match List.find_opt on_tuple all with
  | Some _ as connected -> connected
  | None -> List.find_opt (fun p -> p.Tcp.lport = dport && p.Tcp.t_state = Tcp.Listen) all

let linux_scan t ~src ~sport ~dport =
  let socks = t.Linux_inet.socks in
  let on_tuple s =
    s.Linux_inet.lport = dport && s.Linux_inet.rport = sport
    && Int32.equal s.Linux_inet.raddr src
    && s.Linux_inet.state <> Linux_inet.Listen
  in
  match List.find_opt on_tuple socks with
  | Some _ as connected -> connected
  | None ->
      List.find_opt
        (fun s -> s.Linux_inet.lport = dport && s.Linux_inet.state = Linux_inet.Listen)
        socks

(* UDP: the newest pcb bound to the port, wildcard or connected to the
   source; an unbound pcb takes nothing, not even port 0. *)
let udp_scan u ~src ~sport ~dport =
  List.find_opt
    (fun p ->
      p.Udp.lport = dport && dport <> 0
      && (p.Udp.rport = 0 || (p.Udp.rport = sport && Int32.equal p.Udp.raddr src)))
    u.Udp.pcbs

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

(* ------------------------------------------------------------------ *)

(* A stack's port use table equals the multiset of its pcbs' [lports]
   (port 0, unbound, uncounted). *)
let ports_agree ports lports =
  let reference = Port_alloc.create ~lo:0 ~hi:0 in
  List.iter (Port_alloc.use reference) lports;
  let sorted a = List.sort compare (Hashtbl.fold (fun p n l -> (p, n) :: l) a.Port_alloc.uses []) in
  sorted ports = sorted reference

(* BSD TCP's indexes against a reference recomputed from the pcb list. *)
let bsd_indexes_agree t =
  let all = Tcp.pcb_list t in
  let is_child l p =
    p.Tcp.t_state = Tcp.Syn_received
    && match p.Tcp.listen_parent with Some x -> x == l | None -> false
  in
  let listeners = List.filter (fun p -> p.Tcp.t_state = Tcp.Listen) all in
  List.length t.Tcp.listeners = List.length listeners
  && List.for_all2 ( == ) t.Tcp.listeners listeners
  && List.for_all
       (fun l ->
         Tcp.listen_q_len l
         = Queue.length l.Tcp.accept_q + List.length (List.filter (is_child l) all))
       listeners
  && ports_agree t.Tcp.ports (List.map (fun p -> p.Tcp.lport) all)
  && List.for_all (fun p -> List.length (List.filter (( == ) p) all) = 1) all

(* A segment from [p]'s peer, in [p]'s receive window. *)
let to_child t p ~flags =
  Tcp.input t ~src:p.Tcp.raddr ~dst:local
    (bsd_segment
       (tcp_header ~src:p.Tcp.raddr ~sport:p.Tcp.rport ~dport:p.Tcp.lport ~seq:p.Tcp.rcv_nxt
          ~ack:p.Tcp.snd_nxt ~flags ()))

let bsd_tcp (tw_max, ops) =
  with_tw_max tw_max (fun () ->
      let tb = Clientos.make_testbed () in
      let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
      let t = st.Bsd_socket.tcp in
      let live = ref [] and fresh = ref [] in
      let step (kind, a, b, c) =
        (match kind with
        | 0 ->
            let pcb = take_fresh fresh (fun () -> Tcp.create_pcb t) in
            if a >= 2 then ignore (Tcp.usr_bind t pcb ~port:lports.(a));
            ignore (Tcp.usr_connect t pcb ~dst:raddrs.(b) ~dport:rports.(c));
            live := pcb :: !live
        | 1 ->
            let pcb = Tcp.create_pcb t in
            if Result.is_ok (Tcp.usr_bind t pcb ~port:lports.(a land 1)) then begin
              ignore (Tcp.usr_listen t pcb ~backlog:4);
              live := pcb :: !live
            end
        | 2 ->
            let src = raddrs.(b) in
            Tcp.input t ~src ~dst:local
              (bsd_segment (tcp_header ~src ~sport:syn_sports.(c) ~dport:lports.(a land 1)
                              ~flags:Tcp.th_syn ()));
            live := List.filter (fun p -> not (List.memq p !live)) (Tcp.pcb_list t) @ !live
        | 3 ->
            Option.iter
              (fun p -> if b = 0 then Tcp.usr_abort t p else Tcp.usr_close t p)
              (nth_live !live a)
        | 4 ->
            Option.iter
              (fun p ->
                match p.Tcp.t_state with
                | Tcp.Listen | Tcp.Closed | Tcp.Time_wait -> ()
                | _ -> Tcp.enter_time_wait t p)
              (nth_live !live a)
        | 5 ->
            (* the 2xMSL expiry *)
            Option.iter
              (fun p ->
                if p.Tcp.t_state = Tcp.Time_wait then begin
                  p.Tcp.t_state <- Tcp.Closed;
                  Tcp.detach t p
                end)
              (nth_live !live a)
        | 6 -> Tcp.tcp_reclaim t
        | 7 -> fresh := Tcp.create_pcb t :: !fresh
        | kind ->
            (* An RST, or the ACK that completes the handshake, to a
               SYN_RCVD child. *)
            let children =
              List.filter (fun p -> p.Tcp.t_state = Tcp.Syn_received) (Tcp.pcb_list t)
            in
            Option.iter
              (to_child t ~flags:(if kind = 8 then Tcp.th_rst else Tcp.th_ack))
              (nth_live children a));
        agree ~hashed:(Tcp.find_pcb t) ~linear:(bsd_scan t)
          (List.map (fun p -> p.Tcp.lport) (Tcp.pcb_list t))
        && bsd_indexes_agree t
      in
      List.for_all step ops)

let linux_tcp (tw_max, ops) =
  with_tw_max tw_max (fun () ->
      let tb = Clientos.make_testbed () in
      let t = Clientos.linux_host tb.Clientos.host_a ~ip:local ~mask in
      let live = ref [] and fresh = ref [] in
      let step (kind, a, b, c) =
        (match kind with
        | 0 ->
            let s = take_fresh fresh (fun () -> Linux_inet.socket t) in
            if a >= 2 then Linux_inet.bind t s ~port:lports.(a);
            Linux_inet.connect_start t s ~dst:raddrs.(b) ~dport:rports.(c);
            live := s :: !live
        | 1 ->
            let port = lports.(a land 1) in
            if
              not
                (List.exists
                   (fun s -> s.Linux_inet.lport = port && s.Linux_inet.state = Linux_inet.Listen)
                   t.Linux_inet.socks)
            then begin
              let s = Linux_inet.socket t in
              Linux_inet.bind t s ~port;
              Linux_inet.listen t s ~backlog:4;
              live := s :: !live
            end
        | 2 ->
            let src = raddrs.(b) in
            Linux_inet.tcp_rcv t ~src
              (Skbuff.skb_wrap
                 (tcp_header ~src ~sport:syn_sports.(c) ~dport:lports.(a land 1)
                    ~flags:Linux_inet.th_syn ()));
            live := List.filter (fun s -> not (List.memq s !live)) t.Linux_inet.socks @ !live
        | 3 ->
            Option.iter
              (fun s -> if b = 0 then Linux_inet.abort_orphan t s else Linux_inet.close t s)
              (nth_live !live a)
        | 4 ->
            Option.iter
              (fun s ->
                match s.Linux_inet.state with
                | Linux_inet.Listen | Linux_inet.Closed | Linux_inet.Time_wait -> ()
                | _ -> Linux_inet.lx_enter_time_wait t s)
              (nth_live !live a)
        | 5 ->
            Option.iter
              (fun s ->
                if s.Linux_inet.state = Linux_inet.Time_wait then begin
                  s.Linux_inet.state <- Linux_inet.Closed;
                  Linux_inet.detach t s
                end)
              (nth_live !live a)
        | 6 -> Linux_inet.lx_reclaim t
        | _ -> fresh := Linux_inet.socket t :: !fresh);
        let lports = List.map (fun s -> s.Linux_inet.lport) t.Linux_inet.socks in
        agree ~hashed:(Linux_inet.find_sock t) ~linear:(linux_scan t) lports
        && ports_agree t.Linux_inet.ports lports
      in
      List.for_all step ops)

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
    agree ~hashed:(Udp.find_pcb u) ~linear:(udp_scan u) lports
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
          | Some p -> p == pcb
          | None -> false))
      [ "hashed", Tcp.find_pcb t; "scan", bsd_scan t ]
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
        | Some s -> s == older
        | None -> false))
    [ "hashed", Linux_inet.find_sock t; "scan", linux_scan t ]

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

(* Closing a listener resets its SYN_RCVD children newest first — the
   order the walk of the newest-first pcb list met them — and leaves its
   SYN_RCVD queue empty. *)
let test_listener_close_order () =
  let tb = Clientos.make_testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let t = st.Bsd_socket.tcp in
  let peer = raddrs.(0) in
  Hashtbl.replace st.Bsd_socket.arp.Arp_resolver.table peer
    (Arp_resolver.Resolved "\x02\x00\x00\x00\x00\x99");
  let rsts = ref [] in
  ignore
    (Wire.attach tb.Clientos.wire ~rx:(fun f ->
         match Test_tcp_behavior.tcp_of_frame f with
         | Some (h, _) when h.Codec.flags land Tcp.th_rst <> 0 -> rsts := h.Codec.dport :: !rsts
         | _ -> ()));
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
    (List.map (fun p -> p.Tcp.rport) ls.Tcp.syn_q);
  Tcp.usr_close t ls;
  Clientos.run tb ~until:(fun () -> List.length !rsts = List.length sports);
  Alcotest.(check (list int)) "RSTs leave newest first" (List.rev sports) (List.rev !rsts);
  Alcotest.(check int) "SYN_RCVD queue empty" 0 (List.length ls.Tcp.syn_q);
  Alcotest.(check int) "no pcb left" 0 (List.length (Tcp.pcb_list t))

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
      test_listener_close_order ]
