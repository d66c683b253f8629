(* The hashed connection lookup (lib/inet Demux, Cost.config.pcb_hash)
   against each stack's linear scan.  Random sequences of bind, listen,
   connect, SYN arrival, close, TIME_WAIT entry, expiry and reclaim —
   including 4-tuple reuse while a TIME_WAIT connection is alive, and the
   tw_max cap retiring the oldest — are applied to BSD TCP, Linux TCP and
   BSD UDP.  After every step, every probe tuple must find the same pcb
   with the knob on as with it off.  The knob changes no charged cycle and
   no wire byte; this property is what lets the linear scans go. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let local = ip "10.0.0.1"
let raddrs = [| ip "10.0.0.2"; ip "10.0.0.3" |]
let rports = [| 80; 81 |]
let syn_sports = [| 5000; 5001 |]
let lports = [| 80; 81; 1100; 1101 |]

let with_pcb_hash on f =
  let c = Cost.config in
  let saved = c.Cost.pcb_hash in
  c.Cost.pcb_hash <- on;
  Fun.protect ~finally:(fun () -> c.Cost.pcb_hash <- saved) f

let with_tw_max n f =
  let c = Cost.config in
  let saved = c.Cost.tw_max in
  c.Cost.tw_max <- n;
  Fun.protect ~finally:(fun () -> c.Cost.tw_max <- saved) f

(* Every (src, sport, dport) the sequence could have touched, plus the
   lports actually in use (ephemeral ones included). *)
let probes used_lports =
  let dports = List.sort_uniq compare (0 :: Array.to_list lports @ used_lports) in
  let sports = Array.to_list rports @ Array.to_list syn_sports in
  List.concat_map
    (fun src -> List.concat_map (fun sport -> List.map (fun d -> (src, sport, d)) dports) sports)
    (Array.to_list raddrs)

let agree lookup used_lports =
  List.for_all
    (fun (src, sport, dport) ->
      let hashed = with_pcb_hash true (fun () -> lookup ~src ~sport ~dport) in
      let linear = with_pcb_hash false (fun () -> lookup ~src ~sport ~dport) in
      match hashed, linear with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false)
    (probes used_lports)

(* One step: (kind, a, b, c) with kind 0..7, a 0..3, b and c 0..1. *)
let gen_ops =
  QCheck.(
    pair (int_bound 2)
      (list_of_size Gen.(1 -- 30) (quad (int_bound 7) (int_bound 3) (int_bound 1) (int_bound 1))))

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
let tcp_header ?(dst = local) ~src ~sport ~dport ~flags () =
  let d = Bytes.make 20 '\000' in
  Codec.write_tcp d ~off:0 ~sport ~dport ~seq:7 ~ack:0 ~flags ~win:8192 ~mss:None ~wscale:None;
  Codec.set_tcp_cksum d ~off:0 ~zero_as_ones:false
    (Codec.cksum_bytes d ~off:0 ~len:20 ~init:(Codec.pseudo_header ~src ~dst ~proto:6 ~len:20));
  d

let bsd_segment hdr =
  let m = Mbuf.m_gethdr () in
  Mbuf.m_append m ~src:hdr ~src_pos:0 ~len:(Bytes.length hdr);
  m

let testbed () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  Clientos.make_testbed ~models:("3c905", "tulip") ()

(* ------------------------------------------------------------------ *)

let bsd_tcp (tw_max, ops) =
  with_tw_max tw_max (fun () ->
      let tb = testbed () in
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
            live := List.filter (fun p -> not (List.memq p !live)) t.Tcp.pcbs @ !live
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
        | _ -> fresh := Tcp.create_pcb t :: !fresh);
        agree (Tcp.find_pcb t) (List.map (fun p -> p.Tcp.lport) t.Tcp.pcbs)
      in
      List.for_all step ops)

let linux_tcp (tw_max, ops) =
  with_tw_max tw_max (fun () ->
      let tb = testbed () in
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
        agree (Linux_inet.find_sock t) (List.map (fun s -> s.Linux_inet.lport) t.Linux_inet.socks)
      in
      List.for_all step ops)

(* UDP has no TIME_WAIT: kinds map to bind, connected bind (the exact
   4-tuple key), implicit bind by sending, and detach. *)
let bsd_udp (_, ops) =
  let tb = testbed () in
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
    agree (Udp.find_pcb u) (List.map (fun p -> p.Udp.lport) u.Udp.pcbs)
  in
  List.for_all step ops

(* Pinned from the property: a second connection on a live 4-tuple (the
   knob-off scan finds the newest) must not be shadowed by the cached
   older one, and closing the newer must uncover the older again. *)
let test_tuple_reuse () =
  let tb = testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let t = st.Bsd_socket.tcp in
  let connect () =
    let pcb = Tcp.create_pcb t in
    ignore (Tcp.usr_bind t pcb ~port:1100);
    ignore (Tcp.usr_connect t pcb ~dst:raddrs.(0) ~dport:80);
    pcb
  in
  let find on = with_pcb_hash on (fun () -> Tcp.find_pcb t ~src:raddrs.(0) ~sport:80 ~dport:1100) in
  let check name pcb =
    List.iter
      (fun on ->
        Alcotest.(check bool) (Printf.sprintf "%s (pcb_hash %b)" name on) true
          (match find on with Some p -> p == pcb | None -> false))
      [ true; false ]
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
  let tb = testbed () in
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
  let find on =
    with_pcb_hash on (fun () -> Linux_inet.find_sock t ~src:raddrs.(0) ~sport:80 ~dport:1100)
  in
  List.iter
    (fun on ->
      Alcotest.(check bool) (Printf.sprintf "the later connect answers (pcb_hash %b)" on) true
        (match find on with Some s -> s == older | None -> false))
    [ true; false ]

(* Pinned from the property: an unbound UDP pcb (lport 0) takes nothing,
   not even a datagram to port 0. *)
let test_udp_unbound () =
  let tb = testbed () in
  let st = Clientos.freebsd_host tb.Clientos.host_a ~ip:local ~mask in
  let u = st.Bsd_socket.udp in
  ignore (Udp.create_pcb u);
  List.iter
    (fun on ->
      Alcotest.(check bool) "port 0 finds no pcb" true
        (with_pcb_hash on (fun () -> Udp.find_pcb u ~src:raddrs.(0) ~sport:53 ~dport:0) = None))
    [ true; false ]

let prop name f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name gen_ops f)

let suite =
  [ prop "demux: hashed = linear scan (bsd tcp)" bsd_tcp;
    prop "demux: hashed = linear scan (linux tcp)" linux_tcp;
    prop "demux: hashed = linear scan (bsd udp)" bsd_udp;
    Alcotest.test_case "demux: 4-tuple reuse, newest answers, older uncovered" `Quick
      test_tuple_reuse;
    Alcotest.test_case "demux: linux, the later connect on a live 4-tuple answers" `Quick
      test_linux_connect_order;
    Alcotest.test_case "demux: an unbound udp pcb takes nothing" `Quick test_udp_unbound ]
