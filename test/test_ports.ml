(* Ephemeral ports (lib/inet Port_alloc) in BSD TCP, BSD UDP and Linux
   TCP.  Each stack's cursor starts at 65535 with that port and the bottom
   of its range held by other sockets: the next implicit bind must wrap
   into range, skip both, and the connection or datagram exchange on the
   port it got must complete byte-exact.  A cursor that ran past 65535
   would hold a 17-bit port while the header carries its low 16 bits, so
   replies would miss the demux. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let addr_a = ip "10.0.0.1"
let addr_b = ip "10.0.0.2"
let server_port = 5001
let bytes = 20_000
let pattern n = Bytes.init n (fun i -> Char.chr (Endpoint.pattern i))

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let test_alloc_wraps_and_exhausts () =
  let a = Port_alloc.create ~lo:10 ~hi:12 in
  a.Port_alloc.cursor <- 12;
  Port_alloc.use a 12;
  Port_alloc.use a 10;
  let next () = Result.map_error Error.to_string (Port_alloc.alloc a) in
  Alcotest.(check (result int string)) "wraps past 12 and 10" (Ok 11) (next ());
  Port_alloc.use a 11;
  Alcotest.(check (result int string)) "range full" (Error "EADDRNOTAVAIL") (next ());
  Port_alloc.release a 12;
  Alcotest.(check (result int string)) "freed port comes back" (Ok 12) (next ())

let received_matches name got =
  Alcotest.(check int) (name ^ ": received size") bytes (Buffer.length got);
  Alcotest.(check bool) (name ^ ": byte-exact") true (Buffer.to_bytes got = pattern bytes)

(* Server on B; on A, sockets holding 65535 and 1024, then a connect. *)
let tcp_wraps ?models config () =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ?models () in
  let client = Endpoint.setup config tb.Clientos.host_a ~addr:addr_a in
  let server = Endpoint.setup config tb.Clientos.host_b ~addr:addr_b in
  let got = Buffer.create bytes and peer_port = ref 0 and done_ = ref false in
  let port_of (c : Endpoint.conn) ~remote =
    match c.sock with
    | Endpoint.Bsd_sock s ->
        if remote then s.Bsd_socket.pcb.Tcp.rport else s.Bsd_socket.pcb.Tcp.lport
    | Endpoint.Lx_sock s -> if remote then s.Linux_inet.rport else s.Linux_inet.lport
    | Endpoint.Fd _ -> assert false
  in
  Clientos.spawn server.host ~name:"server" (fun () ->
      let conn = ok (server.listen ~port:server_port ~backlog:4 ()) in
      peer_port := port_of conn ~remote:true;
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (conn.recv ~buf ~pos:0 ~len:8192) with
        | 0 -> done_ := true
        | n ->
            Buffer.add_subbytes got buf 0 n;
            loop ()
      in
      loop ());
  let lport = ref 0 in
  Clientos.spawn client.host ~name:"client" (fun () ->
      List.iter
        (fun port ->
          let (_ : unit -> _) = client.listen ~port ~backlog:1 in
          ())
        [ 65535; 1024 ];
      (match client.stack with
      | Endpoint.Bsd sa -> sa.Bsd_socket.tcp.Tcp.ports.Port_alloc.cursor <- 65535
      | Endpoint.Lx sa -> sa.Linux_inet.ports.Port_alloc.cursor <- 65535);
      let c = ok (client.connect ~dst:addr_b ~port:server_port) in
      lport := port_of c ~remote:false;
      ignore (ok (c.send ~buf:(pattern bytes) ~pos:0 ~len:bytes));
      c.close ());
  Clientos.run tb ~until:(fun () -> !done_);
  Alcotest.(check int) "connect took 1025" 1025 !lport;
  Alcotest.(check int) "server saw 1025" 1025 !peer_port;
  received_matches (Endpoint.config_name config ^ " tcp") got

let test_bsd_tcp = tcp_wraps Endpoint.Freebsd
let test_linux_tcp = tcp_wraps ~models:("3c59x", "lance") Endpoint.Linux

(* UDP's range is 49152-65535: an echo server on B answers each datagram
   to its source port, which A's implicit bind chose. *)
let test_bsd_udp () =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed () in
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:addr_a ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:addr_b ~mask in
  let chunk = 1000 in
  let peer_port = ref 0 and got = Buffer.create bytes and done_ = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"echo" (fun () ->
      let s = Bsd_socket.udp_socket sb in
      ok (Bsd_socket.uso_bind s ~port:server_port);
      let rec loop () =
        let src, sport, payload = Bsd_socket.uso_recvfrom s in
        peer_port := sport;
        ignore
          (ok
             (Bsd_socket.uso_sendto s ~buf:payload ~pos:0 ~len:(Bytes.length payload) ~dst:src
                ~dport:sport));
        loop ()
      in
      loop ());
  let lport = ref 0 in
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      List.iter
        (fun port -> ok (Bsd_socket.uso_bind (Bsd_socket.udp_socket sa) ~port))
        [ 65535; 49152 ];
      sa.Bsd_socket.udp.Udp.ports.Port_alloc.cursor <- 65535;
      let s = Bsd_socket.udp_socket sa in
      let data = pattern bytes in
      let rec go pos =
        if pos < bytes then begin
          ignore
            (ok (Bsd_socket.uso_sendto s ~buf:data ~pos ~len:chunk ~dst:addr_b ~dport:server_port));
          lport := s.Bsd_socket.upcb.Udp.lport;
          let _, _, payload = Bsd_socket.uso_recvfrom s in
          Buffer.add_bytes got payload;
          go (pos + chunk)
        end
        else done_ := true
      in
      go 0);
  Clientos.run tb ~until:(fun () -> !done_);
  Alcotest.(check int) "send took 49153" 49153 !lport;
  Alcotest.(check int) "server saw 49153" 49153 !peer_port;
  received_matches "bsd udp" got

let suite =
  [ Alcotest.test_case "ports: allocator wraps, skips, and reports exhaustion" `Quick
      test_alloc_wraps_and_exhausts;
    Alcotest.test_case "ports: bsd tcp connect wraps past 65535 byte-exact" `Quick test_bsd_tcp;
    Alcotest.test_case "ports: linux tcp connect wraps past 65535 byte-exact" `Quick test_linux_tcp;
    Alcotest.test_case "ports: bsd udp send wraps past 65535 byte-exact" `Quick test_bsd_udp ]
