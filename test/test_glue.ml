(* Who pays the glue.  A call through a COM face crosses the OSKit glue
   only on an OSKit machine, whose stack reaches its device through the
   fdev glue: there every socket and file call is one crossing.  A native
   FreeBSD or Linux kernel links its components directly, so the same
   calls through the same faces cross nothing.  A machine runs one kind of
   kernel: binding the other kind as well is refused. *)

let ok = Endpoint.ok

let server_ip = Endpoint.addr_b
let port = 7001

(* The COM socket face of [config]'s stack on [host]: the one an OSKit
   client gets from its socket factory, over whichever stack runs. *)
let com_socket config (host : Clientos.host) =
  match config with
  | Endpoint.Oskit ->
      let _env, stack = Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask in
      Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)
  | Endpoint.Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask in
      Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)
  | Endpoint.Linux ->
      let stack = Clientos.linux_host host ~ip:server_ip ~mask:Endpoint.mask in
      Linux_sock_com.socket_com stack (Linux_inet.socket stack)

(* Each call the server makes through its faces, with the glue crossings
   it was charged: every crossing counted while it ran, less the frames
   its NIC sent meanwhile (on an OSKit machine each frame crosses the
   driver's transmit glue too; a native one sends through no glue, so
   there the raw count must be zero as well).  No call blocks: the
   client's connection and data are queued before the first of them, so
   no frame arrives while one runs. *)
let crossings_per_call config =
  let tb = Clientos.make_testbed () in
  let body = String.init 3000 (fun i -> Char.chr (Endpoint.pattern i)) in
  let root = ok (Fs_glue.newfs (Mem_blkio.make ~bytes:(1 lsl 20) ())) in
  let f = ok (root.Io_if.d_create "index.html") in
  ignore (ok (f.Io_if.f_write ~buf:(Bytes.of_string body) ~pos:0 ~offset:0 ~amount:3000));
  let server = tb.Clientos.host_b in
  let sock = com_socket config server in
  let client = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_a ~addr:Endpoint.addr_a in
  let calls = ref [] and finished = ref false in
  let call name f =
    let c0 = Cost.counters.Cost.glue_crossings and t0 = Nic.tx_count server.Clientos.nic in
    let v = f () in
    let raw = Cost.counters.Cost.glue_crossings - c0 in
    calls := (name, raw, raw - (Nic.tx_count server.Clientos.nic - t0)) :: !calls;
    v
  in
  Clientos.spawn server ~name:"server" (fun () ->
      call "bind" (fun () -> ok (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = port }));
      call "listen" (fun () -> ok (sock.Io_if.so_listen ~backlog:2));
      Kclock.sleep_ns 50_000_000;
      let c, _ = call "accept" (fun () -> ok (sock.Io_if.so_accept ())) in
      ignore (call "getsockname" (fun () -> ok (c.Io_if.so_getsockname ())));
      let buf = Bytes.create 16 in
      Alcotest.(check int) "request received" 4
        (call "recv" (fun () -> ok (c.Io_if.so_recv ~buf ~pos:0 ~len:16)));
      let page =
        match call "d_lookup" (fun () -> ok (root.Io_if.d_lookup "index.html")) with
        | Io_if.Node_file f -> f
        | Io_if.Node_dir _ -> Alcotest.fail "index.html is a directory"
      in
      let data = Bytes.create 3000 in
      Alcotest.(check int) "page read" 3000
        (call "f_read" (fun () -> ok (page.Io_if.f_read ~buf:data ~pos:0 ~offset:0 ~amount:3000)));
      Alcotest.(check int) "page sent" 3000
        (call "send" (fun () -> ok (c.Io_if.so_send ~buf:data ~pos:0 ~len:3000)));
      call "close" (fun () -> ok (c.Io_if.so_close ())));
  Clientos.spawn client.host ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (client.connect ~dst:server_ip ~port) in
      ignore (ok (c.send ~buf:(Bytes.of_string "GET\n") ~pos:0 ~len:4));
      let got = Httpbench.drain c in
      Alcotest.(check bool) "page byte-exact" true (got = body);
      c.close ();
      finished := true);
  Clientos.run tb ~until:(fun () -> !finished);
  Alcotest.(check bool) "exchange finished" true !finished;
  List.rev !calls

let names = [ "bind"; "listen"; "accept"; "getsockname"; "recv"; "d_lookup"; "f_read"; "send"; "close" ]

let native config () =
  let calls = crossings_per_call config in
  Alcotest.(check (list string)) "every call made" names (List.map (fun (n, _, _) -> n) calls);
  List.iter
    (fun (name, raw, _) -> Alcotest.(check int) (name ^ ": no glue crossed") 0 raw)
    calls

let oskit () =
  let calls = crossings_per_call Endpoint.Oskit in
  Alcotest.(check (list string)) "every call made" names (List.map (fun (n, _, _) -> n) calls);
  List.iter
    (fun (name, _, face) -> Alcotest.(check int) (name ^ ": one crossing") 1 face)
    calls

(* A machine whose kernel is bound to its NIC one way refuses the other. *)
let both_kinds () =
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_b in
  ignore (Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask);
  refused "the fdev glue on a native machine" (fun () ->
      Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask);
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_b in
  ignore (Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask);
  refused "a native stack on an OSKit machine" (fun () ->
      Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask);
  Alcotest.(check bool) "an OSKit machine is not native" false (Machine.native host.Clientos.machine)

(* ---- One crossing per transmit burst ---- *)

(* The batched glue is the receive poll budget's profile: rx_batch > 1
   batches both directions. *)
let with_batch batch f = Cost.with_config { Cost.config with Cost.rx_batch = batch } f

(* An interface's send queue is empty and no hold is open on it. *)
let snd_idle (ifp : Netif.ifnet) =
  ifp.Netif.if_snd_len = 0 && ifp.Netif.if_snd = [] && ifp.Netif.if_hold = 0

let check_snd_idle what ifp = Alcotest.(check bool) (what ^ ": send queue idle") true (snd_idle ifp)

(* Off the batched glue a burst is the bare call: 1,000 of them on an
   interface that holds no burst allocate no more host words than the
   empty measurement itself. *)
let add a b = a + b

let burst_off_allocates_nothing () =
  let ifp = Netif.create ~name:"bench0" ~hwaddr:"\x02\x00\x00\x00\x00\x09" in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let empty = words (fun () -> ()) in
  let sum = ref 0 in
  let bursts =
    words (fun () ->
        for i = 1 to 1000 do
          sum := !sum + Netif.with_burst ifp add i 1
        done)
  in
  Alcotest.(check int) "every call ran" 501500 !sum;
  Alcotest.(check (float 0.0)) "no words allocated" empty bursts

(* A [config] sender connected to a native FreeBSD sink runs one
   tcp_output with [k] full segments of new data in its send buffer and
   its congestion window open to all of them.  Returns the glue crossings
   charged while it ran and the frames its NIC sent meanwhile. *)
let one_output config ~batch ~k =
  with_batch batch @@ fun () ->
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_a in
  let stack =
    match config with
    | Endpoint.Oskit -> snd (Clientos.oskit_host host ~ip:Endpoint.addr_a ~mask:Endpoint.mask)
    | _ -> Clientos.freebsd_host host ~ip:Endpoint.addr_a ~mask:Endpoint.mask
  in
  let sink = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_b ~addr:server_ip in
  let measured = ref None in
  Clientos.spawn sink.host ~name:"sink" (fun () -> ignore (ok (sink.listen ~port ~backlog:1 ())));
  Clientos.spawn host ~name:"sender" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Bsd_socket.tcp_socket stack in
      ok (Bsd_socket.so_connect s ~dst:server_ip ~dport:port);
      let pcb = s.Bsd_socket.pcb in
      let len = k * pcb.Tcp.t_maxseg in
      pcb.Tcp.snd_cwnd <- len;
      Sockbuf.sbappend_bytes pcb.Tcp.snd_buf ~src:(Bytes.make len 'b') ~src_pos:0 ~len;
      let c0 = Cost.counters.Cost.glue_crossings and t0 = Nic.tx_count host.Clientos.nic in
      Tcp.tcp_output stack.Bsd_socket.tcp pcb;
      measured :=
        Some (Cost.counters.Cost.glue_crossings - c0, Nic.tx_count host.Clientos.nic - t0));
  Clientos.run tb ~until:(fun () -> !measured <> None);
  check_snd_idle "sender" stack.Bsd_socket.ifp;
  match !measured with
  | Some m -> m
  | None -> Alcotest.fail "the sender never connected"

let burst_crossings () =
  let k = 6 in
  let case what config batch want =
    let crossings, frames = one_output config ~batch ~k in
    Alcotest.(check int) (what ^ ": segments sent") k frames;
    Alcotest.(check int) (what ^ ": transmit crossings") want crossings
  in
  case "OSKit, rx_batch 8" Endpoint.Oskit 8 1;
  case "OSKit, rx_batch 1" Endpoint.Oskit 1 k;
  case "native FreeBSD, rx_batch 8" Endpoint.Freebsd 8 0;
  case "native FreeBSD, rx_batch 1" Endpoint.Freebsd 1 0

(* ---- One crossing per receive delivery ---- *)

(* [frames] frames of an ethertype no stack speaks arrive back to back at
   a [config] receiver whose CPU runs a millisecond ahead of the wire, so
   a batched poll finds several in the ring.  None draws a reply, so
   every glue crossing charged while they arrive is a receive one.
   Returns those crossings, the polls and the frames the polls carried,
   and the frames the receiver's card took. *)
let receive config ~batch ~frames =
  with_batch batch @@ fun () ->
  let tb = Clientos.make_testbed () in
  let host = tb.Clientos.host_b and peer = tb.Clientos.host_a in
  let nic = host.Clientos.nic in
  (match config with
   | Endpoint.Oskit -> ignore (Clientos.oskit_host host ~ip:server_ip ~mask:Endpoint.mask)
   | Endpoint.Freebsd -> ignore (Clientos.freebsd_host host ~ip:server_ip ~mask:Endpoint.mask)
   | Endpoint.Linux -> ignore (Clientos.linux_host host ~ip:server_ip ~mask:Endpoint.mask));
  let c = Cost.counters in
  let c0 = c.Cost.glue_crossings and p0 = c.Cost.rx_polls and f0 = c.Cost.rx_batched_frames in
  let r0 = Nic.rx_count nic in
  Machine.run_in host.Clientos.machine (fun () -> Cost.charge Cost.App (Cost.config.Cost.cpu_hz / 1000));
  Machine.run_in peer.Clientos.machine (fun () ->
      for _ = 1 to frames do
        let f = Bytes.make 60 '\000' in
        Bytes.blit_string (Nic.mac nic) 0 f 0 6;
        Bytes.blit_string (Nic.mac peer.Clientos.nic) 0 f 6 6;
        (* 0x88b5, the IEEE local experimental ethertype *)
        Bytes.set f 12 '\x88';
        Bytes.set f 13 '\xb5';
        Nic.transmit peer.Clientos.nic f
      done);
  Clientos.run tb ~until:(fun () -> Nic.rx_count nic - r0 = frames && Nic.rx_pending nic = 0);
  ( c.Cost.glue_crossings - c0,
    c.Cost.rx_polls - p0,
    c.Cost.rx_batched_frames - f0,
    Nic.rx_count nic - r0 )

(* An OSKit receiver crosses the glue once per frame it drains alone, or
   once per poll under the batched glue, and only then counts polls; a
   native kernel crosses nothing and counts no poll. *)
let receive_crossings () =
  let frames = 20 in
  let case config batch =
    let what = Printf.sprintf "%s, rx_batch %d" (Endpoint.config_name config) batch in
    let crossings, polls, carried, took = receive config ~batch ~frames in
    Alcotest.(check int) (what ^ ": every frame taken") frames took;
    if config = Endpoint.Oskit && batch > 1 then begin
      Alcotest.(check bool) (what ^ ": a poll carried several frames") true
        (polls > 0 && polls < frames);
      Alcotest.(check int) (what ^ ": one receive crossing per poll") polls crossings;
      Alcotest.(check int) (what ^ ": the polls carried every frame") frames carried
    end
    else begin
      Alcotest.(check int)
        (what ^ ": receive crossings")
        (if config = Endpoint.Oskit then frames else 0)
        crossings;
      Alcotest.(check int) (what ^ ": no poll counted") 0 polls;
      Alcotest.(check int) (what ^ ": no polled frame counted") 0 carried
    end
  in
  List.iter (fun config -> List.iter (case config) [ 1; 8 ]) Endpoint.[ Oskit; Freebsd; Linux ]

(* A closed device refuses every frame: each one is counted once in the
   interface's output errors, whether it went down alone or in a burst,
   and none as a drop for want of memory; the push attempts and reports
   the whole burst. *)
let refused_after_close () =
  let frames = 5 in
  let frame () =
    let m = Mbuf.m_gethdr () in
    Mbuf.m_append m ~src:(Bytes.make 46 'r') ~src_pos:0 ~len:46;
    m
  in
  let send ifp () =
    Netif.ether_output ifp (frame ()) ~dst_mac:Netif.ether_broadcast
      ~ethertype:Netif.ethertype_ip
  in
  List.iter
    (fun batch ->
      with_batch batch @@ fun () ->
      let tb = Clientos.make_testbed () in
      let host = tb.Clientos.host_a in
      Machine.run_in host.Clientos.machine (fun () ->
          Linux_glue.init_ethernet ();
          let osenv = Osenv.create host.Clientos.machine in
          ignore (Fdev.probe osenv);
          let dev = List.hd (Fdev.lookup osenv Io_if.etherdev_iid) in
          let stack = Freebsd_glue.init host.Clientos.machine in
          ok (Freebsd_glue.open_ether_if stack dev);
          let ifp = stack.Bsd_socket.ifp in
          ok (dev.Io_if.ed_close ());
          let what = Printf.sprintf "rx_batch %d" batch in
          let c0 = Cost.counters.Cost.glue_crossings in
          for _ = 1 to frames do
            Netif.with_burst ifp send ifp ()
          done;
          Alcotest.(check int) (what ^ ": one crossing per lone frame") frames
            (Cost.counters.Cost.glue_crossings - c0);
          Alcotest.(check int) (what ^ ": every lone frame refused") frames ifp.Netif.if_oerrors;
          let c0 = Cost.counters.Cost.glue_crossings in
          Netif.with_burst ifp
            (fun ifp () ->
              for _ = 1 to frames do
                send ifp ()
              done)
            ifp ();
          Alcotest.(check int)
            (what ^ ": a burst crosses once when batched")
            (if batch > 1 then 1 else frames)
            (Cost.counters.Cost.glue_crossings - c0);
          Alcotest.(check int) (what ^ ": every burst frame refused") (2 * frames)
            ifp.Netif.if_oerrors;
          Alcotest.(check int) (what ^ ": no refusal for want of memory") 0 ifp.Netif.if_onomem;
          check_snd_idle what ifp))
    [ 1; 8 ]

(* The batched glue under allocation failure and 1% loss (a feature x
   feature cell): an OSKit sender with rx_batch 8, the allocation
   injector firing, a backpressure-honest stream.  The transfer is
   byte-exact, the failures were real and counted, every frame the stack
   handed its interface either reached the NIC or was counted refused,
   the driver's refusals for want of an sk_buff are counted as such and
   reach the run's Nomem drops, and at quiescence the send queue is empty
   with no hold open.  The injector fails 2% of allocations: with every
   data segment full the stream allocates less, and at 1% no failure
   fell on the driver's allocations. *)
let burst_conservation () =
  Cost.with_config
    { Cost.config with
      Cost.rx_batch = 8; tcp_fastpath = true; alloc_fail_prob = 0.02; alloc_fail_seed = 43;
      alloc_fail_burst = 2 }
  @@ fun () ->
  let bytes = 128 * 1024 in
  let netem = Netem.create ~seed:42 ~policy:{ Netem.default_policy with loss = 0.01 } () in
  let r =
    Netbench.stream ~retry:true ~netem
      { Workload.table1 with bytes; recv_chunk = 4096; delay_ns = 1_000_000 }
  in
  Alcotest.(check bool) "transfer completed" true r.completed;
  Alcotest.(check bool) "byte-exact" true r.byte_exact;
  Alcotest.(check int) "every byte arrived" bytes r.received;
  Alcotest.(check bool) "netem dropped frames" true (r.wire_dropped > 0);
  Alcotest.(check bool) "the injector failed allocations" true (Memfault.failures () > 0);
  let ifp =
    match r.tx.Endpoint.stack with
    | Endpoint.Bsd st -> st.Bsd_socket.ifp
    | Endpoint.Lx _ -> Alcotest.fail "the OSKit sender runs the BSD stack"
  in
  let stack_drops ep =
    match ep.Endpoint.stack with
    | Endpoint.Bsd st ->
        st.Bsd_socket.tcp.Tcp.stats.Tcp.nomem_drops + st.Bsd_socket.ip.Ip.nomem_drops
    | Endpoint.Lx st -> st.Linux_inet.nomem_drops
  in
  Alcotest.(check bool) "the driver refused frames for want of memory" true
    (ifp.Netif.if_onomem > 0);
  Alcotest.(check int) "no frame refused for a closed device" 0 ifp.Netif.if_oerrors;
  Alcotest.(check int) "Nomem drops: both stacks' TCP/IP drops + the driver's refusals"
    (stack_drops r.tx + stack_drops r.rx + ifp.Netif.if_onomem)
    r.nomem_drops;
  Alcotest.(check int) "every frame sent or counted refused" ifp.Netif.if_opackets
    (Nic.tx_count r.testbed.Clientos.host_a.Clientos.nic + ifp.Netif.if_onomem);
  check_snd_idle "sender" ifp

let suite =
  [ Alcotest.test_case "native FreeBSD: COM socket and file calls cross no glue" `Quick
      (native Endpoint.Freebsd);
    Alcotest.test_case "native Linux: COM socket and file calls cross no glue" `Quick
      (native Endpoint.Linux);
    Alcotest.test_case "OSKit: one glue crossing per COM socket and file call" `Quick oskit;
    Alcotest.test_case "one machine, one kind of kernel" `Quick both_kinds;
    Alcotest.test_case "receive crossings: one per frame, or one per poll" `Quick
      receive_crossings;
    Alcotest.test_case "no send queue: a burst allocates nothing" `Quick
      burst_off_allocates_nothing;
    Alcotest.test_case "one transmit crossing per tcp_output burst" `Quick burst_crossings;
    Alcotest.test_case "refused frames counted once each, lone or burst" `Quick
      refused_after_close;
    Alcotest.test_case "batched glue x alloc failure x 1% loss: conserved" `Quick
      burst_conservation ]
