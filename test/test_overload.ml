(* Overload survival: SYN-flood defense (per-listener syncache + stateless
   SYN cookies), memory-pressure backpressure (the deterministic
   allocation-failure injector and the Nomem audit behind it), the
   TIME_WAIT cap, error-response rate limiting, and the httpd's
   slow-client guards.  Everything is default-off, so the last test pins
   the flags-off world untouched and the rest turn one knob at a time. *)

let ip, mask, ok = Endpoint.(ip, mask, ok)

(* Set the overload knobs for [f], restoring the seed defaults after.  A
   testbed built inside [f] re-seeds the allocation injector from them, so
   no test leaks failure state into its neighbours.  Stacks built inside
   [f] see the knobs at creation time, which matters for the token buckets
   (they start full). *)
let with_overload ?(syn_defense = false) ?(tw_max = 0) ?(icmp_ratelimit = 0)
    ?(alloc_fail_prob = 0.0) ?(alloc_fail_seed = 1) ?(alloc_fail_burst = 1)
    ?(httpd_header_deadline_ns = 0) ?(httpd_max_header_bytes = 0) ?(httpd_shed_hiwat = 0) f =
  Cost.with_config
    { Cost.config with
      Cost.syn_defense; tw_max; icmp_ratelimit; alloc_fail_prob; alloc_fail_seed;
      alloc_fail_burst; httpd_header_deadline_ns; httpd_max_header_bytes; httpd_shed_hiwat }
    f

(* Craft one option-less TCP segment and push it out through [cstack]'s IP
   layer with an arbitrary (spoofable) source address — the attacker's
   view of the wire. *)
let send_raw_tcp cstack ~src ~sport ~dst ~dport ~seq ~ack ~flags =
  Ip.output cstack.Bsd_socket.ip ~proto:Ip.proto_tcp ~src ~dst
    (Tcp.raw_segment ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win:8192 ~mss:None)

(* The attacking host: a FreeBSD endpoint at 10.0.0.1 and its stack. *)
let attacker tb =
  let ep = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  match ep.stack with Endpoint.Bsd st -> ep, st | Endpoint.Lx _ -> assert false

(* ------------------------------------------------------------------ *)
(* SYN cookies: the ISS round-trips through check_cookie on both stacks
   and decodes to the right MSS class; a perturbed 4-tuple rejects.      *)

let cookie_rigs =
  lazy
    (let tb = Clientos.make_testbed () in
     let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
     let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
     (sa.Bsd_socket.tcp, sb))

let prop_cookie_roundtrip =
  QCheck.Test.make ~name:"overload: SYN cookie round-trips on both stacks" ~count:100
    QCheck.(
      quad (int_bound 0x0fffffff) (int_range 1 65535) (int_range 1 65535)
        (int_range 0 20000))
    (fun (addr, rport, lport, mss) ->
      let bsd, lx = Lazy.force cookie_rigs in
      let raddr = Int32.of_int addr in
      let expect = Syncache.mss_classes.(Syncache.mss_class mss) in
      let bc = Syncache.cookie bsd.Tcp.syncache ~raddr ~rport ~lport ~mss in
      let lc = Syncache.cookie lx.Linux_inet.syncache ~raddr ~rport ~lport ~mss in
      Syncache.check_cookie bsd.Tcp.syncache ~raddr ~rport ~lport ~iss:bc = Some expect
      && Syncache.check_cookie lx.Linux_inet.syncache ~raddr ~rport ~lport ~iss:lc = Some expect
      (* the class never overshoots the peer's offer (below the smallest
         class it clamps up to 536, the protocol minimum) *)
      && expect <= max 536 mss
      (* a different remote port must not validate (2^-30 collision odds) *)
      && Syncache.check_cookie bsd.Tcp.syncache ~raddr ~rport:(1 + (rport mod 65535)) ~lport
           ~iss:bc
         = None)

(* ------------------------------------------------------------------ *)
(* Syncache: bounded, oldest evicted first, and a closing listener frees
   every cached half-open handshake (satellite fix) — both stacks.       *)

let test_syncache_eviction_and_listener_close () =
  let syns = Syncache.size + 2 (* two past the cache's size *) in
  with_overload ~syn_defense:true (fun () ->
      let tb = Clientos.make_testbed () in
      let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let bsd_srcs = ref [] and bsd_after_close = ref (-1) in
      let lx_srcs = ref [] and lx_after_close = ref (-1) in
      let done_flag = ref false in
      Clientos.spawn tb.Clientos.host_a ~name:"bsd-rig" (fun () ->
          let ls = Bsd_socket.tcp_socket sa in
          ok (Bsd_socket.so_bind ls ~port:80);
          ok (Bsd_socket.so_listen ls ~backlog:2);
          let pcb = ls.Bsd_socket.pcb in
          let tcp = sa.Bsd_socket.tcp in
          for i = 1 to syns do
            Tcp.syncache_add tcp pcb
              ~src:(ip (Printf.sprintf "10.0.0.%d" (100 + i)))
              ~sport:4000 ~seq:(1000 * i) ~mss:(Some 1460)
          done;
          bsd_srcs :=
            List.map
              (fun e -> (Int32.to_int e.Syncache.raddr land 0xff) - 100)
              pcb.Tcp.syn_cache.Syncache.entries;
          ignore (Bsd_socket.so_close ls);
          bsd_after_close := List.length pcb.Tcp.syn_cache.Syncache.entries);
      Clientos.spawn tb.Clientos.host_b ~name:"lx-rig" (fun () ->
          let ls = Linux_inet.socket sb in
          Linux_inet.bind sb ls ~port:80;
          Linux_inet.listen sb ls ~backlog:2;
          for i = 1 to syns do
            Linux_inet.lx_syncache_add sb ls
              ~src:(ip (Printf.sprintf "10.0.0.%d" (100 + i)))
              ~sport:4000 ~seq:(1000 * i) ~mss:(Some 1460)
          done;
          lx_srcs :=
            List.map
              (fun e -> (Int32.to_int e.Syncache.raddr land 0xff) - 100)
              ls.Linux_inet.syn_cache.Syncache.entries;
          Linux_inet.close sb ls;
          lx_after_close := List.length ls.Linux_inet.syn_cache.Syncache.entries;
          done_flag := true);
      Clientos.run tb ~until:(fun () -> !done_flag);
      Alcotest.(check bool) "rigs ran" true !done_flag;
      (* Newest first, capped at the size: the two oldest (1, 2) are gone. *)
      let kept = List.init Syncache.size (fun i -> syns - i) in
      Alcotest.(check (list int)) "bsd: oldest evicted first" kept !bsd_srcs;
      Alcotest.(check (list int)) "linux: oldest evicted first" kept !lx_srcs;
      let st = sa.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
      let lt = sb.Linux_inet.syncache.Syncache.stats in
      Alcotest.(check int) "bsd: every SYN cached" syns st.Syncache.added;
      Alcotest.(check int) "bsd: close freed the cache" 0 !bsd_after_close;
      Alcotest.(check int) "bsd: evictions = 2 overflow + the rest at close" syns
        st.Syncache.evicted;
      Alcotest.(check int) "linux: every SYN cached" syns lt.Syncache.added;
      Alcotest.(check int) "linux: close freed the cache" 0 !lx_after_close;
      Alcotest.(check int) "linux: evictions = 2 overflow + the rest at close" syns
        lt.Syncache.evicted)

(* ------------------------------------------------------------------ *)
(* A SYN with no MSS option gets the same MSS from a defended listener's
   syncache as from an undefended listener's child, on both stacks — the
   stack's own tcp_mss, here 9000 (the defended BSD path used to fall
   back to a constant 1460).                                             *)

let test_syncache_mss_without_option () =
  Cost.with_config { Cost.config with Cost.tcp_mss = 9000 } (fun () ->
      let tb = Clientos.make_testbed () in
      let baddr = ip "10.0.0.1" and laddr = ip "10.0.0.2" and src = ip "10.0.0.9" in
      let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:baddr ~mask in
      let sb = Clientos.linux_host tb.Clientos.host_b ~ip:laddr ~mask in
      let syn ~dst ~port =
        Test_demux.tcp_header ~dst ~src ~sport:4000 ~dport:port ~flags:Tcp.th_syn ()
      in
      let bsd ~defended ~port =
        with_overload ~syn_defense:defended (fun () ->
            let t = sa.Bsd_socket.tcp in
            let ls = Tcp.create_pcb t in
            ok (Tcp.usr_bind t ls ~port);
            ok (Tcp.usr_listen t ls ~backlog:4);
            Tcp.input t ~src ~dst:baddr (Test_demux.bsd_segment (syn ~dst:baddr ~port));
            if defended then (List.hd ls.Tcp.syn_cache.Syncache.entries).Syncache.mss
            else
              (List.find (fun p -> p.Tcp.lport = port && p != ls) (Tcp.pcb_list t)).Tcp.t_maxseg)
      in
      let linux ~defended ~port =
        with_overload ~syn_defense:defended (fun () ->
            let ls = Linux_inet.socket sb in
            Linux_inet.bind sb ls ~port;
            Linux_inet.listen sb ls ~backlog:4;
            Linux_inet.tcp_rcv sb ~src (Skbuff.skb_wrap (syn ~dst:laddr ~port));
            if defended then (List.hd ls.Linux_inet.syn_cache.Syncache.entries).Syncache.mss
            else
              (List.find
                 (fun s -> s.Linux_inet.lport = port && s != ls)
                 (Conn_table.to_list sb.Linux_inet.conns))
                .Linux_inet.smss)
      in
      Alcotest.(check int) "bsd: undefended child" 9000 (bsd ~defended:false ~port:80);
      Alcotest.(check int) "bsd: syncache entry = undefended child" 9000
        (bsd ~defended:true ~port:81);
      Alcotest.(check int) "linux: undefended child" 9000 (linux ~defended:false ~port:80);
      Alcotest.(check int) "linux: syncache entry = undefended child" 9000
        (linux ~defended:true ~port:81))

(* ------------------------------------------------------------------ *)
(* The headline property: a 10x SYN flood from spoofed sources leaves a
   defended listener fully usable — every legitimate client connects and
   gets its echo back, on both stacks.                                   *)

let flood_then_legit config () =
  with_overload ~syn_defense:true (fun () ->
      let tb = Clientos.make_testbed () in
      let client, cstack = attacker tb in
      let server = Endpoint.setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
      let served = ref 0 and echoed = ref 0 and finished = ref 0 in
      let legit = 8 and flood = 80 in
      Clientos.spawn server.host ~name:"srv" (fun () ->
          let accept = server.listen ~port:7200 ~backlog:4 in
          for _ = 1 to legit do
            let c = ok (accept ()) in
            let buf = Bytes.create 64 in
            let n = ok (c.recv ~buf ~pos:0 ~len:64) in
            ignore (ok (c.send ~buf ~pos:0 ~len:n));
            c.close ();
            incr served
          done);
      let syncache, overflow =
        match server.stack with
        | Endpoint.Bsd sb ->
            ( sb.Bsd_socket.tcp.Tcp.syncache,
              fun () -> sb.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
        | Endpoint.Lx sb -> sb.Linux_inet.syncache, fun () -> sb.Linux_inet.listen_overflow
      in
      (* The flood: 10x the legitimate load, past the syncache's size, every
         SYN from a spoofed address, so its SYN-ACK goes to no host. *)
      Clientos.spawn client.host ~name:"flood" (fun () ->
          Kclock.sleep_ns 1_000_000;
          (* One SYN first, then a beat: resolves the attacker's ARP entry
             for the target so the burst below isn't throttled by the
             bounded ARP waiter queue (PR 2's drop-head bound). *)
          send_raw_tcp cstack ~src:(ip "10.0.0.99") ~sport:1999 ~dst:(ip "10.0.0.2")
            ~dport:7200 ~seq:1 ~ack:0 ~flags:Tcp.th_syn;
          Kclock.sleep_ns 500_000;
          for i = 0 to flood - 1 do
            send_raw_tcp cstack
              ~src:(ip (Printf.sprintf "10.0.0.%d" (100 + i)))
              ~sport:(2000 + i) ~dst:(ip "10.0.0.2") ~dport:7200 ~seq:(7 * i)
              ~ack:0 ~flags:Tcp.th_syn
          done);
      for i = 0 to legit - 1 do
        Clientos.spawn client.host ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 500_000));
            let c = ok (client.connect ~dst:(ip "10.0.0.2") ~port:7200) in
            let msg = Bytes.of_string (Printf.sprintf "ping-%d" i) in
            ignore (ok (c.send ~buf:msg ~pos:0 ~len:(Bytes.length msg)));
            let buf = Bytes.create 64 in
            (match c.recv ~buf ~pos:0 ~len:64 with
            | Ok n when n > 0 && Bytes.sub buf 0 n = Bytes.sub msg 0 n -> incr echoed
            | _ -> ());
            c.close ();
            incr finished)
      done;
      Clientos.run tb ~until:(fun () -> !finished >= legit);
      let sc = syncache.Syncache.stats in
      let added = sc.Syncache.added and completed = sc.Syncache.completed + sc.Syncache.validated in
      Alcotest.(check int) "every legitimate client served" legit !served;
      Alcotest.(check int) "every echo byte-exact" legit !echoed;
      Alcotest.(check bool)
        (Printf.sprintf "flood landed in the syncache (%d added)" added)
        true
        (added >= flood);
      Alcotest.(check bool) "the flood overflowed the syncache" true (sc.Syncache.evicted > 0);
      Alcotest.(check bool) "legit handshakes completed from cache or cookie" true
        (completed >= legit);
      Alcotest.(check int) "embryonic flood never overflowed the backlog" 0 (overflow ()))

let test_flood_then_legit_bsd () = flood_then_legit Endpoint.Freebsd ()
let test_flood_then_legit_linux () = flood_then_legit Endpoint.Linux ()

(* ------------------------------------------------------------------ *)
(* Stateless completion: an ACK whose cookie checks out builds the
   connection with no cached state at all; a bogus ACK is rejected.      *)

let cookie_completion config () =
  with_overload ~syn_defense:true (fun () ->
      let tb = Clientos.make_testbed () in
      let _, cstack = attacker tb in
      let server = Endpoint.setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
      let accepted_port = ref 0 and done_flag = ref false in
      let raddr = ip "10.0.0.77" and rport = 5555 and lport = 7300 in
      Clientos.spawn server.host ~name:"srv" (fun () ->
          let c = ok (server.listen ~port:lport ~backlog:4 ()) in
          (accepted_port :=
             match c.sock with
             | Endpoint.Bsd_sock s -> s.Bsd_socket.pcb.Tcp.rport
             | Endpoint.Lx_sock s -> s.Linux_inet.rport
             | Endpoint.Fd _ -> assert false);
          done_flag := true);
      let sc =
        match server.stack with
        | Endpoint.Bsd sb -> sb.Bsd_socket.tcp.Tcp.syncache
        | Endpoint.Lx sb -> sb.Linux_inet.syncache
      in
      (* The cookie the server would have answered with, recomputed from
         its secret — then echoed (+1) in a bare ACK, as if the SYN-ACK
         had been received by a client whose cache entry was long evicted. *)
      Clientos.spawn tb.Clientos.host_a ~name:"ack" (fun () ->
          Kclock.sleep_ns 1_000_000;
          let iss = Syncache.cookie sc ~raddr ~rport ~lport ~mss:1460 in
          (* Bogus completion first (the run ends once the valid one is
             accepted): the hash cannot match, so it must be rejected. *)
          send_raw_tcp cstack ~src:(ip "10.0.0.78") ~sport:rport
            ~dst:(ip "10.0.0.2") ~dport:lport ~seq:99 ~ack:1234567
            ~flags:Tcp.th_ack;
          (* Then the valid one. *)
          send_raw_tcp cstack ~src:raddr ~sport:rport ~dst:(ip "10.0.0.2")
            ~dport:lport ~seq:424243 ~ack:(iss + 1) ~flags:Tcp.th_ack);
      Clientos.run tb ~until:(fun () -> !done_flag);
      Alcotest.(check bool) "cookie ACK produced an accepted connection" true !done_flag;
      Alcotest.(check int) "the accepted connection is the cookie's 4-tuple" rport
        !accepted_port;
      Alcotest.(check int) "exactly one cookie validated" 1 sc.Syncache.stats.Syncache.validated;
      Alcotest.(check bool) "the bogus ACK was rejected" true
        (sc.Syncache.stats.Syncache.rejected >= 1))

let test_cookie_completion_bsd () = cookie_completion Endpoint.Freebsd ()
let test_cookie_completion_linux () = cookie_completion Endpoint.Linux ()

(* ------------------------------------------------------------------ *)
(* Error-response rate limiting: RSTs answering unclaimed segments and
   ICMP port unreachables both come out of a token bucket of depth
   [icmp_ratelimit], so a probe storm cannot amplify.                    *)

let test_rst_rate_limit_both_stacks () =
  with_overload ~icmp_ratelimit:3 (fun () ->
      let tb = Clientos.make_testbed () in
      let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let done_flag = ref false in
      Clientos.spawn tb.Clientos.host_a ~name:"probe" (fun () ->
          Kclock.sleep_ns 1_000_000;
          for i = 0 to 9 do
            (* No listener anywhere near port 7400: every probe earns a
               RST — until the bucket runs dry. *)
            send_raw_tcp cstack ~src:(ip "10.0.0.1") ~sport:(3000 + i)
              ~dst:(ip "10.0.0.2") ~dport:7400 ~seq:(11 * i) ~ack:0
              ~flags:Tcp.th_syn;
            (* ... and the same storm back at the BSD host. *)
            send_raw_tcp cstack ~src:(ip "10.0.0.2") ~sport:(3000 + i)
              ~dst:(ip "10.0.0.1") ~dport:7400 ~seq:(11 * i) ~ack:0
              ~flags:Tcp.th_syn
          done;
          Kclock.sleep_ns 5_000_000;
          done_flag := true);
      Clientos.run tb ~until:(fun () -> !done_flag);
      Alcotest.(check int) "linux: bucket depth 3 lets 3 through, limits 7" 7
        sb.Linux_inet.rst_ratelimited;
      Alcotest.(check int) "bsd: bucket depth 3 lets 3 through, limits 7" 7
        cstack.Bsd_socket.tcp.Tcp.stats.Tcp.rst_ratelimited)

let test_udp_unreachable_rate_limit () =
  with_overload ~icmp_ratelimit:3 (fun () ->
      let tb = Clientos.make_testbed () in
      let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let done_flag = ref false in
      Clientos.spawn tb.Clientos.host_a ~name:"probe" (fun () ->
          Kclock.sleep_ns 1_000_000;
          let s = Bsd_socket.udp_socket sa in
          let msg = Bytes.of_string "anyone home?" in
          for _ = 0 to 9 do
            ignore
              (Bsd_socket.uso_sendto s ~buf:msg ~pos:0 ~len:(Bytes.length msg)
                 ~dst:(ip "10.0.0.2") ~dport:7401)
          done;
          Kclock.sleep_ns 5_000_000;
          done_flag := true);
      Clientos.run tb ~until:(fun () -> !done_flag);
      let udp = sb.Bsd_socket.udp in
      Alcotest.(check int) "all ten probes missed demux" 10 udp.Udp.noport;
      Alcotest.(check int) "three unreachables sent" 3 udp.Udp.unreach_sent;
      Alcotest.(check int) "seven suppressed by the bucket" 7 udp.Udp.icmp_ratelimited)

(* ------------------------------------------------------------------ *)
(* TIME_WAIT cap: with tw_max = 2, five sequential active closes keep at
   most two sockets parked in TIME_WAIT — the oldest are reclaimed, and
   new connections keep working throughout.  Both stacks, client side
   (the active closer owns the TIME_WAIT).                               *)

let tw_cap config () =
  with_overload ~tw_max:2 (fun () ->
      let tb = Clientos.make_testbed () in
      let rounds = 5 in
      let served = ref 0 in
      let client = Endpoint.setup config tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
      let server = Endpoint.setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
      Clientos.spawn server.host ~name:"srv" (fun () ->
          let accept = server.listen ~port:7500 ~backlog:2 in
          for _ = 1 to rounds do
            let c = ok (accept ()) in
            let buf = Bytes.create 16 in
            let rec drain () = if ok (c.recv ~buf ~pos:0 ~len:16) > 0 then drain () in
            drain ();
            c.close ()
          done);
      Clientos.spawn client.host ~name:"cli" (fun () ->
          Kclock.sleep_ns 1_000_000;
          for _ = 1 to rounds do
            let c = ok (client.connect ~dst:(ip "10.0.0.2") ~port:7500) in
            let b = Bytes.of_string "x" in
            ignore (ok (c.send ~buf:b ~pos:0 ~len:1));
            (* Active close: this side owns the TIME_WAIT. *)
            c.close ();
            Kclock.sleep_ns 2_000_000;
            incr served
          done);
      let tw_now, reclaimed =
        match client.stack with
        | Endpoint.Bsd sa ->
            ( (fun () -> sa.Bsd_socket.tcp.Tcp.conns.Conn_table.tw.Tw_queue.live),
              fun () -> sa.Bsd_socket.tcp.Tcp.stats.Tcp.time_wait_reclaimed )
        | Endpoint.Lx sa ->
            ( (fun () -> sa.Linux_inet.conns.Conn_table.tw.Tw_queue.live),
              fun () -> sa.Linux_inet.time_wait_reclaimed )
      in
      Clientos.run tb ~until:(fun () -> !served >= rounds);
      Alcotest.(check int) "all five rounds completed" rounds !served;
      Alcotest.(check bool)
        (Printf.sprintf "at most tw_max sockets in TIME_WAIT (%d)" (tw_now ()))
        true
        (tw_now () <= 2);
      Alcotest.(check bool)
        (Printf.sprintf "the overflow was reclaimed (%d)" (reclaimed ()))
        true
        (reclaimed () >= rounds - 2 - 1))

let test_tw_cap_bsd () = tw_cap Endpoint.Freebsd ()
let test_tw_cap_linux () = tw_cap Endpoint.Linux ()

(* ------------------------------------------------------------------ *)
(* The allocation-failure soak: with the injector firing on 0.1%-1% of
   pooled allocations (in bursts of 2), a bulk transfer on either stack
   still completes byte-exact and no Nomem ever escapes as an exception
   (an escape would kill the spawned thread and the transfer would never
   finish).  The stream harness's sender is backpressure-honest here
   ([retry]): partial sends, Nomem errors and a refused connect are
   retried, the way a caller that receives ENOBUFS has to.               *)

let soak_transfer config ~prob ~burst ~seed ~bytes () =
  with_overload ~alloc_fail_prob:prob ~alloc_fail_burst:burst ~alloc_fail_seed:seed
    (fun () ->
      let r =
        Netbench.stream ~retry:true
          { Workload.table1 with
            sender = config; receiver = config; bytes; recv_chunk = 4096; delay_ns = 1_000_000 }
      in
      Alcotest.(check bool) "transfer completed" true r.completed;
      Alcotest.(check bool) "no byte mismatches" true r.byte_exact;
      Alcotest.(check int) "every byte arrived" bytes r.received;
      Alcotest.(check bool) "the injector was drawing verdicts" true
        (Memfault.draws () > 0);
      Memfault.failures ())

let test_alloc_soak () =
  (* At 0.1% a single 64KB run may legitimately draw no failure from its
     seed; what must hold is that every run is byte-exact and that the
     sweep as a whole injected real failures. *)
  let total =
    List.fold_left
      (fun acc (config, prob, seed) ->
        acc + soak_transfer config ~prob ~burst:2 ~seed ~bytes:(64 * 1024) ())
      0
      [ (Endpoint.Freebsd, 0.001, 42); (Endpoint.Freebsd, 0.01, 43);
        (Endpoint.Linux, 0.001, 44); (Endpoint.Linux, 0.01, 45) ]
  in
  Alcotest.(check bool) "the sweep injected failures" true (total > 0)

(* ------------------------------------------------------------------ *)
(* httpd slow-client guards (the Cost.config.httpd_ bounds, each on when
   positive): a Slowloris that never finishes its headers is cut at the
   deadline, a client that drip-feeds unbounded header bytes is cut at the
   byte bound, and a well-behaved-but-slow client sails through both.    *)

(* The httpd (reactor shape, FreeBSD stack, backlog 16) serving the 1 KB
   index page; its clients run on [s.client]. *)
let httpd ~until =
  Httpbench.serve ~site:Httpbench.index_site ~backlog:16 ~stack:Endpoint.Freebsd
    ~shape:Httpbench.Reactor ~until ()

(* On host A from [at] ns: connect, [f] over the connection, close.  The
   clients write their requests in pieces, so each sets TCP_NODELAY: a
   piece must not wait on the server's delayed ACK of the one before
   (Nagle), or the guards would be timing that wait. *)
let spawn_client (s : Httpbench.served) ~name ~at f =
  Clientos.spawn s.client.Endpoint.host ~name (fun () ->
      Kclock.sleep_ns at;
      let c = ok (Httpbench.connect s) in
      c.Endpoint.nodelay ();
      f c;
      c.Endpoint.close ())

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_httpd_deadline_and_header_bound () =
  with_overload ~httpd_header_deadline_ns:50_000_000 ~httpd_max_header_bytes:256 (fun () ->
      let slow_cut = ref false and over_cut = ref false and legit_200 = ref false in
      let all () = !slow_cut && !over_cut && !legit_200 in
      let s = httpd ~until:all in
      (* Slowloris: the request line and then silence, holding the
         connection open until the server's deadline cuts it. *)
      spawn_client s ~name:"slowloris" ~at:3_000_000 (fun c ->
          Httpbench.send_string c "GET /index.html HTTP/1.0\r\n";
          (* Never send the terminator: block in recv until the deadline
             closes the connection under us. *)
          if Httpbench.drain c = "" then slow_cut := true);
      (* Drip-fed oversized headers: cut at the byte bound long before the
         deadline. *)
      spawn_client s ~name:"overflow" ~at:4_000_000 (fun c ->
          Httpbench.send_string c "GET /index.html HTTP/1.0\r\n";
          for _ = 1 to 40 do
            Httpbench.send_string c "X-Padding: aaaaaaaaaaaaaaaa\r\n"
          done;
          if Httpbench.drain c = "" then over_cut := true);
      (* Slow but legitimate: finishes inside the deadline and must be
         served byte-exact. *)
      spawn_client s ~name:"legit" ~at:5_000_000 (fun c ->
          Httpbench.send_string c "GET /index.html HTTP/1.0\r\n";
          Kclock.sleep_ns 20_000_000;
          Httpbench.send_string c "\r\n";
          if Httpbench.exact_200 (Httpbench.drain c) s.bodies.(0) then legit_200 := true);
      Clientos.run s.testbed ~until:all;
      let st = s.stats () in
      Alcotest.(check bool) "slowloris was cut with no response" true !slow_cut;
      Alcotest.(check bool) "oversized headers were cut with no response" true !over_cut;
      Alcotest.(check bool) "slow-but-legit client got its 200 byte-exact" true !legit_200;
      Alcotest.(check int) "one deadline close" 1 st.Httpd.deadline_closed;
      Alcotest.(check int) "one header overflow" 1 st.Httpd.hdr_overflow;
      Alcotest.(check int) "nothing was shed" 0 st.Httpd.shed_503)

let test_httpd_shed_503 () =
  with_overload ~httpd_shed_hiwat:1 (fun () ->
      let got_200 = ref false and got_503 = ref false in
      let all () = !got_200 && !got_503 in
      let s = httpd ~until:all in
      let sent =
        Test_tcp_behavior.tap_segments s.testbed.Clientos.wire ~sport:Httpbench.server_port
      in
      (* The first client parks itself mid-request, holding [active] at
         the high-water mark... *)
      spawn_client s ~name:"holder" ~at:3_000_000 (fun c ->
          Httpbench.send_string c "GET /index.html HTTP/1.0\r\n";
          Kclock.sleep_ns 30_000_000;
          Httpbench.send_string c "\r\n";
          if starts_with ~prefix:"HTTP/1.0 200" (Httpbench.drain c) then got_200 := true);
      (* ... so the second is answered 503 + Retry-After and closed instead
         of being parked behind it. *)
      spawn_client s ~name:"shed-me" ~at:10_000_000 (fun c ->
          Httpbench.send_string c "GET /index.html HTTP/1.0\r\n\r\n";
          let resp = Httpbench.drain c in
          if
            starts_with ~prefix:"HTTP/1.0 503" resp
            && Httpbench.index_of resp "Retry-After" <> None
          then got_503 := true);
      Clientos.run s.testbed ~until:all;
      let st = s.stats () in
      Alcotest.(check bool) "held connection still served" true !got_200;
      Alcotest.(check bool) "overload answered 503 + Retry-After" true !got_503;
      Alcotest.(check int) "one connection shed" 1 st.Httpd.shed_503;
      (* Born corked, the shed connection sends its reply with the FIN. *)
      Alcotest.(check bool) "the 503 leaves with its FIN" true
        (List.exists
           (fun (flags, len) ->
             len = String.length Httpd.resp_503 && flags land Tcp.th_fin <> 0)
           (sent ()));
      Alcotest.(check int) "no guard closes" 0
        (st.Httpd.deadline_closed + st.Httpd.hdr_overflow))

(* Keep-alive must not reopen the Slowloris hold: a connection dripping
   one header byte every 500 ms keeps resetting the idle reaper, but the
   header deadline (1 s here) still cuts it because no request was ever
   framed — long before the 4096-byte bound would. *)
let test_httpd_keepalive_drip_deadline () =
  Cost.with_config { Cost.config with Cost.http_keepalive = true } (fun () ->
      with_overload ~httpd_header_deadline_ns:1_000_000_000 ~httpd_max_header_bytes:4096
        (fun () ->
          let at_deadline = ref (-1) and finished = ref false in
          let until () = !finished && !at_deadline >= 0 in
          let s = httpd ~until in
          let deadline_closed () = (s.stats ()).Httpd.deadline_closed in
          let chost = s.client.Endpoint.host in
          (* Sample the count just past the deadline. *)
          Clientos.spawn chost ~name:"watch" (fun () ->
              Kclock.sleep_ns (3_000_000 + 1_200_000_000);
              at_deadline := deadline_closed ());
          Clientos.spawn chost ~name:"dripper" (fun () ->
              Kclock.sleep_ns 3_000_000;
              let c = ok (Httpbench.connect s) in
              c.Endpoint.nodelay ();
              (* Eight drips (4 s) unless cut first. *)
              String.iter
                (fun ch ->
                  if deadline_closed () = 0 then begin
                    Httpbench.send_string c (String.make 1 ch);
                    Kclock.sleep_ns 500_000_000
                  end)
                "GET /ind";
              c.close ();
              finished := true);
          Clientos.run s.testbed ~until;
          let st = s.stats () in
          Alcotest.(check int) "cut by the header deadline within 1.2 s" 1 !at_deadline;
          Alcotest.(check int) "one deadline close" 1 st.Httpd.deadline_closed;
          Alcotest.(check int) "not an idle close" 0 st.Httpd.idle_closed;
          Alcotest.(check int) "not a header overflow" 0 st.Httpd.hdr_overflow))

(* The guards are independent bounds, each on when positive and off at 0.
   The header bound alone cuts a dripped over-long header and arms no
   deadline: a connection silent for 100 ms is served.  The deadline alone
   cuts a silent connection at 50 ms and bounds no header: 6 KB of it is
   served.  A run stops at 3 s of virtual time, so a guard that never
   fires fails its checks instead of hanging. *)
let test_httpd_guards_independent () =
  let get = "GET /index.html HTTP/1.0\r\n" in
  let pad n = String.concat "" (List.init n (fun _ -> "X-Padding: aaaaaaaaaaaaaaaa\r\n")) in
  let run ~until clients =
    let s = httpd ~until in
    clients s;
    let world = s.testbed.Clientos.world in
    Clientos.run s.testbed ~until:(fun () -> until () || World.now world > 3_000_000_000);
    s.stats ()
  in
  let served (s : Httpbench.served) c = Httpbench.exact_200 (Httpbench.drain c) s.bodies.(0) in
  let over_cut = ref false and late_200 = ref false in
  let st =
    with_overload ~httpd_max_header_bytes:256 (fun () ->
        run ~until:(fun () -> !over_cut && !late_200) (fun s ->
            spawn_client s ~name:"drip" ~at:3_000_000 (fun c ->
                Httpbench.send_string c get;
                for _ = 1 to 40 do
                  Kclock.sleep_ns 1_000_000;
                  Httpbench.send_string c (pad 1)
                done;
                over_cut := Httpbench.drain c = "");
            spawn_client s ~name:"late" ~at:4_000_000 (fun c ->
                Kclock.sleep_ns 100_000_000;
                Httpbench.send_string c (get ^ "\r\n");
                late_200 := served s c)))
  in
  Alcotest.(check bool) "bound alone: the dripped header was cut" true !over_cut;
  Alcotest.(check int) "bound alone: one header overflow" 1 st.Httpd.hdr_overflow;
  Alcotest.(check bool) "bound alone: the silent connection was served" true !late_200;
  Alcotest.(check int) "bound alone: no deadline close" 0 st.Httpd.deadline_closed;
  let silent_cut_ns = ref 0 and long_200 = ref false in
  let st =
    with_overload ~httpd_header_deadline_ns:50_000_000 (fun () ->
        run ~until:(fun () -> !silent_cut_ns > 0 && !long_200) (fun s ->
            spawn_client s ~name:"silent" ~at:3_000_000 (fun c ->
                let t0 = Kclock.now_ns () in
                if Httpbench.drain c = "" then silent_cut_ns := Kclock.now_ns () - t0);
            spawn_client s ~name:"long" ~at:4_000_000 (fun c ->
                Httpbench.send_string c (get ^ pad 200 ^ "\r\n");
                long_200 := served s c)))
  in
  Alcotest.(check bool) "deadline alone: the silent connection was cut at it" true
    (!silent_cut_ns >= 50_000_000);
  Alcotest.(check int) "deadline alone: one deadline close" 1 st.Httpd.deadline_closed;
  Alcotest.(check bool) "deadline alone: the 6 KB header was served" true !long_200;
  Alcotest.(check int) "deadline alone: no header overflow" 0 st.Httpd.hdr_overflow

(* ------------------------------------------------------------------ *)
(* Flags off (the seed defaults): a live round trip on both stacks moves
   none of the new counters and draws nothing from the injector — the
   committed calibrated benches rest on this.                            *)

let test_flags_off_counters_untouched () =
  let tb = Clientos.make_testbed () in
  let client = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let server = Endpoint.setup Endpoint.Linux tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let served = ref false and echoed = ref false in
  Clientos.spawn server.host ~name:"srv" (fun () ->
      let c = ok (server.listen ~port:7700 ~backlog:2 ()) in
      let buf = Bytes.create 64 in
      let n = ok (c.recv ~buf ~pos:0 ~len:64) in
      ignore (ok (c.send ~buf ~pos:0 ~len:n));
      c.close ();
      served := true);
  Clientos.spawn client.host ~name:"cli" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let c = ok (client.connect ~dst:(ip "10.0.0.2") ~port:7700) in
      let msg = Bytes.of_string "plain" in
      ignore (ok (c.send ~buf:msg ~pos:0 ~len:5));
      let buf = Bytes.create 64 in
      (match c.recv ~buf ~pos:0 ~len:64 with
      | Ok n when n > 0 -> echoed := true
      | _ -> ());
      c.close ());
  Clientos.run tb ~until:(fun () -> !served && !echoed);
  Alcotest.(check bool) "round trip completed" true (!served && !echoed);
  (* Each stack's overload counters, every one of which must read 0. *)
  let untouched (ep : Endpoint.t) =
    match ep.stack with
    | Endpoint.Bsd sa ->
        let st = sa.Bsd_socket.tcp.Tcp.stats in
        let sc = sa.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
        [ ( "bsd: no syncache activity",
            sc.Syncache.added + sc.Syncache.evicted + sc.Syncache.completed );
          ("bsd: no cookie activity", sc.Syncache.validated + sc.Syncache.rejected);
          ("bsd: no TIME_WAIT reclaim", st.Tcp.time_wait_reclaimed);
          ("bsd: no nomem drops", st.Tcp.nomem_drops);
          ("bsd: no rate limiting", st.Tcp.rst_ratelimited);
          ("bsd udp: no rate limiting", sa.Bsd_socket.udp.Udp.icmp_ratelimited) ]
    | Endpoint.Lx sb ->
        let sc = sb.Linux_inet.syncache.Syncache.stats in
        [ ( "linux: no syncache activity",
            sc.Syncache.added + sc.Syncache.evicted + sc.Syncache.completed );
          ("linux: no cookie activity", sc.Syncache.validated + sc.Syncache.rejected);
          ("linux: no TIME_WAIT reclaim", sb.Linux_inet.time_wait_reclaimed);
          ("linux: no nomem drops", sb.Linux_inet.nomem_drops);
          ("linux: no rate limiting", sb.Linux_inet.rst_ratelimited) ]
  in
  List.iter (fun (name, n) -> Alcotest.(check int) name 0 n) (untouched client @ untouched server);
  Alcotest.(check int) "injector: no draws, no failures" 0
    (Memfault.draws () + Memfault.failures ())

let suite =
  [ QCheck_alcotest.to_alcotest prop_cookie_roundtrip;
    Alcotest.test_case "syncache: bounded, oldest-first, freed on listener close"
      `Quick test_syncache_eviction_and_listener_close;
    Alcotest.test_case "10x SYN flood: every legit client served (bsd)" `Quick
      test_flood_then_legit_bsd;
    Alcotest.test_case "10x SYN flood (linux): every legit client served" `Quick
      test_flood_then_legit_linux;
    Alcotest.test_case "SYN cookie completes statelessly, bogus ACK rejected (bsd)"
      `Quick test_cookie_completion_bsd;
    Alcotest.test_case "SYN cookie (linux) completes statelessly, bogus ACK rejected"
      `Quick test_cookie_completion_linux;
    Alcotest.test_case "RST generation is token-bucket limited, both stacks" `Quick
      test_rst_rate_limit_both_stacks;
    Alcotest.test_case "ICMP port unreachables are token-bucket limited" `Quick
      test_udp_unreachable_rate_limit;
    Alcotest.test_case "TIME_WAIT cap reclaims oldest-first (bsd)" `Quick
      test_tw_cap_bsd;
    Alcotest.test_case "TIME_WAIT cap (linux) reclaims oldest-first" `Quick
      test_tw_cap_linux;
    Alcotest.test_case "alloc-failure soak: byte-exact at 0.1%-1%, both stacks"
      `Quick test_alloc_soak;
    Alcotest.test_case "httpd guard: deadline and header bound cut attackers only"
      `Quick test_httpd_deadline_and_header_bound;
    Alcotest.test_case "httpd guard: 503 + Retry-After above the high-water mark"
      `Quick test_httpd_shed_503;
    Alcotest.test_case "httpd guard: keep-alive drip still cut at the header deadline"
      `Quick test_httpd_keepalive_drip_deadline;
    Alcotest.test_case "httpd guards are independent: each bound works alone" `Quick
      test_httpd_guards_independent;
    Alcotest.test_case "flags off: new counters and injector untouched" `Quick
      test_flags_off_counters_untouched;
    Alcotest.test_case "syncache: an option-less SYN gets the stack's own MSS" `Quick
      test_syncache_mss_without_option ]
