(* Overload survival: SYN-flood defense (per-listener syncache + stateless
   SYN cookies), memory-pressure backpressure (the deterministic
   allocation-failure injector and the Nomem audit behind it), the
   TIME_WAIT cap, error-response rate limiting, and the httpd's
   slow-client guards.  Everything is default-off, so the last test pins
   the flags-off world untouched and the rest turn one knob at a time. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let fresh_testbed ?latency_ns () =
  Clientos.reset_globals ();
  Clientos.make_testbed ~models:("3c905", "tulip") ?latency_ns ()

(* Set the overload knobs for [f], restoring the seed defaults after, and
   re-seed the allocation injector on both edges so no test leaks failure
   state into its neighbours.  Stacks built inside [f] see the knobs at
   creation time, which matters for the token buckets (they start full). *)
let with_overload ?(syn_defense = false) ?(syncache_size = 64) ?(tw_max = 0)
    ?(icmp_ratelimit = 0) ?(alloc_fail_prob = 0.0) ?(alloc_fail_seed = 1)
    ?(alloc_fail_burst = 1) ?(httpd_guard = false)
    ?(httpd_header_deadline_ns = 1_000_000_000) ?(httpd_max_header_bytes = 4096)
    ?(httpd_shed_hiwat = 0) f =
  Fun.protect ~finally:Memfault.reset (fun () ->
      Cost.with_config
        { Cost.config with
          Cost.syn_defense; syncache_size; tw_max; icmp_ratelimit; alloc_fail_prob;
          alloc_fail_seed; alloc_fail_burst; httpd_guard; httpd_header_deadline_ns;
          httpd_max_header_bytes; httpd_shed_hiwat }
        (fun () ->
          Memfault.reset ();
          f ()))

(* Craft one option-less TCP segment and push it out through [cstack]'s IP
   layer with an arbitrary (spoofable) source address — the attacker's
   view of the wire. *)
let send_raw_tcp cstack ~src ~sport ~dst ~dport ~seq ~ack ~flags =
  Ip.output cstack.Bsd_socket.ip ~proto:Ip.proto_tcp ~src ~dst
    (Tcp.raw_segment ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win:8192 ~mss:None)

(* ------------------------------------------------------------------ *)
(* SYN cookies: the ISS round-trips through check_cookie on both stacks
   and decodes to the right MSS class; a perturbed 4-tuple rejects.      *)

let cookie_rigs =
  lazy
    (let tb = fresh_testbed () in
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
  with_overload ~syn_defense:true ~syncache_size:4 (fun () ->
      let tb = fresh_testbed () in
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
          for i = 1 to 6 do
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
          for i = 1 to 6 do
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
      (* Newest-first list capped at 4: the two oldest (1, 2) are gone. *)
      Alcotest.(check (list int)) "bsd: oldest evicted first" [ 6; 5; 4; 3 ] !bsd_srcs;
      Alcotest.(check (list int)) "linux: oldest evicted first" [ 6; 5; 4; 3 ] !lx_srcs;
      let st = sa.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
      let lt = sb.Linux_inet.syncache.Syncache.stats in
      Alcotest.(check int) "bsd: all six cached" 6 st.Syncache.added;
      Alcotest.(check int) "bsd: close freed the cache" 0 !bsd_after_close;
      Alcotest.(check int) "bsd: evictions = 2 overflow + 4 at close" 6
        st.Syncache.evicted;
      Alcotest.(check int) "linux: all six cached" 6 lt.Syncache.added;
      Alcotest.(check int) "linux: close freed the cache" 0 !lx_after_close;
      Alcotest.(check int) "linux: evictions = 2 overflow + 4 at close" 6
        lt.Syncache.evicted)

(* ------------------------------------------------------------------ *)
(* A SYN with no MSS option gets the same MSS from a defended listener's
   syncache as from an undefended listener's child, on both stacks — the
   stack's own tcp_mss, here 9000 (the defended BSD path used to fall
   back to a constant 1460).                                             *)

let test_syncache_mss_without_option () =
  Cost.with_config { Cost.config with Cost.tcp_mss = 9000 } (fun () ->
      let tb = fresh_testbed () in
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
              (List.find (fun s -> s.Linux_inet.lport = port && s != ls) sb.Linux_inet.socks)
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

let flood_then_legit ~linux () =
  with_overload ~syn_defense:true ~syncache_size:16 (fun () ->
      let tb = fresh_testbed () in
      let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let served = ref 0 and echoed = ref 0 and finished = ref 0 in
      let legit = 4 and flood = 40 in
      let counters =
        if linux then begin
          let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
          Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
              let ls = Linux_inet.socket sb in
              Linux_inet.bind sb ls ~port:7200;
              Linux_inet.listen sb ls ~backlog:4;
              for _ = 1 to legit do
                let c = ok (Linux_inet.accept sb ls) in
                let buf = Bytes.create 64 in
                let n = ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:64) in
                ignore (ok (Linux_inet.send sb c ~buf ~pos:0 ~len:n));
                Linux_inet.close sb c;
                incr served
              done)
            ;
          let sc = sb.Linux_inet.syncache.Syncache.stats in
          fun () ->
            ( sc.Syncache.added,
              sc.Syncache.completed + sc.Syncache.validated,
              sb.Linux_inet.listen_overflow )
        end
        else begin
          let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
          Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
              let ls = Bsd_socket.tcp_socket sb in
              ok (Bsd_socket.so_bind ls ~port:7200);
              ok (Bsd_socket.so_listen ls ~backlog:4);
              for _ = 1 to legit do
                let c = ok (Bsd_socket.so_accept ls) in
                let buf = Bytes.create 64 in
                let n = ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:64) in
                ignore (ok (Bsd_socket.so_send c ~buf ~pos:0 ~len:n));
                ignore (Bsd_socket.so_close c);
                incr served
              done);
          let st = sb.Bsd_socket.tcp.Tcp.stats in
          let sc = sb.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
          fun () ->
            ( sc.Syncache.added,
              sc.Syncache.completed + sc.Syncache.validated,
              st.Tcp.listen_overflow )
        end
      in
      (* The flood: 10x the legitimate load, every SYN from a different
         spoofed address, so the SYN-ACKs go to hosts that do not exist. *)
      Clientos.spawn tb.Clientos.host_a ~name:"flood" (fun () ->
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
        Clientos.spawn tb.Clientos.host_a ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 500_000));
            let s = Bsd_socket.tcp_socket cstack in
            ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7200);
            let msg = Bytes.of_string (Printf.sprintf "ping-%d" i) in
            ignore (ok (Bsd_socket.so_send s ~buf:msg ~pos:0 ~len:(Bytes.length msg)));
            let buf = Bytes.create 64 in
            (match Bsd_socket.so_recv s ~buf ~pos:0 ~len:64 with
            | Ok n when n > 0 && Bytes.sub buf 0 n = Bytes.sub msg 0 n -> incr echoed
            | _ -> ());
            ignore (Bsd_socket.so_close s);
            incr finished)
      done;
      Clientos.run tb ~until:(fun () -> !finished >= legit);
      let added, completed, overflow = counters () in
      Alcotest.(check int) "every legitimate client served" legit !served;
      Alcotest.(check int) "every echo byte-exact" legit !echoed;
      Alcotest.(check bool)
        (Printf.sprintf "flood landed in the syncache (%d added)" added)
        true
        (added >= flood);
      Alcotest.(check bool) "legit handshakes completed from cache or cookie" true
        (completed >= legit);
      Alcotest.(check int) "embryonic flood never overflowed the backlog" 0 overflow)

let test_flood_then_legit_bsd () = flood_then_legit ~linux:false ()
let test_flood_then_legit_linux () = flood_then_legit ~linux:true ()

(* ------------------------------------------------------------------ *)
(* Stateless completion: an ACK whose cookie checks out builds the
   connection with no cached state at all; a bogus ACK is rejected.      *)

let cookie_completion ~linux () =
  with_overload ~syn_defense:true (fun () ->
      let tb = fresh_testbed () in
      let cstack = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let accepted_port = ref 0 and done_flag = ref false in
      let raddr = ip "10.0.0.77" and rport = 5555 and lport = 7300 in
      let validated, rejected, cookie_of =
        if linux then begin
          let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
          Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
              let ls = Linux_inet.socket sb in
              Linux_inet.bind sb ls ~port:lport;
              Linux_inet.listen sb ls ~backlog:4;
              let c = ok (Linux_inet.accept sb ls) in
              accepted_port := c.Linux_inet.rport;
              done_flag := true);
          let sc = sb.Linux_inet.syncache in
          ( (fun () -> sc.Syncache.stats.Syncache.validated),
            (fun () -> sc.Syncache.stats.Syncache.rejected),
            fun () -> Syncache.cookie sc ~raddr ~rport ~lport ~mss:1460 )
        end
        else begin
          let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
          Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
              let ls = Bsd_socket.tcp_socket sb in
              ok (Bsd_socket.so_bind ls ~port:lport);
              ok (Bsd_socket.so_listen ls ~backlog:4);
              let c = ok (Bsd_socket.so_accept ls) in
              accepted_port := c.Bsd_socket.pcb.Tcp.rport;
              done_flag := true);
          let sc = sb.Bsd_socket.tcp.Tcp.syncache in
          ( (fun () -> sc.Syncache.stats.Syncache.validated),
            (fun () -> sc.Syncache.stats.Syncache.rejected),
            fun () -> Syncache.cookie sc ~raddr ~rport ~lport ~mss:1460 )
        end
      in
      (* The cookie the server would have answered with, recomputed from
         its secret — then echoed (+1) in a bare ACK, as if the SYN-ACK
         had been received by a client whose cache entry was long evicted. *)
      Clientos.spawn tb.Clientos.host_a ~name:"ack" (fun () ->
          Kclock.sleep_ns 1_000_000;
          let iss = cookie_of () in
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
      Alcotest.(check int) "exactly one cookie validated" 1 (validated ());
      Alcotest.(check bool) "the bogus ACK was rejected" true (rejected () >= 1))

let test_cookie_completion_bsd () = cookie_completion ~linux:false ()
let test_cookie_completion_linux () = cookie_completion ~linux:true ()

(* ------------------------------------------------------------------ *)
(* Error-response rate limiting: RSTs answering unclaimed segments and
   ICMP port unreachables both come out of a token bucket of depth
   [icmp_ratelimit], so a probe storm cannot amplify.                    *)

let test_rst_rate_limit_both_stacks () =
  with_overload ~icmp_ratelimit:3 (fun () ->
      let tb = fresh_testbed () in
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
      let tb = fresh_testbed () in
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

let tw_cap ~linux () =
  with_overload ~tw_max:2 (fun () ->
      let tb = fresh_testbed () in
      let rounds = 5 in
      let served = ref 0 in
      let tw_now, reclaimed =
        if linux then begin
          let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
          let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
          Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
              let ls = Linux_inet.socket sb in
              Linux_inet.bind sb ls ~port:7500;
              Linux_inet.listen sb ls ~backlog:2;
              for _ = 1 to rounds do
                let c = ok (Linux_inet.accept sb ls) in
                let buf = Bytes.create 16 in
                let rec drain () =
                  if ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:16) > 0 then drain ()
                in
                drain ();
                Linux_inet.close sb c
              done);
          Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
              Kclock.sleep_ns 1_000_000;
              for _ = 1 to rounds do
                let s = Linux_inet.socket sa in
                ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:7500);
                let b = Bytes.of_string "x" in
                ignore (ok (Linux_inet.send sa s ~buf:b ~pos:0 ~len:1));
                (* Active close: this side owns the TIME_WAIT. *)
                Linux_inet.close sa s;
                Kclock.sleep_ns 2_000_000;
                incr served
              done);
          ( (fun () -> sa.Linux_inet.tw.Tw_queue.live),
            fun () -> sa.Linux_inet.time_wait_reclaimed )
        end
        else begin
          let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
          let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
          Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
              let ls = Bsd_socket.tcp_socket sb in
              ok (Bsd_socket.so_bind ls ~port:7500);
              ok (Bsd_socket.so_listen ls ~backlog:2);
              for _ = 1 to rounds do
                let c = ok (Bsd_socket.so_accept ls) in
                let buf = Bytes.create 16 in
                let rec drain () =
                  if ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:16) > 0 then drain ()
                in
                drain ();
                ignore (Bsd_socket.so_close c)
              done);
          Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
              Kclock.sleep_ns 1_000_000;
              for _ = 1 to rounds do
                let s = Bsd_socket.tcp_socket sa in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7500);
                let b = Bytes.of_string "x" in
                ignore (ok (Bsd_socket.so_send s ~buf:b ~pos:0 ~len:1));
                ignore (Bsd_socket.so_close s);
                Kclock.sleep_ns 2_000_000;
                incr served
              done);
          ( (fun () -> sa.Bsd_socket.tcp.Tcp.tw.Tw_queue.live),
            fun () -> sa.Bsd_socket.tcp.Tcp.stats.Tcp.time_wait_reclaimed )
        end
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

let test_tw_cap_bsd () = tw_cap ~linux:false ()
let test_tw_cap_linux () = tw_cap ~linux:true ()

(* ------------------------------------------------------------------ *)
(* The allocation-failure soak: with the injector firing on 0.1%-1% of
   pooled allocations (in bursts of 2), a bulk transfer on either stack
   still completes byte-exact and no Nomem ever escapes as an exception
   (an escape would kill the spawned thread and the transfer would never
   finish).  The client code here is deliberately backpressure-honest:
   partial sends and Nomem errors are retried, the way a caller that
   receives ENOBUFS has to.                                              *)

let pattern i = (i * 131) lxor (i lsr 8) land 0xff

let soak_transfer ~linux ~prob ~burst ~seed ~bytes () =
  with_overload ~alloc_fail_prob:prob ~alloc_fail_burst:burst ~alloc_fail_seed:seed
    (fun () ->
      let tb = fresh_testbed () in
      let mism = ref 0 and received = ref 0 and done_flag = ref false in
      let send_all send buf len =
        let rec go off =
          if off < len then
            match send ~buf ~pos:off ~len:(len - off) with
            | Ok n when n > 0 -> go (off + n)
            | Ok _ -> Kclock.sleep_ns 1_000_000; go off
            | Error Error.Nomem -> Kclock.sleep_ns 5_000_000; go off
            | Error e -> Alcotest.failf "send failed: %s" (Error.to_string e)
        in
        go 0
      in
      let fill block sent n =
        for i = 0 to n - 1 do
          Bytes.set block i (Char.chr (pattern (sent + i)))
        done
      in
      if linux then begin
        let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
        let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
        Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
            let ls = Linux_inet.socket sb in
            Linux_inet.bind sb ls ~port:7600;
            Linux_inet.listen sb ls ~backlog:2;
            let c = ok (Linux_inet.accept sb ls) in
            let buf = Bytes.create 4096 in
            let rec loop () =
              match ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:4096) with
              | 0 -> Linux_inet.close sb c; done_flag := true
              | n ->
                  for i = 0 to n - 1 do
                    if Char.code (Bytes.get buf i) <> pattern (!received + i) then
                      incr mism
                  done;
                  received := !received + n;
                  loop ()
            in
            loop ());
        Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
            Kclock.sleep_ns 1_000_000;
            (* connect can legitimately refuse with Nomem under injection:
               retry with a fresh socket, as a real caller would. *)
            let rec connect tries =
              let s = Linux_inet.socket sa in
              match Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:7600 with
              | Ok () -> s
              | Error _ when tries < 20 -> Kclock.sleep_ns 10_000_000; connect (tries + 1)
              | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
            in
            let s = connect 0 in
            let block = Bytes.create 4096 in
            let rec push sent =
              if sent < bytes then begin
                let n = min 4096 (bytes - sent) in
                fill block sent n;
                send_all (fun ~buf ~pos ~len -> Linux_inet.send sa s ~buf ~pos ~len)
                  block n;
                push (sent + n)
              end
            in
            push 0;
            Linux_inet.close sa s)
      end
      else begin
        let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
        let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
        Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
            let ls = Bsd_socket.tcp_socket sb in
            ok (Bsd_socket.so_bind ls ~port:7600);
            ok (Bsd_socket.so_listen ls ~backlog:2);
            let c = ok (Bsd_socket.so_accept ls) in
            let buf = Bytes.create 4096 in
            let rec loop () =
              match ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:4096) with
              | 0 -> ignore (Bsd_socket.so_close c); done_flag := true
              | n ->
                  for i = 0 to n - 1 do
                    if Char.code (Bytes.get buf i) <> pattern (!received + i) then
                      incr mism
                  done;
                  received := !received + n;
                  loop ()
            in
            loop ());
        Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
            Kclock.sleep_ns 1_000_000;
            let rec connect tries =
              let s = Bsd_socket.tcp_socket sa in
              match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7600 with
              | Ok () -> s
              | Error _ when tries < 20 -> Kclock.sleep_ns 10_000_000; connect (tries + 1)
              | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
            in
            let s = connect 0 in
            let block = Bytes.create 4096 in
            let rec push sent =
              if sent < bytes then begin
                let n = min 4096 (bytes - sent) in
                fill block sent n;
                send_all (fun ~buf ~pos ~len -> Bsd_socket.so_send s ~buf ~pos ~len)
                  block n;
                push (sent + n)
              end
            in
            push 0;
            ignore (Bsd_socket.so_close s))
      end;
      Clientos.run tb ~until:(fun () -> !done_flag);
      Alcotest.(check bool) "transfer completed" true !done_flag;
      Alcotest.(check int) "no byte mismatches" 0 !mism;
      Alcotest.(check int) "every byte arrived" bytes !received;
      Alcotest.(check bool) "the injector was drawing verdicts" true
        (Memfault.draws () > 0);
      Memfault.failures ())

let test_alloc_soak () =
  (* At 0.1% a single 64KB run may legitimately draw no failure from its
     seed; what must hold is that every run is byte-exact and that the
     sweep as a whole injected real failures. *)
  let total =
    List.fold_left
      (fun acc (linux, prob, seed) ->
        acc + soak_transfer ~linux ~prob ~burst:2 ~seed ~bytes:(64 * 1024) ())
      0
      [ (false, 0.001, 42); (false, 0.01, 43); (true, 0.001, 44); (true, 0.01, 45) ]
  in
  Alcotest.(check bool) "the sweep injected failures" true (total > 0)

(* ------------------------------------------------------------------ *)
(* httpd slow-client guards (Cost.config.httpd_guard): a Slowloris that
   never finishes its headers is cut at the deadline, a client that
   drip-feeds unbounded header bytes is cut at the byte bound, and a
   well-behaved-but-slow client sails through both guards.               *)

let file_bytes = 1024

let make_root () =
  let dev = Mem_blkio.make ~bytes:(1 lsl 20) () in
  let root = ok (Fs_glue.newfs dev) in
  let f = ok (root.Io_if.d_create "index.html") in
  let body = Bytes.init file_bytes (fun i -> Char.chr (pattern i)) in
  let rec push off =
    if off < file_bytes then
      match f.Io_if.f_write ~buf:body ~pos:off ~offset:off ~amount:(file_bytes - off) with
      | Ok n -> push (off + n)
      | Error e -> Alcotest.failf "root write: %s" (Error.to_string e)
  in
  push 0;
  (root, Bytes.to_string body)

let httpd_rig ?(server_stats = ref None) ~until f =
  let tb = fresh_testbed () in
  let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
  let root, expect = make_root () in
  let stack = Clientos.freebsd_host server ~ip:(ip "10.0.0.2") ~mask in
  let sock = Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack) in
  let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
  let reactor = Reactor.create () in
  Clientos.spawn server ~name:"httpd" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 80 });
      ok (sock.Io_if.so_listen ~backlog:16);
      server_stats := Some (Httpd.serve_reactor ~reactor ~root ~sock ());
      Reactor.run reactor ~until);
  f tb chost cstack expect;
  Clientos.run tb ~until;
  Option.get !server_stats

(* Send [frag] fully over a blocking BSD socket. *)
let push_str s frag =
  let b = Bytes.of_string frag in
  let rec go off =
    if off < Bytes.length b then
      match Bsd_socket.so_send s ~buf:b ~pos:off ~len:(Bytes.length b - off) with
      | Ok n -> go (off + n)
      | Error _ -> ()
  in
  go 0

let drain_str s =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 2048 in
  let rec go () =
    match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
    | Ok 0 | Error _ -> ()
    | Ok n -> Buffer.add_subbytes acc buf 0 n; go ()
  in
  go ();
  Buffer.contents acc

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_httpd_deadline_and_header_bound () =
  with_overload ~httpd_guard:true ~httpd_header_deadline_ns:50_000_000
    ~httpd_max_header_bytes:256 (fun () ->
      let slow_cut = ref false and over_cut = ref false and legit_200 = ref false in
      let all () = !slow_cut && !over_cut && !legit_200 in
      let st =
        httpd_rig ~until:all (fun _tb chost cstack expect ->
            (* Slowloris: the request line and then silence, holding the
               connection open until the server's deadline cuts it. *)
            Clientos.spawn chost ~name:"slowloris" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                push_str s "GET /index.html HTTP/1.0\r\n";
                (* Never send the terminator: block in recv until the
                   deadline closes the connection under us. *)
                let got = drain_str s in
                if got = "" then slow_cut := true;
                ignore (Bsd_socket.so_close s));
            (* Drip-fed oversized headers: cut at the byte bound long
               before the deadline. *)
            Clientos.spawn chost ~name:"overflow" (fun () ->
                Kclock.sleep_ns 4_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                push_str s "GET /index.html HTTP/1.0\r\n";
                for _ = 1 to 40 do
                  push_str s "X-Padding: aaaaaaaaaaaaaaaa\r\n"
                done;
                let got = drain_str s in
                if got = "" then over_cut := true;
                ignore (Bsd_socket.so_close s));
            (* Slow but legitimate: finishes inside the deadline and must
               be served byte-exact. *)
            Clientos.spawn chost ~name:"legit" (fun () ->
                Kclock.sleep_ns 5_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                push_str s "GET /index.html HTTP/1.0\r\n";
                Kclock.sleep_ns 20_000_000;
                push_str s "\r\n";
                let resp = drain_str s in
                (match String.index_opt resp '\r' with _ -> ());
                let body_ok =
                  match
                    let rec find i =
                      if i + 4 > String.length resp then None
                      else if String.sub resp i 4 = "\r\n\r\n" then Some (i + 4)
                      else find (i + 1)
                    in
                    find 0
                  with
                  | Some i -> String.sub resp i (String.length resp - i) = expect
                  | None -> false
                in
                if starts_with ~prefix:"HTTP/1.0 200" resp && body_ok then
                  legit_200 := true;
                ignore (Bsd_socket.so_close s)))
      in
      Alcotest.(check bool) "slowloris was cut with no response" true !slow_cut;
      Alcotest.(check bool) "oversized headers were cut with no response" true !over_cut;
      Alcotest.(check bool) "slow-but-legit client got its 200 byte-exact" true !legit_200;
      Alcotest.(check int) "one deadline close" 1 st.Httpd.deadline_closed;
      Alcotest.(check int) "one header overflow" 1 st.Httpd.hdr_overflow;
      Alcotest.(check int) "nothing was shed" 0 st.Httpd.shed_503)

let test_httpd_shed_503 () =
  with_overload ~httpd_guard:true ~httpd_shed_hiwat:1 (fun () ->
      let got_200 = ref false and got_503 = ref false in
      let all () = !got_200 && !got_503 in
      let st =
        httpd_rig ~until:all (fun _tb chost cstack _expect ->
            (* The first client parks itself mid-request, holding [active]
               at the high-water mark... *)
            Clientos.spawn chost ~name:"holder" (fun () ->
                Kclock.sleep_ns 3_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                push_str s "GET /index.html HTTP/1.0\r\n";
                Kclock.sleep_ns 30_000_000;
                push_str s "\r\n";
                let resp = drain_str s in
                if starts_with ~prefix:"HTTP/1.0 200" resp then got_200 := true;
                ignore (Bsd_socket.so_close s));
            (* ... so the second is answered 503 + Retry-After and closed
               instead of being parked behind it. *)
            Clientos.spawn chost ~name:"shed-me" (fun () ->
                Kclock.sleep_ns 10_000_000;
                let s = Bsd_socket.tcp_socket cstack in
                ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                push_str s "GET /index.html HTTP/1.0\r\n\r\n";
                let resp = drain_str s in
                if starts_with ~prefix:"HTTP/1.0 503" resp && contains resp "Retry-After"
                then got_503 := true;
                ignore (Bsd_socket.so_close s)))
      in
      Alcotest.(check bool) "held connection still served" true !got_200;
      Alcotest.(check bool) "overload answered 503 + Retry-After" true !got_503;
      Alcotest.(check int) "one connection shed" 1 st.Httpd.shed_503;
      Alcotest.(check int) "no guard closes" 0
        (st.Httpd.deadline_closed + st.Httpd.hdr_overflow))

(* Keep-alive must not reopen the Slowloris hold: a connection dripping
   one header byte every 500 ms keeps resetting the idle reaper, but the
   header deadline (1 s here) still cuts it because no request was ever
   framed — long before the 4096-byte bound would. *)
let test_httpd_keepalive_drip_deadline () =
  Cost.with_config { Cost.config with Cost.http_keepalive = true } (fun () ->
      with_overload ~httpd_guard:true (fun () ->
          let server_stats = ref None in
          let deadline_closed () =
            match !server_stats with Some st -> st.Httpd.deadline_closed | None -> 0
          in
          let at_deadline = ref (-1) and finished = ref false in
          let st =
            httpd_rig ~server_stats ~until:(fun () -> !finished && !at_deadline >= 0)
              (fun _tb chost cstack _expect ->
                (* Sample the count just past the deadline. *)
                Clientos.spawn chost ~name:"watch" (fun () ->
                    Kclock.sleep_ns (3_000_000 + 1_200_000_000);
                    at_deadline := deadline_closed ());
                Clientos.spawn chost ~name:"dripper" (fun () ->
                    Kclock.sleep_ns 3_000_000;
                    let s = Bsd_socket.tcp_socket cstack in
                    ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80);
                    (* Eight drips (4 s) unless cut first. *)
                    String.iter
                      (fun ch ->
                        if deadline_closed () = 0 then begin
                          push_str s (String.make 1 ch);
                          Kclock.sleep_ns 500_000_000
                        end)
                      "GET /ind";
                    ignore (Bsd_socket.so_close s);
                    finished := true))
          in
          Alcotest.(check int) "cut by the header deadline within 1.2 s" 1 !at_deadline;
          Alcotest.(check int) "one deadline close" 1 st.Httpd.deadline_closed;
          Alcotest.(check int) "not an idle close" 0 st.Httpd.idle_closed;
          Alcotest.(check int) "not a header overflow" 0 st.Httpd.hdr_overflow))

(* ------------------------------------------------------------------ *)
(* Flags off (the seed defaults): a live round trip on both stacks moves
   none of the new counters and draws nothing from the injector — the
   committed calibrated benches rest on this.                            *)

let test_flags_off_counters_untouched () =
  Memfault.reset ();
  let tb = fresh_testbed () in
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let served = ref false and echoed = ref false in
  Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
      let ls = Linux_inet.socket sb in
      Linux_inet.bind sb ls ~port:7700;
      Linux_inet.listen sb ls ~backlog:2;
      let c = ok (Linux_inet.accept sb ls) in
      let buf = Bytes.create 64 in
      let n = ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:64) in
      ignore (ok (Linux_inet.send sb c ~buf ~pos:0 ~len:n));
      Linux_inet.close sb c;
      served := true);
  Clientos.spawn tb.Clientos.host_a ~name:"cli" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7700);
      let msg = Bytes.of_string "plain" in
      ignore (ok (Bsd_socket.so_send s ~buf:msg ~pos:0 ~len:5));
      let buf = Bytes.create 64 in
      (match Bsd_socket.so_recv s ~buf ~pos:0 ~len:64 with
      | Ok n when n > 0 -> echoed := true
      | _ -> ());
      ignore (Bsd_socket.so_close s));
  Clientos.run tb ~until:(fun () -> !served && !echoed);
  Alcotest.(check bool) "round trip completed" true (!served && !echoed);
  let st = sa.Bsd_socket.tcp.Tcp.stats in
  let bsc = sa.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
  let lsc = sb.Linux_inet.syncache.Syncache.stats in
  Alcotest.(check int) "bsd: no syncache activity" 0
    (bsc.Syncache.added + bsc.Syncache.evicted + bsc.Syncache.completed);
  Alcotest.(check int) "bsd: no cookie activity" 0
    (bsc.Syncache.validated + bsc.Syncache.rejected);
  Alcotest.(check int) "bsd: no TIME_WAIT reclaim" 0 st.Tcp.time_wait_reclaimed;
  Alcotest.(check int) "bsd: no nomem drops" 0 st.Tcp.nomem_drops;
  Alcotest.(check int) "bsd: no rate limiting" 0 st.Tcp.rst_ratelimited;
  Alcotest.(check int) "bsd udp: no rate limiting" 0 sa.Bsd_socket.udp.Udp.icmp_ratelimited;
  Alcotest.(check int) "linux: no syncache activity" 0
    (lsc.Syncache.added + lsc.Syncache.evicted + lsc.Syncache.completed);
  Alcotest.(check int) "linux: no cookie activity" 0
    (lsc.Syncache.validated + lsc.Syncache.rejected);
  Alcotest.(check int) "linux: no TIME_WAIT reclaim" 0 sb.Linux_inet.time_wait_reclaimed;
  Alcotest.(check int) "linux: no nomem drops" 0 sb.Linux_inet.nomem_drops;
  Alcotest.(check int) "linux: no rate limiting" 0 sb.Linux_inet.rst_ratelimited;
  Alcotest.(check int) "injector: no draws, no failures" 0
    (Memfault.draws () + Memfault.failures ())

let suite =
  [ QCheck_alcotest.to_alcotest prop_cookie_roundtrip;
    Alcotest.test_case "syncache: bounded, oldest-first, freed on listener close"
      `Quick test_syncache_eviction_and_listener_close;
    Alcotest.test_case "10x SYN flood: every legit client served (bsd)" `Quick
      test_flood_then_legit_bsd;
    Alcotest.test_case "10x SYN flood: every legit client served (linux)" `Quick
      test_flood_then_legit_linux;
    Alcotest.test_case "SYN cookie completes statelessly, bogus ACK rejected (bsd)"
      `Quick test_cookie_completion_bsd;
    Alcotest.test_case "SYN cookie completes statelessly, bogus ACK rejected (linux)"
      `Quick test_cookie_completion_linux;
    Alcotest.test_case "RST generation is token-bucket limited, both stacks" `Quick
      test_rst_rate_limit_both_stacks;
    Alcotest.test_case "ICMP port unreachables are token-bucket limited" `Quick
      test_udp_unreachable_rate_limit;
    Alcotest.test_case "TIME_WAIT cap reclaims oldest-first (bsd)" `Quick
      test_tw_cap_bsd;
    Alcotest.test_case "TIME_WAIT cap reclaims oldest-first (linux)" `Quick
      test_tw_cap_linux;
    Alcotest.test_case "alloc-failure soak: byte-exact at 0.1%-1%, both stacks"
      `Quick test_alloc_soak;
    Alcotest.test_case "httpd guard: deadline and header bound cut attackers only"
      `Quick test_httpd_deadline_and_header_bound;
    Alcotest.test_case "httpd guard: 503 + Retry-After above the high-water mark"
      `Quick test_httpd_shed_503;
    Alcotest.test_case "httpd guard: keep-alive drip still cut at the header deadline"
      `Quick test_httpd_keepalive_drip_deadline;
    Alcotest.test_case "flags off: new counters and injector untouched" `Quick
      test_flags_off_counters_untouched;
    Alcotest.test_case "syncache: an option-less SYN gets the stack's own MSS" `Quick
      test_syncache_mss_without_option ]
