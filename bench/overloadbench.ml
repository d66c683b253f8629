(* overloadbench — survival under deliberate overload, measured.

   Three attacks, each against both protocol stacks (or the httpd built
   over them), each with its defense off and on, on the deterministic
   virtual-time testbed:

     flood   a 10x spoofed-source SYN flood against a depth-4 listener
             while legitimate clients download; the metric is the
             goodput the LEGITIMATE clients still see, and how many of
             them get served at all.
     alloc   a ttcp-style bulk transfer while the seeded allocation
             injector fails 0.1%-1% of pooled packet-buffer allocations
             (in bursts): the transfer must stay byte-exact and every
             failure must surface as a counted drop, never a crash.
     loris   Slowloris against the event-driven httpd: attackers park
             half-finished requests to exhaust the connection budget;
             with the guard on, the header deadline reclaims them and
             late legitimate clients are still served.

   Each run installs its own profile: the paper defaults with the
   overload fields it studies changed, so the calibrated Table 1/2/rtt
   baselines never see any of this machinery.  The Slowloris runs are the
   shared HTTP harness (Httpbench) under such a profile. *)

type server = Sv_freebsd | Sv_linux

let server_name = function Sv_freebsd -> "FreeBSD" | Sv_linux -> "Linux"

let ip, mask, ok = Netbench.(ip, mask, ok)

let pattern i = (i * 131) lxor (i lsr 8) land 0xff

(* Run [f] under [profile], re-seeding the allocation injector from the
   profile on the way in and from the caller's configuration on the way
   out. *)
let under profile f =
  Fun.protect ~finally:Memfault.reset (fun () ->
      Cost.with_config profile (fun () ->
          Memfault.reset ();
          f ()))

let paper = Cost.paper ()

let fresh_testbed () =
  Clientos.reset_globals ();
  Clientos.make_testbed ~models:("3c905", "tulip") ()

(* One crafted option-less TCP segment out of [cstack] with a spoofable
   source — the attacker's packet injector. *)
let send_raw_tcp cstack ~src ~sport ~dst ~dport ~seq ~flags =
  Ip.output cstack.Bsd_socket.ip ~proto:Ip.proto_tcp ~src ~dst
    (Tcp.raw_segment ~src ~dst ~sport ~dport ~seq ~ack:0 ~flags ~win:8192 ~mss:None)

(* ------------------------------------------------------------------ *)
(* flood: legitimate goodput through a spoofed SYN flood               *)

type flood_result = {
  fl_server : server;
  fl_profile : Cost.config; (* the paper's, syn_defense as asked *)
  fl_flood : int;   (* spoofed SYNs injected *)
  fl_legit : int;   (* legitimate clients *)
  fl_served : int;  (* ... that were served byte-exact *)
  fl_bytes : int;   (* legitimate bytes delivered *)
  fl_duration_ns : int;
  fl_goodput_mbit : float;
  fl_syncache_added : int;
  fl_completed : int; (* handshakes finished from cache or cookie *)
  fl_listen_overflow : int;
}

let flood_profile ~defense = { paper with Cost.syn_defense = defense }

(* [legit] clients each download [bytes_per_client] from the server while
   [flood] spoofed SYNs hammer the same listener.  The clients are plain
   blocking BSD sockets: a client whose connect fails (the undefended
   stack's backlog is full of embryonic corpses) counts as unserved. *)
let flood_run ~server ~defense ~flood ~legit ~bytes_per_client () =
  let profile = flood_profile ~defense in
  under profile (fun () ->
      let tb = fresh_testbed () in
      let chost = tb.Clientos.host_a in
      let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
      let served = ref 0 and finished = ref 0 and bytes_got = ref 0 in
      let t_start = ref max_int and t_end = ref 0 in
      let block = Bytes.init 4096 (fun i -> Char.chr (pattern i)) in
      let serve send close =
        (* Push bytes_per_client of patterned data, then close. *)
        let rec push sent =
          if sent < bytes_per_client then begin
            let n = min 4096 (bytes_per_client - sent) in
            match send ~buf:block ~pos:0 ~len:n with
            | Ok k when k > 0 -> push (sent + k)
            | Ok _ -> push sent
            | Error _ -> ()
          end
        in
        push 0;
        close ()
      in
      let counters =
        match server with
        | Sv_linux ->
            let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
            Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
                let ls = Linux_inet.socket sb in
                Linux_inet.bind sb ls ~port:7900;
                Linux_inet.listen sb ls ~backlog:4;
                for _ = 1 to legit do
                  let c = ok (Linux_inet.accept sb ls) in
                  serve
                    (fun ~buf ~pos ~len -> Linux_inet.send sb c ~buf ~pos ~len)
                    (fun () -> Linux_inet.close sb c)
                done);
            fun () ->
              let sc = sb.Linux_inet.syncache.Syncache.stats in
              ( sc.Syncache.added,
                sc.Syncache.completed + sc.Syncache.validated,
                sb.Linux_inet.listen_overflow )
        | Sv_freebsd ->
            let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
            Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
                let ls = Bsd_socket.tcp_socket sb in
                ok (Bsd_socket.so_bind ls ~port:7900);
                ok (Bsd_socket.so_listen ls ~backlog:4);
                for _ = 1 to legit do
                  let c = ok (Bsd_socket.so_accept ls) in
                  serve
                    (fun ~buf ~pos ~len -> Bsd_socket.so_send c ~buf ~pos ~len)
                    (fun () -> ignore (Bsd_socket.so_close c))
                done);
            let st = sb.Bsd_socket.tcp.Tcp.stats in
            let sc = sb.Bsd_socket.tcp.Tcp.syncache.Syncache.stats in
            fun () ->
              ( sc.Syncache.added,
                sc.Syncache.completed + sc.Syncache.validated,
                st.Tcp.listen_overflow )
      in
      (* The flood: every SYN from a distinct spoofed same-subnet source,
         so the SYN-ACKs die waiting on ARP for hosts that do not exist.
         One warm-up SYN resolves the attacker's own ARP entry so the
         burst is not throttled by the bounded ARP waiter queue. *)
      Clientos.spawn chost ~name:"flood" (fun () ->
          Kclock.sleep_ns 1_000_000;
          send_raw_tcp cstack ~src:(ip "10.0.0.99") ~sport:1999 ~dst:(ip "10.0.0.2")
            ~dport:7900 ~seq:1 ~flags:Tcp.th_syn;
          Kclock.sleep_ns 500_000;
          for i = 0 to flood - 1 do
            send_raw_tcp cstack
              ~src:(ip (Printf.sprintf "10.0.1.%d" (1 + (i mod 250))))
              ~sport:(2000 + i) ~dst:(ip "10.0.0.2") ~dport:7900 ~seq:(7 * i)
              ~flags:Tcp.th_syn
          done);
      for i = 0 to legit - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 500_000));
            let t0 = Machine.now chost.Clientos.machine in
            if t0 < !t_start then t_start := t0;
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7900 with
            | Error _ -> ()
            | Ok () ->
                let buf = Bytes.create 4096 in
                let got = ref 0 and mism = ref 0 in
                let rec drain () =
                  match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
                  | Ok 0 | Error _ -> ()
                  | Ok n ->
                      for j = 0 to n - 1 do
                        if Char.code (Bytes.get buf j) <> pattern ((!got + j) mod 4096)
                        then incr mism
                      done;
                      got := !got + n;
                      drain ()
                in
                drain ();
                bytes_got := !bytes_got + !got;
                if !got = bytes_per_client && !mism = 0 then incr served);
            ignore (Bsd_socket.so_close s);
            let t1 = Machine.now chost.Clientos.machine in
            if t1 > !t_end then t_end := t1;
            incr finished)
      done;
      Clientos.run tb ~until:(fun () -> !finished >= legit);
      let dur = max 1 (!t_end - !t_start) in
      let added, completed, overflow = counters () in
      { fl_server = server; fl_profile = profile; fl_flood = flood;
        fl_legit = legit; fl_served = !served; fl_bytes = !bytes_got;
        fl_duration_ns = dur;
        fl_goodput_mbit = 8.0 *. float_of_int !bytes_got /. float_of_int dur *. 1000.0;
        fl_syncache_added = added; fl_completed = completed;
        fl_listen_overflow = overflow })

(* ------------------------------------------------------------------ *)
(* alloc: bulk transfer under injected allocation failure              *)

type alloc_result = {
  al_server : server;
  al_profile : Cost.config; (* the injector's probability and seed *)
  al_bytes : int;
  al_byte_exact : bool;
  al_goodput_mbit : float;
  al_draws : int;
  al_failures : int;
  al_nomem_drops : int; (* stack-counted drops on the receiver+sender *)
}

let alloc_profile ~prob ~seed =
  { paper with Cost.alloc_fail_prob = prob; alloc_fail_seed = seed; alloc_fail_burst = 2 }

let alloc_run ~server ~prob ~seed ~bytes () =
  let profile = alloc_profile ~prob ~seed in
  under profile
    (fun () ->
      let tb = fresh_testbed () in
      let mism = ref 0 and received = ref 0 and done_flag = ref false in
      let t_start = ref 0 and t_end = ref 0 in
      let chost = tb.Clientos.host_a in
      let send_all send buf len =
        let rec go off =
          if off < len then
            match send ~buf ~pos:off ~len:(len - off) with
            | Ok n when n > 0 -> go (off + n)
            | Ok _ -> Kclock.sleep_ns 1_000_000; go off
            | Error Error.Nomem -> Kclock.sleep_ns 5_000_000; go off
            | Error e -> failwith ("overloadbench send: " ^ Error.to_string e)
        in
        go 0
      in
      let fill block sent n =
        for i = 0 to n - 1 do
          Bytes.set block i (Char.chr (pattern (sent + i)))
        done
      in
      let nomem =
        match server with
        | Sv_linux ->
            let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
            let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
            Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
                let ls = Linux_inet.socket sb in
                Linux_inet.bind sb ls ~port:7901;
                Linux_inet.listen sb ls ~backlog:2;
                let c = ok (Linux_inet.accept sb ls) in
                let buf = Bytes.create 4096 in
                let rec loop () =
                  match ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:4096) with
                  | 0 -> Linux_inet.close sb c; done_flag := true
                  | n ->
                      for i = 0 to n - 1 do
                        if Char.code (Bytes.get buf i) <> pattern (!received + i)
                        then incr mism
                      done;
                      received := !received + n;
                      loop ()
                in
                loop ());
            Clientos.spawn chost ~name:"cli" (fun () ->
                Kclock.sleep_ns 1_000_000;
                t_start := Machine.now chost.Clientos.machine;
                let rec connect tries =
                  let s = Linux_inet.socket sa in
                  match Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:7901 with
                  | Ok () -> s
                  | Error _ when tries < 50 ->
                      Kclock.sleep_ns 10_000_000;
                      connect (tries + 1)
                  | Error e -> failwith ("overloadbench connect: " ^ Error.to_string e)
                in
                let s = connect 0 in
                let block = Bytes.create 4096 in
                let rec push sent =
                  if sent < bytes then begin
                    let n = min 4096 (bytes - sent) in
                    fill block sent n;
                    send_all
                      (fun ~buf ~pos ~len -> Linux_inet.send sa s ~buf ~pos ~len)
                      block n;
                    push (sent + n)
                  end
                in
                push 0;
                Linux_inet.close sa s;
                t_end := Machine.now chost.Clientos.machine);
            fun () -> sa.Linux_inet.nomem_drops + sb.Linux_inet.nomem_drops
        | Sv_freebsd ->
            let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
            let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
            Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
                let ls = Bsd_socket.tcp_socket sb in
                ok (Bsd_socket.so_bind ls ~port:7901);
                ok (Bsd_socket.so_listen ls ~backlog:2);
                let c = ok (Bsd_socket.so_accept ls) in
                let buf = Bytes.create 4096 in
                let rec loop () =
                  match ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:4096) with
                  | 0 -> ignore (Bsd_socket.so_close c); done_flag := true
                  | n ->
                      for i = 0 to n - 1 do
                        if Char.code (Bytes.get buf i) <> pattern (!received + i)
                        then incr mism
                      done;
                      received := !received + n;
                      loop ()
                in
                loop ());
            Clientos.spawn chost ~name:"cli" (fun () ->
                Kclock.sleep_ns 1_000_000;
                t_start := Machine.now chost.Clientos.machine;
                let rec connect tries =
                  let s = Bsd_socket.tcp_socket sa in
                  match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:7901 with
                  | Ok () -> s
                  | Error _ when tries < 50 ->
                      Kclock.sleep_ns 10_000_000;
                      connect (tries + 1)
                  | Error e -> failwith ("overloadbench connect: " ^ Error.to_string e)
                in
                let s = connect 0 in
                let block = Bytes.create 4096 in
                let rec push sent =
                  if sent < bytes then begin
                    let n = min 4096 (bytes - sent) in
                    fill block sent n;
                    send_all
                      (fun ~buf ~pos ~len -> Bsd_socket.so_send s ~buf ~pos ~len)
                      block n;
                    push (sent + n)
                  end
                in
                push 0;
                ignore (Bsd_socket.so_close s);
                t_end := Machine.now chost.Clientos.machine);
            fun () ->
              sa.Bsd_socket.tcp.Tcp.stats.Tcp.nomem_drops
              + sb.Bsd_socket.tcp.Tcp.stats.Tcp.nomem_drops
              + sa.Bsd_socket.ip.Ip.nomem_drops + sb.Bsd_socket.ip.Ip.nomem_drops
      in
      Clientos.run tb ~until:(fun () -> !done_flag);
      let dur = max 1 (!t_end - !t_start) in
      { al_server = server; al_profile = profile; al_bytes = bytes;
        al_byte_exact = (!done_flag && !mism = 0 && !received = bytes);
        al_goodput_mbit = 8.0 *. float_of_int !received /. float_of_int dur *. 1000.0;
        al_draws = Memfault.draws (); al_failures = Memfault.failures ();
        al_nomem_drops = nomem () })

(* ------------------------------------------------------------------ *)
(* loris: Slowloris vs the httpd header deadline                       *)

let loris_profile ~guard =
  { paper with Cost.httpd_guard = guard; httpd_header_deadline_ns = 50_000_000 }

(* [loris] attackers each park a half-finished request.  The server's
   connection budget is exactly [loris] — without the guard the attackers
   own every slot when the [legit] clients arrive at t=100ms and each one
   is shed on accept; with the 50 ms header deadline the slots have
   already been reclaimed.  A legitimate client is served when its one
   HTTP/1.0 GET comes back a byte-exact 200. *)
let loris_run ~guard ~loris ~legit () =
  (* alloc_fail_prob is 0 here, so the allocation injector never draws
     and the profile needs no [under]. *)
  Httpbench.run ~profile:(loris_profile ~guard)
    { Httpbench.concurrency with
      Httpbench.backlog = 32;
      max_threads = None;
      max_conns = Some loris;
      request = Httpbench.Http10;
      reqs_per_client = 1;
      start_ns = 100_000_000;
      stagger_ns = 200_000;
      warmup = false;
      loris }
    ~stack:Httpbench.Freebsd_com ~shape:Httpbench.Reactor ~clients:legit ()

let loris_served r = r.Httpbench.r_requests - r.Httpbench.r_mismatches
