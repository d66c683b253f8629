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

   Everything is driven by the Cost.config overload knobs, all of which
   default off — the calibrated Table 1/2/rtt baselines never see any of
   this machinery. *)

type server = Sv_freebsd | Sv_linux

let server_name = function Sv_freebsd -> "FreeBSD" | Sv_linux -> "Linux"

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("overloadbench: " ^ Error.to_string e)

let pattern i = (i * 131) lxor (i lsr 8) land 0xff

(* Set the overload knobs for one run and restore the seed defaults
   after, re-seeding the allocation injector on both edges. *)
let with_knobs ?(syn_defense = false) ?(syncache_size = 64) ?(alloc_fail_prob = 0.0)
    ?(alloc_fail_seed = 1) ?(alloc_fail_burst = 1) ?(httpd_guard = false)
    ?(httpd_header_deadline_ns = 1_000_000_000) ?(httpd_shed_hiwat = 0) f =
  let c = Cost.config in
  let saved =
    ( c.Cost.syn_defense, c.Cost.syncache_size, c.Cost.alloc_fail_prob,
      c.Cost.alloc_fail_seed, c.Cost.alloc_fail_burst, c.Cost.httpd_guard,
      c.Cost.httpd_header_deadline_ns, c.Cost.httpd_shed_hiwat )
  in
  c.Cost.syn_defense <- syn_defense;
  c.Cost.syncache_size <- syncache_size;
  c.Cost.alloc_fail_prob <- alloc_fail_prob;
  c.Cost.alloc_fail_seed <- alloc_fail_seed;
  c.Cost.alloc_fail_burst <- alloc_fail_burst;
  c.Cost.httpd_guard <- httpd_guard;
  c.Cost.httpd_header_deadline_ns <- httpd_header_deadline_ns;
  c.Cost.httpd_shed_hiwat <- httpd_shed_hiwat;
  Memfault.reset ();
  Fun.protect
    ~finally:(fun () ->
      let sd, sz, ap, asd, ab, hg, hd, hs = saved in
      c.Cost.syn_defense <- sd;
      c.Cost.syncache_size <- sz;
      c.Cost.alloc_fail_prob <- ap;
      c.Cost.alloc_fail_seed <- asd;
      c.Cost.alloc_fail_burst <- ab;
      c.Cost.httpd_guard <- hg;
      c.Cost.httpd_header_deadline_ns <- hd;
      c.Cost.httpd_shed_hiwat <- hs;
      Memfault.reset ())
    f

let fresh_testbed () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
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
  fl_defense : bool;
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

(* [legit] clients each download [bytes_per_client] from the server while
   [flood] spoofed SYNs hammer the same listener.  The clients are plain
   blocking BSD sockets: a client whose connect fails (the undefended
   stack's backlog is full of embryonic corpses) counts as unserved. *)
let flood_run ~server ~defense ~flood ~legit ~bytes_per_client () =
  with_knobs ~syn_defense:defense ~syncache_size:64 (fun () ->
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
      { fl_server = server; fl_defense = defense; fl_flood = flood;
        fl_legit = legit; fl_served = !served; fl_bytes = !bytes_got;
        fl_duration_ns = dur;
        fl_goodput_mbit = 8.0 *. float_of_int !bytes_got /. float_of_int dur *. 1000.0;
        fl_syncache_added = added; fl_completed = completed;
        fl_listen_overflow = overflow })

(* ------------------------------------------------------------------ *)
(* alloc: bulk transfer under injected allocation failure              *)

type alloc_result = {
  al_server : server;
  al_prob : float;
  al_bytes : int;
  al_byte_exact : bool;
  al_goodput_mbit : float;
  al_draws : int;
  al_failures : int;
  al_nomem_drops : int; (* stack-counted drops on the receiver+sender *)
}

let alloc_run ~server ~prob ~seed ~bytes () =
  with_knobs ~alloc_fail_prob:prob ~alloc_fail_seed:seed ~alloc_fail_burst:2
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
      { al_server = server; al_prob = prob; al_bytes = bytes;
        al_byte_exact = (!done_flag && !mism = 0 && !received = bytes);
        al_goodput_mbit = 8.0 *. float_of_int !received /. float_of_int dur *. 1000.0;
        al_draws = Memfault.draws (); al_failures = Memfault.failures ();
        al_nomem_drops = nomem () })

(* ------------------------------------------------------------------ *)
(* loris: Slowloris vs the httpd header deadline                       *)

type loris_result = {
  lo_guard : bool;
  lo_loris : int;
  lo_legit : int;
  lo_served : int;          (* legitimate 200s, byte-exact *)
  lo_deadline_closed : int;
  lo_shed : int;            (* over max_conns, silently dropped *)
  lo_peak_active : int;
}

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
      | Error e -> failwith ("overloadbench root: " ^ Error.to_string e)
  in
  push 0;
  (root, Bytes.to_string body)

(* [loris] attackers each park a half-finished request.  The server's
   connection budget is exactly [loris] — without the guard the attackers
   own every slot when the [legit] clients arrive at t=100ms and each one
   is shed on accept; with the 50 ms header deadline the slots have
   already been reclaimed. *)
let loris_run ~guard ~loris ~legit () =
  with_knobs ~httpd_guard:guard ~httpd_header_deadline_ns:50_000_000 (fun () ->
      let tb = fresh_testbed () in
      let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
      let root, expect = make_root () in
      let stack = Clientos.freebsd_host server ~ip:(ip "10.0.0.2") ~mask in
      let sock = Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack) in
      let cstack = Clientos.freebsd_host chost ~ip:(ip "10.0.0.1") ~mask in
      let served = ref 0 and legit_done = ref 0 in
      let all () = !legit_done >= legit in
      let server_stats = ref None in
      let reactor = Reactor.create () in
      Clientos.spawn server ~name:"httpd" (fun () ->
          ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 80 });
          ok (sock.Io_if.so_listen ~backlog:32);
          server_stats :=
            Some (Httpd.serve_reactor ~reactor ~root ~sock ~max_conns:loris ());
          Reactor.run reactor ~until:all);
      let push_str s frag =
        let b = Bytes.of_string frag in
        let rec go off =
          if off < Bytes.length b then
            match Bsd_socket.so_send s ~buf:b ~pos:off ~len:(Bytes.length b - off) with
            | Ok n -> go (off + n)
            | Error _ -> ()
        in
        go 0
      in
      for i = 0 to loris - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "loris%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 100_000));
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80 with
            | Error _ -> ()
            | Ok () ->
                push_str s "GET /index.html HTTP/1.0\r\nX-Slow: yes\r\n";
                (* Hold the connection; never finish the headers. *)
                let buf = Bytes.create 256 in
                ignore (Bsd_socket.so_recv s ~buf ~pos:0 ~len:256));
            ignore (Bsd_socket.so_close s))
      done;
      for i = 0 to legit - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (100_000_000 + (i * 200_000));
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:80 with
            | Error _ -> ()
            | Ok () ->
                push_str s "GET /index.html HTTP/1.0\r\n\r\n";
                let buf = Bytes.create 4096 in
                let acc = Buffer.create 2048 in
                let rec drain () =
                  match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
                  | Ok 0 | Error _ -> ()
                  | Ok n -> Buffer.add_subbytes acc buf 0 n; drain ()
                in
                drain ();
                let resp = Buffer.contents acc in
                let is200 =
                  String.length resp > 12 && String.sub resp 0 12 = "HTTP/1.0 200"
                in
                let body_ok =
                  let rec find j =
                    if j + 4 > String.length resp then None
                    else if String.sub resp j 4 = "\r\n\r\n" then Some (j + 4)
                    else find (j + 1)
                  in
                  match find 0 with
                  | Some j -> String.sub resp j (String.length resp - j) = expect
                  | None -> false
                in
                if is200 && body_ok then incr served);
            ignore (Bsd_socket.so_close s);
            incr legit_done)
      done;
      Clientos.run tb ~until:all;
      let st = Option.get !server_stats in
      { lo_guard = guard; lo_loris = loris; lo_legit = legit; lo_served = !served;
        lo_deadline_closed = st.Httpd.deadline_closed; lo_shed = st.Httpd.shed;
        lo_peak_active = st.Httpd.peak_active })
