(* paper_net: the paper's section 5 experiment on its two-PC testbed.

   Bulk ttcp in both directions between the OSKit configuration (FreeBSD
   stack over a Linux driver through the fdev glue) and native FreeBSD,
   the same between native Linux and FreeBSD, then 1-byte rtcp round trips
   between two OSKit hosts.  100 Mbit wire, one CPU per PC, every
   Cost.config knob at its default (the paper profile).  Every transfer is
   compared byte for byte with the seeded stream that was sent, and every
   echoed byte with the byte of its trip. *)

open Pb_bed

type config = Oskit | Freebsd | Linux

(* A role-neutral blocking socket over whichever stack a configuration
   uses.  Errors raise, killing the simulated thread; the operations it did
   not finish then count as failed. *)
type sock = {
  send : bytes -> int -> int -> int;
  recv : bytes -> int -> int -> int;
  close : unit -> unit;
}

(* The benchmark's own calls into a stack, as spans when tracing.  They
   block, so they report waiting time only. *)
let client_call tr (h : Clientos.host) ~pid ~layer name f =
  match tr with
  | None -> f ()
  | Some tr ->
      let ctx = { Pb_trace.tr; m = h.Clientos.machine; pid; may_suspend = true } in
      Pb_trace.record ctx ~name:("client." ^ name) ~layer ~flow:0 f

(* Bring [config] up on [host]; returns [serve ~port k] (accept one
   connection in a new thread and pass it to [k]) and [connect ~dst ~port
   k].  In a traced run the OSKit host's C library gets a wrapped socket
   factory, so every socket it creates is interposed. *)
let setup ~tr ~pid (p : probe) config (host : Clientos.host) ~addr =
  let call layer name f = client_call tr host ~pid ~layer name f in
  match config with
  | Oskit ->
      let env, stack = Clientos.oskit_host host ~ip:addr ~mask in
      p.bsd <- stack :: p.bsd;
      (match tr with
      | Some tr ->
          let ctx = { Pb_trace.tr; m = host.Clientos.machine; pid; may_suspend = true } in
          Posix.set_socket_factory env
            (Some (Pb_trace.wrap_factory ctx (Freebsd_glue.socket_factory stack)))
      | None -> ());
      let of_fd fd ~close =
        { send = (fun b pos len -> call "libc" "send" (fun () -> ok "send" (Posix.send env fd b ~pos ~len)));
          recv = (fun b pos len -> call "libc" "recv" (fun () -> ok "recv" (Posix.recv env fd b ~pos ~len)));
          close = (fun () -> call "libc" "close" (fun () -> ignore (close env fd))) }
      in
      let serve ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let fd = ok "socket" (Posix.socket env Io_if.Sock_stream) in
            ok "bind" (Posix.bind env fd { Io_if.sin_addr = addr; sin_port = port });
            ok "listen" (Posix.listen env fd ~backlog:2);
            let conn, _ = call "libc" "accept" (fun () -> ok "accept" (Posix.accept env fd)) in
            k (of_fd conn ~close:Posix.close))
      in
      let connect ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let fd = ok "socket" (Posix.socket env Io_if.Sock_stream) in
            call "libc" "connect" (fun () ->
                ok "connect" (Posix.connect env fd { Io_if.sin_addr = dst; sin_port = port }));
            k (of_fd fd ~close:Posix.shutdown))
      in
      serve, connect
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:addr ~mask in
      p.bsd <- stack :: p.bsd;
      let of_tsock s =
        let call name f = call "freebsd_net" name f in
        { send =
            (fun b pos len -> call "send" (fun () -> ok "send" (Bsd_socket.so_send s ~buf:b ~pos ~len)));
          recv =
            (fun b pos len -> call "recv" (fun () -> ok "recv" (Bsd_socket.so_recv s ~buf:b ~pos ~len)));
          close = (fun () -> call "close" (fun () -> ignore (Bsd_socket.so_close s))) }
      in
      let serve ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let ls = Bsd_socket.tcp_socket stack in
            ok "bind" (Bsd_socket.so_bind ls ~port);
            ok "listen" (Bsd_socket.so_listen ls ~backlog:2);
            k (of_tsock (call "freebsd_net" "accept" (fun () -> ok "accept" (Bsd_socket.so_accept ls)))))
      in
      let connect ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let s = Bsd_socket.tcp_socket stack in
            call "freebsd_net" "connect" (fun () -> ok "connect" (Bsd_socket.so_connect s ~dst ~dport:port));
            k (of_tsock s))
      in
      serve, connect
  | Linux ->
      let stack = Clientos.linux_host host ~ip:addr ~mask in
      p.linux <- stack :: p.linux;
      let of_sock s =
        let call name f = call "linux_net" name f in
        { send =
            (fun b pos len -> call "send" (fun () -> ok "send" (Linux_inet.send stack s ~buf:b ~pos ~len)));
          recv =
            (fun b pos len -> call "recv" (fun () -> ok "recv" (Linux_inet.recv stack s ~buf:b ~pos ~len)));
          close = (fun () -> call "close" (fun () -> Linux_inet.close stack s)) }
      in
      let serve ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let ls = Linux_inet.socket stack in
            Linux_inet.bind stack ls ~port;
            Linux_inet.listen stack ls ~backlog:2;
            k (of_sock (call "linux_net" "accept" (fun () -> ok "accept" (Linux_inet.accept stack ls)))))
      in
      let connect ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let s = Linux_inet.socket stack in
            call "linux_net" "connect" (fun () -> ok "connect" (Linux_inet.connect stack s ~dst ~dport:port));
            k (of_sock s))
      in
      serve, connect

let blocksize = 4096
let wire_bps = 100_000_000

(* ttcp: [sender] streams [payload] to [receiver]; the system under test is
   the side that is not native FreeBSD.  Reports the Table 1 rate of the
   system under test under [rate]: sender-clock time for a send row,
   first-send-to-EOF time for a receive row. *)
let ttcp ~tr ~sender ~receiver ~payload ~rate =
  reset_world ();
  let h_start = Pb_util.host_cpu () in
  let tb = make_testbed ~a_cpus:1 ~b_cpus:1 ~bandwidth_bps:wire_bps in
  let snd_host = tb.Clientos.host_a and rcv_host = tb.Clientos.host_b in
  let sut_is_sender = sender <> Freebsd in
  let p =
    if sut_is_sender then probe tb ~bw:wire_bps ~server:snd_host ~client:rcv_host
    else probe tb ~bw:wire_bps ~server:rcv_host ~client:snd_host
  in
  let pid_of h = if h == p.server then 1 else 0 in
  let serve, _ = setup ~tr ~pid:(pid_of rcv_host) p receiver rcv_host ~addr:addr_b in
  let _, connect = setup ~tr ~pid:(pid_of snd_host) p sender snd_host ~addr:addr_a in
  let total = Bytes.length payload in
  let blocks = total / blocksize in
  let window = ref None and t0 = ref 0 and send_ns = ref 0 and done_at = ref 0 in
  let verified = ref 0 and mismatched = ref false in
  serve ~port:5001 (fun s ->
      let buf = Bytes.create 16384 in
      let rec loop () =
        match s.recv buf 0 16384 with
        | 0 ->
            done_at := Machine.now rcv_host.Clientos.machine;
            s.close ()
        | n ->
            if
              (not !mismatched)
              && (!verified + n > total
                 || Bytes.sub buf 0 n <> Bytes.sub payload !verified n)
            then mismatched := true;
            if not !mismatched then verified := !verified + n;
            loop ()
      in
      loop ());
  connect ~dst:addr_b ~port:5001 (fun s ->
      let m = snd_host.Clientos.machine in
      t0 := Machine.now m;
      window := Some (open_window p ~t0:!t0);
      for i = 0 to blocks - 1 do
        if s.send payload (i * blocksize) blocksize <> blocksize then
          raise (Sock_error "short send")
      done;
      send_ns := Machine.now m - !t0;
      s.close ());
  let incidents = run tb ~until:(fun () -> !done_at > 0 || stalled p ()) in
  let h_end = Pb_util.host_cpu () in
  let exact = !done_at > 0 && (not !mismatched) && !verified = total in
  match !window with
  | None -> no_window ~attempted:blocks ~incidents
  | Some w ->
  let counts = close_window p w ~t1:(if !done_at > 0 then !done_at else World.now tb.Clientos.world) in
  let ns = if sut_is_sender then !send_ns else !done_at - !t0 in
  { empty with
    attempted = blocks;
    ok = (if exact then blocks else !verified / blocksize);
    mismatches = (if !mismatched then 1 else 0);
    rates = (if exact then [ rate, (total, ns) ] else []);
    counts;
    ops = blocks;
    payload = total;
    cost_end = List.map (fun (k, v) -> rate ^ "." ^ k, v) (Pb_util.cost_fields Cost.counters);
    problems = check_end p @ check_wire counts ~payload:total;
    incidents;
    setup_s = w.w_h0 -. h_start;
    host_s = h_end -. w.w_h0 }

(* rtcp between two OSKit hosts on one connection: [ones] 1-byte round
   trips (Table 2: their mean is rtt_us), then one trip per entry of
   [sizes], small messages of seeded size whose distribution gives the
   workload's latency percentiles.  Every echoed byte is checked.  A seeded
   think time precedes each trip. *)
let rtcp ~tr ~rng ~ones ~sizes =
  reset_world ();
  let h_start = Pb_util.host_cpu () in
  let tb = make_testbed ~a_cpus:1 ~b_cpus:1 ~bandwidth_bps:wire_bps in
  let cli = tb.Clientos.host_a and srv = tb.Clientos.host_b in
  let p = probe tb ~bw:wire_bps ~server:srv ~client:cli in
  let serve, _ = setup ~tr ~pid:1 p Oskit srv ~addr:addr_b in
  let _, connect = setup ~tr ~pid:0 p Oskit cli ~addr:addr_a in
  let sizes = Array.append (Array.make ones 1) sizes in
  let trips = Array.length sizes in
  let maxlen = Array.fold_left max 1 sizes in
  let msgs = Array.map (fun n -> Pb_util.random_bytes rng n) sizes in
  let think = Array.init trips (fun _ -> Pb_util.int rng 50_000) in
  let samples = Array.make trips 0 in
  let good = ref 0 and mismatches = ref 0 and finished = ref false in
  let window = ref None and t0 = ref 0 and t_end = ref 0 in
  serve ~port:5002 (fun s ->
      let buf = Bytes.create maxlen in
      let rec loop () =
        match s.recv buf 0 maxlen with
        | 0 -> s.close ()
        | n ->
            ignore (s.send buf 0 n);
            loop ()
      in
      loop ());
  connect ~dst:addr_b ~port:5002 (fun s ->
      let m = cli.Clientos.machine in
      let buf = Bytes.create maxlen in
      (* One unmeasured trip primes ARP and the connection. *)
      ignore (s.send (Bytes.make 1 'R') 0 1);
      ignore (s.recv buf 0 1);
      t0 := Machine.now m;
      window := Some (open_window p ~t0:!t0);
      Array.iteri
        (fun i msg ->
          Kclock.sleep_ns (1 + think.(i));
          let n = Bytes.length msg in
          let a = Machine.now m in
          ignore (s.send msg 0 n);
          let rec fill got =
            if got >= n then got else match s.recv buf got (n - got) with 0 -> got | k -> fill (got + k)
          in
          if fill 0 = n then begin
            samples.(i) <- Machine.now m - a;
            if Bytes.sub buf 0 n = msg then incr good else incr mismatches
          end)
        msgs;
      t_end := Machine.now m;
      finished := true;
      s.close ());
  let incidents = run tb ~until:(fun () -> !finished || stalled p ()) in
  let h_end = Pb_util.host_cpu () in
  match !window with
  | None -> no_window ~attempted:trips ~incidents
  | Some w ->
  let counts = close_window p w ~t1:(if !finished then !t_end else World.now tb.Clientos.world) in
  let sum a = Array.fold_left ( + ) 0 a in
  let lat = Array.sub samples ones (trips - ones) in
  let payload = 2 * sum sizes in
  { empty with
    attempted = trips;
    ok = !good;
    mismatches = !mismatches;
    lat_ns = (if !finished then lat else [||]);
    rates =
      (if !finished then [ "ops", (trips - ones, sum lat); "rtt1", (ones, sum (Array.sub samples 0 ones)) ]
       else []);
    counts;
    ops = trips;
    payload;
    cost_end = List.map (fun (k, v) -> "rtcp." ^ k, v) (Pb_util.cost_fields Cost.counters);
    problems = check_end p @ (if !finished then check_wire counts ~payload else []);
    incidents;
    setup_s = w.w_h0 -. h_start;
    host_s = h_end -. w.w_h0 }

(* The paper profile: every knob at its default. *)
let configure () = Cost.reset_config ()

(* One iteration: the four Table 1 cells, then the Table 2 round trips.
   Transfer sizes and trip counts vary a little with the seed. *)
let iteration ~tr ~seed ~iter =
  configure ();
  let rng = Pb_util.rng seed iter in
  let xfer () = Pb_util.random_bytes rng (blocksize * (240 + Pb_util.int rng 32)) in
  let cells =
    [ Oskit, Freebsd, "send"; Freebsd, Oskit, "recv"; Linux, Freebsd, "linux_send";
      Freebsd, Linux, "linux_recv" ]
  in
  let its =
    List.map (fun (sender, receiver, rate) -> ttcp ~tr ~sender ~receiver ~payload:(xfer ()) ~rate) cells
  in
  let sizes = Array.init (200 + Pb_util.int rng 40) (fun _ -> 1 + Pb_util.int rng 512) in
  List.fold_left merge empty (its @ [ rtcp ~tr ~rng ~ones:100 ~sizes ])
