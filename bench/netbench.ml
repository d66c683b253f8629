(* The two-PC network experiment runner shared by the Table 1/2 and VM
   benches: sets up each side of the testbed in any of the three system
   configurations (they interoperate on the wire), runs a ttcp- or
   rtcp-style workload in virtual time, and reports the paper's numbers. *)

type config = Oskit | Freebsd | Linux

let config_name = function Oskit -> "OSKit" | Freebsd -> "FreeBSD" | Linux -> "Linux"

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("netbench: " ^ Error.to_string e)

(* A role-neutral socket bundle: blocking send/recv/close over whichever
   stack the configuration dictates. *)
type sock = {
  send : bytes -> int -> int;
  recv : bytes -> int -> int;
  close : unit -> unit;
}

(* Host-side protocol counters the chaos bench reads after a run:
   retransmissions prove the loss was real; checksum/dup drops prove the
   receiver discarded what netem damaged or repeated. *)
type stack_stats = {
  rexmits : unit -> int;
  tcp_badsum : unit -> int;
  tcp_dups : unit -> int;
}

let bsd_stats (stack : Bsd_socket.stack) =
  let s = stack.Bsd_socket.tcp.Tcp.stats in
  { rexmits = (fun () -> s.Tcp.sndrexmitpack + s.Tcp.fastrexmit);
    tcp_badsum = (fun () -> s.Tcp.rcvbadsum);
    tcp_dups = (fun () -> s.Tcp.rcvdup) }

let linux_stats (stack : Linux_inet.stack) =
  { rexmits = (fun () -> stack.Linux_inet.rexmits);
    tcp_badsum = (fun () -> stack.Linux_inet.tcpbadsum);
    tcp_dups = (fun () -> stack.Linux_inet.rcvdup) }

(* Prepare a host in [config]; returns (serve, connect, stats):
   [serve ~port k] spawns a server thread that accepts one connection and
   passes its socket to [k]; [connect ~port k] spawns a client thread that
   connects and passes its socket to [k]. *)
let setup config host ~addr =
  match config with
  | Oskit ->
      let env, stack = Clientos.oskit_host host ~ip:addr ~mask in
      let serve ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let fd = ok (Posix.socket env Io_if.Sock_stream) in
            ok (Posix.bind env fd { Io_if.sin_addr = addr; sin_port = port });
            ok (Posix.listen env fd ~backlog:2);
            let conn, _ = ok (Posix.accept env fd) in
            k
              { send = (fun b len -> ok (Posix.send env conn b ~pos:0 ~len));
                recv = (fun b len -> ok (Posix.recv env conn b ~pos:0 ~len));
                close = (fun () -> ignore (Posix.close env conn)) })
      in
      let connect ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let fd = ok (Posix.socket env Io_if.Sock_stream) in
            ok (Posix.connect env fd { Io_if.sin_addr = dst; sin_port = port });
            k
              { send = (fun b len -> ok (Posix.send env fd b ~pos:0 ~len));
                recv = (fun b len -> ok (Posix.recv env fd b ~pos:0 ~len));
                close = (fun () -> ignore (Posix.shutdown env fd)) })
      in
      serve, connect, bsd_stats stack
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:addr ~mask in
      let of_tsock s =
        { send = (fun b len -> ok (Bsd_socket.so_send s ~buf:b ~pos:0 ~len));
          recv = (fun b len -> ok (Bsd_socket.so_recv s ~buf:b ~pos:0 ~len));
          close = (fun () -> ignore (Bsd_socket.so_close s)) }
      in
      let serve ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let ls = Bsd_socket.tcp_socket stack in
            ok (Bsd_socket.so_bind ls ~port);
            ok (Bsd_socket.so_listen ls ~backlog:2);
            k (of_tsock (ok (Bsd_socket.so_accept ls))))
      in
      let connect ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let s = Bsd_socket.tcp_socket stack in
            ok (Bsd_socket.so_connect s ~dst ~dport:port);
            k (of_tsock s))
      in
      serve, connect, bsd_stats stack
  | Linux ->
      let stack = Clientos.linux_host host ~ip:addr ~mask in
      let of_sock s =
        { send = (fun b len -> ok (Linux_inet.send stack s ~buf:b ~pos:0 ~len));
          recv = (fun b len -> ok (Linux_inet.recv stack s ~buf:b ~pos:0 ~len));
          close = (fun () -> Linux_inet.close stack s) }
      in
      let serve ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let ls = Linux_inet.socket stack in
            Linux_inet.bind stack ls ~port;
            Linux_inet.listen stack ls ~backlog:2;
            k (of_sock (ok (Linux_inet.accept stack ls))))
      in
      let connect ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let s = Linux_inet.socket stack in
            ok (Linux_inet.connect stack s ~dst ~dport:port);
            k (of_sock s))
      in
      serve, connect, linux_stats stack

type transfer_result = {
  mbit_sender : float; (* bandwidth from the sender's clock, ttcp-style *)
  mbit_e2e : float;
  copies_per_kpkt : int;
  crossings_per_kpkt : int;
  packets : int;
  sg_xmits : int;          (* frames the NIC gathered from an iovec *)
  linearized_xmits : int;  (* frames flattened at the glue (the copy) *)
  checksummed_bytes : int;
}

(* ttcp: [sender] pushes blocks x blocksize to [receiver].  [sg] turns on
   the scatter-gather transmit path at the mbuf->skbuff glue (default off:
   the paper's measured configuration flattens chains there). *)
let transfer ?(sg = false) ~sender ~receiver ~blocks ~blocksize () =
  Clientos.reset_globals ();
  Cost.config.Cost.sg_tx <- sg;
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let total = blocks * blocksize in
  let serve, _, _ = setup receiver tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let _, connect, _ = setup sender tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let send_ns = ref 0 and recv_done = ref 0 in
  serve ~port:5001 (fun s ->
      let buf = Bytes.create 16384 in
      let rec loop () =
        match s.recv buf 16384 with
        | 0 ->
            recv_done := Machine.now tb.Clientos.host_b.Clientos.machine;
            s.close ()
        | _ -> loop ()
      in
      loop ());
  connect ~dst:(ip "10.0.0.2") ~port:5001 (fun s ->
      let block = Bytes.make blocksize 'T' in
      let t0 = Machine.now tb.Clientos.host_a.Clientos.machine in
      for _ = 1 to blocks do
        if s.send block blocksize <> blocksize then failwith "short send"
      done;
      send_ns := Machine.now tb.Clientos.host_a.Clientos.machine - t0;
      s.close ());
  Cost.reset_counters ();
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  let packets = Wire.frames_carried tb.Clientos.wire in
  Cost.config.Cost.sg_tx <- false;
  { mbit_sender = float_of_int total *. 8e3 /. float_of_int !send_ns;
    mbit_e2e = float_of_int total *. 8e3 /. float_of_int !recv_done;
    copies_per_kpkt = Cost.counters.Cost.copies * 1000 / max 1 packets;
    crossings_per_kpkt = Cost.counters.Cost.glue_crossings * 1000 / max 1 packets;
    packets;
    sg_xmits = Cost.counters.Cost.sg_xmits;
    linearized_xmits = Cost.counters.Cost.linearized_xmits;
    checksummed_bytes = Cost.counters.Cost.checksummed_bytes }

(* rtcp: 1-byte round trips, both sides in [config]. *)
let rtt_us config ~trips =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let serve, _, _ = setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let _, connect, _ = setup config tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let result = ref 0.0 in
  serve ~port:5002 (fun s ->
      let buf = Bytes.create 1 in
      let rec loop () =
        match s.recv buf 1 with
        | 0 -> s.close ()
        | _ ->
            ignore (s.send buf 1);
            loop ()
      in
      loop ());
  connect ~dst:(ip "10.0.0.2") ~port:5002 (fun s ->
      let one = Bytes.make 1 'R' in
      let buf = Bytes.create 1 in
      ignore (s.send one 1);
      ignore (s.recv buf 1);
      let t0 = Machine.now tb.Clientos.host_a.Clientos.machine in
      for _ = 1 to trips do
        ignore (s.send one 1);
        ignore (s.recv buf 1)
      done;
      result :=
        float_of_int (Machine.now tb.Clientos.host_a.Clientos.machine - t0)
        /. float_of_int trips /. 1e3;
      s.close ());
  Clientos.run tb ~until:(fun () -> !result > 0.0);
  !result

(* rtcp again, but keeping the whole per-trip distribution and the receive
   fast-path counters.  [fastpath] turns on all three receive-side layers at
   once (header prediction, hashed PCB demux, batched RX) — default off, so
   the plain Table 2 run above stays the paper's measured configuration.
   The per-trip [Machine.now] reads charge nothing, so the mean here agrees
   with [rtt_us] on the same flags. *)
type rtt_dist = {
  rtt_mean_us : float;
  rtt_p50_us : float;
  rtt_p95_us : float;
  rtt_p99_us : float;
  rtt_fastpath_hits : int;
  rtt_fastpath_fallbacks : int;
  rtt_pcb_cache_hits : int;
  rtt_pcb_cache_misses : int;
  rtt_rx_polls : int;        (* vectored bursts through the glue *)
  rtt_rx_frames : int;       (* frames those bursts carried *)
}

let dist ?(fastpath = false) config ~trips =
  Clientos.reset_globals ();
  Cost.config.Cost.tcp_fastpath <- fastpath;
  Cost.config.Cost.pcb_hash <- fastpath;
  Cost.config.Cost.rx_batch <- (if fastpath then 8 else 1);
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let serve, _, _ = setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let _, connect, _ = setup config tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let samples = Array.make (max 1 trips) 0 in
  let finished = ref false in
  serve ~port:5002 (fun s ->
      let buf = Bytes.create 1 in
      let rec loop () =
        match s.recv buf 1 with
        | 0 -> s.close ()
        | _ ->
            ignore (s.send buf 1);
            loop ()
      in
      loop ());
  connect ~dst:(ip "10.0.0.2") ~port:5002 (fun s ->
      let one = Bytes.make 1 'R' in
      let buf = Bytes.create 1 in
      ignore (s.send one 1);
      ignore (s.recv buf 1);
      let machine = tb.Clientos.host_a.Clientos.machine in
      for i = 0 to trips - 1 do
        let t0 = Machine.now machine in
        ignore (s.send one 1);
        ignore (s.recv buf 1);
        samples.(i) <- Machine.now machine - t0
      done;
      finished := true;
      s.close ());
  Clientos.run tb ~until:(fun () -> !finished);
  Cost.config.Cost.tcp_fastpath <- false;
  Cost.config.Cost.pcb_hash <- false;
  Cost.config.Cost.rx_batch <- 1;
  let pct = Percentile.us_of_ns samples in
  { rtt_mean_us =
      float_of_int (Array.fold_left ( + ) 0 samples)
      /. float_of_int (max 1 trips) /. 1e3;
    rtt_p50_us = pct 50;
    rtt_p95_us = pct 95;
    rtt_p99_us = pct 99;
    rtt_fastpath_hits = Cost.counters.Cost.fastpath_hits;
    rtt_fastpath_fallbacks = Cost.counters.Cost.fastpath_fallbacks;
    rtt_pcb_cache_hits = Cost.counters.Cost.pcb_cache_hits;
    rtt_pcb_cache_misses = Cost.counters.Cost.pcb_cache_misses;
    rtt_rx_polls = Cost.counters.Cost.rx_polls;
    rtt_rx_frames = Cost.counters.Cost.rx_batched_frames }

(* Section 6.2.6: throughput measured from inside the bytecode VM on the
   OSKit configuration.  The VM program loops sys_recv (or sys_send); the
   other side is a native FreeBSD peer. *)
let vm_throughput ~direction ~bytes =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let vm_host = tb.Clientos.host_a and peer = tb.Clientos.host_b in
  let env, _ = Clientos.oskit_host vm_host ~ip:(ip "10.0.0.1") ~mask in
  let stack = Clientos.freebsd_host peer ~ip:(ip "10.0.0.2") ~mask in
  let finished_ns = ref 0 in
  let chunk = 8192 in
  (* VM program: loop { n = sys(recv/send)(heap 8192, 8192); global1 += n;
     if global1 >= global0 halt }.  global0 preloaded with the target. *)
  let sys_no = if direction = `Receive then Vm.sys_recv else Vm.sys_send in
  let program =
    [| Vm.Push bytes; Vm.Store 0; Vm.Push 0; Vm.Store 1;
       (* loop: *)
       Vm.Push 8192; Vm.Push chunk; Vm.Sys sys_no;
       Vm.Dup; Vm.Jz 20 (* eof -> halt *);
       Vm.Load 1; Vm.Add; Vm.Store 1;
       Vm.Load 1; Vm.Load 0; Vm.Lt; Vm.Jz 20 (* done -> halt *);
       Vm.Jmp 4;
       Vm.Halt; Vm.Halt; Vm.Halt;
       (* 20: *)
       Vm.Halt |]
  in
  (* Peer: FreeBSD-native source or sink. *)
  Clientos.spawn peer ~name:"peer" (fun () ->
      let ls = Bsd_socket.tcp_socket stack in
      ok (Bsd_socket.so_bind ls ~port:5003);
      ok (Bsd_socket.so_listen ls ~backlog:1);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.make chunk 'V' in
      (match direction with
      | `Receive ->
          (* Peer sends [bytes] to the VM. *)
          let rec push sent =
            if sent < bytes then begin
              let n = ok (Bsd_socket.so_send conn ~buf ~pos:0 ~len:(min chunk (bytes - sent))) in
              push (sent + n)
            end
          in
          push 0;
          ignore (Bsd_socket.so_close conn)
      | `Send ->
          let rec sink () =
            match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:chunk) with
            | 0 -> ()
            | _ -> sink ()
          in
          sink ()));
  Clientos.spawn vm_host ~name:"vm" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let fd = ok (Posix.socket env Io_if.Sock_stream) in
      ok (Posix.connect env fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 5003 });
      let bindings =
        { Vm.putc = (fun _ -> ());
          send =
            (fun b ~pos ~len ->
              match Posix.send env fd b ~pos ~len with
              | Ok n ->
                  Cost.charge_copy n (* the VM-heap copy *);
                  n
              | Error _ -> 0);
          recv =
            (fun b ~pos ~len ->
              match Posix.recv env fd b ~pos ~len with
              | Ok n ->
                  Cost.charge_copy n;
                  n
              | Error _ -> 0);
          time_ns = (fun () -> Machine.now vm_host.Clientos.machine) }
      in
      let vm = Vm.create ~heap_size:(64 * 1024) ~bindings program in
      let t0 = Machine.now vm_host.Clientos.machine in
      ignore (Vm.run ~fuel:200_000_000 vm);
      (match direction with `Send -> ignore (Posix.shutdown env fd) | `Receive -> ());
      finished_ns := Machine.now vm_host.Clientos.machine - t0);
  Clientos.run tb ~until:(fun () -> !finished_ns > 0);
  float_of_int bytes *. 8e3 /. float_of_int !finished_ns

(* ---- chaos mode: ttcp under injected faults ---- *)

(* Position-dependent payload so delivery is provably byte-exact: any
   duplicated, reordered, or corrupted byte that leaks through TCP lands at
   the wrong position and is caught at the receiver. *)
let pattern pos = (pos * 131) land 0xff

type chaos_result = {
  goodput_mbit : float;  (* end-to-end, from the receiver's clock *)
  chaos_rexmits : int;   (* sender-stack data retransmissions *)
  wire_offered : int;
  wire_dropped : int;    (* frames netem discarded in transit *)
  byte_exact : bool;     (* every payload byte correct and accounted for *)
  rcv_badsum : int;      (* receiver-stack TCP checksum drops *)
  rcv_dups : int;        (* receiver-stack duplicate-segment drops *)
}

let chaos_transfer ?(seed = 42) ?(loss = 0.01) ?(corrupt = 0.0)
    ?(corrupt_min_len = 0) ?(duplicate = 0.0) ?(sg = false) ~sender ~receiver
    ~blocks ~blocksize () =
  Clientos.reset_globals ();
  Cost.config.Cost.sg_tx <- sg;
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let em =
    Netem.create ~seed
      ~policy:{ Netem.default_policy with loss; corrupt; corrupt_min_len; duplicate }
      ()
  in
  Wire.set_netem tb.Clientos.wire (Some em);
  let total = blocks * blocksize in
  let serve, _, rstats = setup receiver tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let _, connect, sstats = setup sender tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let recv_done = ref 0 and mismatches = ref 0 and received = ref 0 in
  serve ~port:5004 (fun s ->
      let buf = Bytes.create 16384 in
      let rec loop () =
        match s.recv buf 16384 with
        | 0 ->
            recv_done := Machine.now tb.Clientos.host_b.Clientos.machine;
            s.close ()
        | n ->
            for i = 0 to n - 1 do
              if Char.code (Bytes.get buf i) <> pattern (!received + i) then
                incr mismatches
            done;
            received := !received + n;
            loop ()
      in
      loop ());
  connect ~dst:(ip "10.0.0.2") ~port:5004 (fun s ->
      let block = Bytes.create blocksize in
      for b = 0 to blocks - 1 do
        for i = 0 to blocksize - 1 do
          Bytes.set block i (Char.chr (pattern ((b * blocksize) + i)))
        done;
        if s.send block blocksize <> blocksize then failwith "chaos: short send"
      done;
      s.close ());
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  Cost.config.Cost.sg_tx <- false;
  if !recv_done = 0 then failwith "chaos: transfer did not complete";
  { goodput_mbit = float_of_int total *. 8e3 /. float_of_int !recv_done;
    chaos_rexmits = sstats.rexmits ();
    wire_offered = Wire.frames_carried tb.Clientos.wire;
    wire_dropped = Wire.frames_dropped tb.Clientos.wire;
    byte_exact = (!mismatches = 0 && !received = total);
    rcv_badsum = rstats.tcp_badsum ();
    rcv_dups = rstats.tcp_dups () }

(* ---- long fat pipes: ttcp over a stretched wire ---- *)

(* Socket-buffer discipline for a longfat run.  [Lf_default] is the seed
   configuration (16-bit windows, fixed buffers); [Lf_manual] negotiates
   wscale and hand-sizes both ends' buffers to 2x the path BDP — the
   operator's recipe; [Lf_autotune] negotiates wscale and lets the stacks
   grow their own buffers (Cost.config.tcp_autotune). *)
type bufmode = Lf_default | Lf_manual | Lf_autotune

type longfat_result = {
  lf_mbit : float;          (* end-to-end goodput, receiver's clock *)
  lf_byte_exact : bool;
  lf_rexmits : int;
  lf_rcv_buf : int;         (* receiver buffer at the end of the run *)
  lf_persist_probes : int;  (* Linux only; 0 elsewhere *)
}

let longfat_transfer ?(seed = 42) ?(loss = 0.0) ~config ~rtt_ns ~bufmode ~bytes
    () =
  Clientos.reset_globals ();
  let saved_ws = Cost.config.Cost.tcp_wscale in
  let saved_at = Cost.config.Cost.tcp_autotune in
  (match bufmode with
  | Lf_default -> ()
  | Lf_manual -> Cost.config.Cost.tcp_wscale <- true
  | Lf_autotune ->
      Cost.config.Cost.tcp_wscale <- true;
      Cost.config.Cost.tcp_autotune <- true);
  Fdev.clear_drivers ();
  let tb =
    Clientos.make_testbed ~models:("3c905", "tulip")
      ~latency_ns:(max 1_000 (rtt_ns / 2)) ()
  in
  if loss > 0.0 then begin
    let em = Netem.create ~seed ~policy:{ Netem.default_policy with loss } () in
    Wire.set_netem tb.Clientos.wire (Some em)
  end;
  (* BDP at the wire's 100 Mbps: bytes = rate/8 * rtt.  Manual mode sizes
     to 2x BDP (headroom for ACK clocking), floored at the seed default. *)
  let bdp = rtt_ns / 80 in
  let manual =
    match bufmode with
    | Lf_manual -> Some (min Cost.config.Cost.tcp_sockbuf_max (max (64 * 1024) (2 * bdp)))
    | _ -> None
  in
  let recv_done = ref 0 and mismatches = ref 0 and received = ref 0 in
  let final_rcv_buf = ref 0 and persist_probes = ref 0 and rexmits = ref 0 in
  let check buf n =
    for i = 0 to n - 1 do
      if Char.code (Bytes.get buf i) <> pattern (!received + i) then incr mismatches
    done;
    received := !received + n
  in
  let blocksize = 16384 in
  (match config with
  | Oskit | Freebsd ->
      let stack_b = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let stack_a = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
          let ls = Bsd_socket.tcp_socket stack_b in
          ok (Bsd_socket.so_bind ls ~port:5005);
          ok (Bsd_socket.so_listen ls ~backlog:2);
          let c = ok (Bsd_socket.so_accept ls) in
          (match manual with
          | Some b ->
              Tcp.set_buffer_sizes c.Bsd_socket.pcb
                ~snd:c.Bsd_socket.pcb.Tcp.snd_buf.Sockbuf.sb_hiwat ~rcv:b
          | None -> ());
          let buf = Bytes.create blocksize in
          let rec loop () =
            match ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:blocksize) with
            | 0 ->
                final_rcv_buf := c.Bsd_socket.pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat;
                recv_done := Machine.now tb.Clientos.host_b.Clientos.machine;
                ignore (Bsd_socket.so_close c)
            | n ->
                check buf n;
                loop ()
          in
          loop ());
      Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
          Kclock.sleep_ns 2_000_000;
          let s = Bsd_socket.tcp_socket stack_a in
          (match manual with
          | Some b ->
              Tcp.set_buffer_sizes s.Bsd_socket.pcb ~snd:b
                ~rcv:s.Bsd_socket.pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat
          | None -> ());
          ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:5005);
          let block = Bytes.create blocksize in
          let rec push sent =
            if sent < bytes then begin
              let n = min blocksize (bytes - sent) in
              for i = 0 to n - 1 do
                Bytes.set block i (Char.chr (pattern (sent + i)))
              done;
              if ok (Bsd_socket.so_send s ~buf:block ~pos:0 ~len:n) <> n then
                failwith "longfat: short send";
              push (sent + n)
            end
          in
          push 0;
          rexmits :=
            stack_a.Bsd_socket.tcp.Tcp.stats.Tcp.sndrexmitpack
            + stack_a.Bsd_socket.tcp.Tcp.stats.Tcp.fastrexmit;
          ignore (Bsd_socket.so_close s))
  | Linux ->
      let stack_b = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let stack_a = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
          let ls = Linux_inet.socket stack_b in
          Linux_inet.bind stack_b ls ~port:5005;
          Linux_inet.listen stack_b ls ~backlog:2;
          let c = ok (Linux_inet.accept stack_b ls) in
          (match manual with Some b -> c.Linux_inet.rcv_buf_max <- b | None -> ());
          let buf = Bytes.create blocksize in
          let rec loop () =
            match ok (Linux_inet.recv stack_b c ~buf ~pos:0 ~len:blocksize) with
            | 0 ->
                final_rcv_buf := c.Linux_inet.rcv_buf_max;
                recv_done := Machine.now tb.Clientos.host_b.Clientos.machine;
                Linux_inet.close stack_b c
            | n ->
                check buf n;
                loop ()
          in
          loop ());
      Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
          Kclock.sleep_ns 2_000_000;
          let s = Linux_inet.socket stack_a in
          ok (Linux_inet.connect stack_a s ~dst:(ip "10.0.0.2") ~dport:5005);
          let block = Bytes.create blocksize in
          let rec push sent =
            if sent < bytes then begin
              let n = min blocksize (bytes - sent) in
              for i = 0 to n - 1 do
                Bytes.set block i (Char.chr (pattern (sent + i)))
              done;
              if ok (Linux_inet.send stack_a s ~buf:block ~pos:0 ~len:n) <> n then
                failwith "longfat: short send";
              push (sent + n)
            end
          in
          push 0;
          rexmits := stack_a.Linux_inet.rexmits;
          persist_probes :=
            stack_a.Linux_inet.persist_probes + stack_b.Linux_inet.persist_probes;
          Linux_inet.close stack_a s));
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  Cost.config.Cost.tcp_wscale <- saved_ws;
  Cost.config.Cost.tcp_autotune <- saved_at;
  if !recv_done = 0 then failwith "longfat: transfer did not complete";
  { lf_mbit = float_of_int bytes *. 8e3 /. float_of_int !recv_done;
    lf_byte_exact = (!mismatches = 0 && !received = bytes);
    lf_rexmits = !rexmits;
    lf_rcv_buf = !final_rcv_buf;
    lf_persist_probes = !persist_probes }

(* Forced zero window on the Linux stack: the receiver accepts, then sits
   on a full receive queue for [stall_ns] of virtual time before draining.
   The sender exhausts the advertised window and parks in [send]; only the
   persist timer talks during the stall.  Returns (persist probes sent,
   byte-exact). *)
let zero_window_run ?(stall_ns = 3_000_000_000) ?(bytes = 256 * 1024) () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let stack_b = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let stack_a = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let recv_done = ref 0 and mismatches = ref 0 and received = ref 0 in
  Clientos.spawn tb.Clientos.host_b ~name:"server" (fun () ->
      let ls = Linux_inet.socket stack_b in
      Linux_inet.bind stack_b ls ~port:5006;
      Linux_inet.listen stack_b ls ~backlog:2;
      let c = ok (Linux_inet.accept stack_b ls) in
      Kclock.sleep_ns stall_ns;
      let buf = Bytes.create 16384 in
      let rec loop () =
        match ok (Linux_inet.recv stack_b c ~buf ~pos:0 ~len:16384) with
        | 0 ->
            recv_done := Machine.now tb.Clientos.host_b.Clientos.machine;
            Linux_inet.close stack_b c
        | n ->
            for i = 0 to n - 1 do
              if Char.code (Bytes.get buf i) <> pattern (!received + i) then
                incr mismatches
            done;
            received := !received + n;
            loop ()
      in
      loop ());
  Clientos.spawn tb.Clientos.host_a ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Linux_inet.socket stack_a in
      ok (Linux_inet.connect stack_a s ~dst:(ip "10.0.0.2") ~dport:5006);
      let block = Bytes.create 16384 in
      let rec push sent =
        if sent < bytes then begin
          let n = min 16384 (bytes - sent) in
          for i = 0 to n - 1 do
            Bytes.set block i (Char.chr (pattern (sent + i)))
          done;
          if ok (Linux_inet.send stack_a s ~buf:block ~pos:0 ~len:n) <> n then
            failwith "zero_window: short send";
          push (sent + n)
        end
      in
      push 0;
      Linux_inet.close stack_a s);
  Clientos.run tb ~until:(fun () -> !recv_done > 0);
  ( stack_a.Linux_inet.persist_probes,
    !mismatches = 0 && !received = bytes )
