(* The TCP stream harness: the bench's and the tests' testbed wiring
   around the ttcp and rtcp workloads (lib/ttcp's Workload), the same
   bodies the example kernels run.  [stream] builds the testbed a transfer
   needs (NIC models, wire latency, netem, a fault injector, a tap) and
   may wrap its endpoints (retries, buffer overrides); [rtt] runs rtcp on
   a plain testbed.  Table 1/2, glue, copies, chaos, rtt, longfat,
   overload's soak and vmnet, the network test suites and the bin/
   diagnostics all drive TCP through it. *)

(* The sender retries short sends and Nomem, and a failed connect on a
   fresh socket (20 times, 10 ms apart), as a caller that sees ENOBUFS
   must. *)
let retrying (ep : Endpoint.t) =
  let send (c : Endpoint.conn) ~buf ~pos ~len =
    let rec go off =
      if off = len then Ok len
      else
        match c.send ~buf ~pos:(pos + off) ~len:(len - off) with
        | Ok n when n > 0 -> go (off + n)
        | Ok _ ->
            Kclock.sleep_ns 1_000_000;
            go off
        | Error Error.Nomem ->
            Kclock.sleep_ns 5_000_000;
            go off
        | Error e -> Error e
    in
    go 0
  in
  let rec connect tries ~dst ~port =
    match ep.connect ~dst ~port with
    | Ok c -> Ok { c with send = send c }
    | Error _ when tries < 20 ->
        Kclock.sleep_ns 10_000_000;
        connect (tries + 1) ~dst ~port
    | Error e -> Error e
  in
  { ep with connect = connect 0 }

(* A buffer override: a sender's send buffer, a receiver's receive buffer
   (the Linux stack's send side has no buffer to size), set as the
   connection is made. *)
let override_buffer ~sender size (ep : Endpoint.t) =
  let set (c : Endpoint.conn) =
    (match c.sock with
    | Endpoint.Bsd_sock s ->
        let pcb = s.Bsd_socket.pcb in
        if sender then Tcp.set_buffer_sizes pcb ~snd:size ~rcv:pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat
        else Tcp.set_buffer_sizes pcb ~snd:pcb.Tcp.snd_buf.Sockbuf.sb_hiwat ~rcv:size
    | Endpoint.Lx_sock s -> if not sender then s.Linux_inet.rcv_buf_max <- size
    | Endpoint.Fd _ -> invalid_arg "netbench: buffer override under the OSKit configuration");
    c
  in
  if sender then { ep with connect = (fun ~dst ~port -> Result.map set (ep.connect ~dst ~port)) }
  else
    { ep with
      listen =
        (fun ~port ~backlog ->
          let accept = ep.listen ~port ~backlog in
          fun () -> Result.map set (accept ())) }

(* ---- stream: ttcp ---- *)

(* One ttcp transfer [w] on a fresh testbed, host A (10.0.0.1) sending to
   host B (10.0.0.2).  [models] are the NIC models of hosts A and B,
   [latency_ns] the one-way wire latency (default 1 us); [fault] drops the
   frames it says and [tap] hears every delivered frame, with the time;
   [buffers] overrides the sender's send and receiver's receive buffer. *)
let stream ?models ?latency_ns ?netem ?fault ?tap ?(retry = false) ?buffers w =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ?models ?latency_ns () in
  let wire = tb.Clientos.wire in
  if Option.is_some netem then Wire.set_netem wire netem;
  if Option.is_some fault then Wire.set_fault_injector wire fault;
  Option.iter
    (fun f -> ignore (Wire.attach wire ~rx:(fun frame -> f (World.now tb.Clientos.world) frame)))
    tap;
  let adapt ~sender ep =
    let ep = if retry && sender then retrying ep else ep in
    match buffers with Some size -> override_buffer ~sender size ep | None -> ep
  in
  Workload.ttcp ~adapt tb w

(* ---- rtt: rtcp ---- *)

(* rtcp on a fresh testbed: each timed trip's virtual nanoseconds and the
   run's counters. *)
let rtt config ~trips =
  Clientos.reset_globals ();
  Workload.rtcp (Clientos.make_testbed ()) config ~trips

(* Section 6.2.6: throughput measured from inside the bytecode VM on the
   OSKit configuration.  The VM program loops sys_recv (or sys_send); the
   other side is a native FreeBSD peer. *)
let vm_throughput ~direction ~bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let vm_ep = Endpoint.setup Oskit tb.Clientos.host_a ~addr:Endpoint.addr_a in
  let peer = Endpoint.setup Freebsd tb.Clientos.host_b ~addr:Endpoint.addr_b in
  let machine = vm_ep.host.Clientos.machine in
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
  Clientos.spawn peer.host ~name:"peer" (fun () ->
      let c = Endpoint.ok (peer.listen ~port:Endpoint.port ~backlog:2 ()) in
      let buf = Bytes.make chunk 'V' in
      match direction with
      | `Receive ->
          (* Peer sends [bytes] to the VM. *)
          let rec push sent =
            if sent < bytes then
              push (sent + Endpoint.ok (c.send ~buf ~pos:0 ~len:(min chunk (bytes - sent))))
          in
          push 0;
          c.close ()
      | `Send ->
          let rec sink () = if Endpoint.ok (c.recv ~buf ~pos:0 ~len:chunk) > 0 then sink () in
          sink ());
  Clientos.spawn vm_ep.host ~name:"vm" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = Endpoint.ok (vm_ep.connect ~dst:Endpoint.addr_b ~port:Endpoint.port) in
      let copied = function
        | Ok n ->
            Cost.charge_copy n (* the VM-heap copy *);
            n
        | Error _ -> 0
      in
      let bindings =
        { Vm.putc = (fun _ -> ());
          send = (fun buf ~pos ~len -> copied (c.send ~buf ~pos ~len));
          recv = (fun buf ~pos ~len -> copied (c.recv ~buf ~pos ~len));
          time_ns = (fun () -> Machine.now machine) }
      in
      let vm = Vm.create ~heap_size:(64 * 1024) ~bindings program in
      let t0 = Machine.now machine in
      ignore (Vm.run ~fuel:200_000_000 vm);
      (match direction with `Send -> c.close () | `Receive -> ());
      finished_ns := Machine.now machine - t0);
  Clientos.run tb ~until:(fun () -> !finished_ns > 0);
  float_of_int bytes *. 8e3 /. float_of_int !finished_ns
