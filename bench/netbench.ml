(* The TCP stream harness: the one place the two-PC testbed runs a ttcp-
   or rtcp-shaped workload.  An endpoint sets up one host in any of the
   three system configurations (they interoperate on the wire); [stream]
   runs one bulk transfer between two endpoints and [rtt] one run of
   1-byte round trips, in virtual time.  Table 1/2, glue, copies, chaos,
   rtt, longfat, overload's soak and vmnet, the network test suites and
   the bin/ diagnostics all drive TCP through it, so every configuration
   runs the same way. *)

type config = Oskit | Freebsd | Linux

let config_name = function Oskit -> "OSKit" | Freebsd -> "FreeBSD" | Linux -> "Linux"

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("netbench: " ^ Error.to_string e)

(* Position-dependent payload so delivery is provably byte-exact: any
   duplicated, reordered, or corrupted byte that leaks through TCP lands at
   the wrong position and is caught at the receiver. *)
let pattern pos = (pos * 131) lxor (pos lsr 8) land 0xff

(* ---- endpoints ---- *)

(* The native stack under an endpoint (the OSKit configuration's is the
   FreeBSD stack behind its COM glue), and a connection's native socket
   (under the OSKit configuration, a POSIX descriptor). *)
type stack = Bsd of Bsd_socket.stack | Lx of Linux_inet.stack
type sock = Bsd_sock of Bsd_socket.tsock | Lx_sock of Linux_inet.sock | Fd of int

type conn = {
  send : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  recv : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  close : unit -> unit;
  sock : sock;
}

(* [listen ~port ~backlog] binds and listens, and returns the accept call
   for that socket; [connect] makes a fresh socket and connects it.  Both
   run inside a thread of [host]. *)
type endpoint = {
  host : Clientos.host;
  stack : stack;
  listen : port:int -> backlog:int -> unit -> (conn, Error.t) result;
  connect : dst:int32 -> port:int -> (conn, Error.t) result;
}

let setup config host ~addr =
  match config with
  | Oskit ->
      let env, stack = Clientos.oskit_host host ~ip:addr ~mask in
      (* An accepted descriptor closes; a connected one shuts down, as
         ttcp does. *)
      let conn fd close =
        { send = (fun ~buf ~pos ~len -> Posix.send env fd buf ~pos ~len);
          recv = (fun ~buf ~pos ~len -> Posix.recv env fd buf ~pos ~len);
          close = (fun () -> ignore (close env fd));
          sock = Fd fd }
      in
      let listen ~port ~backlog =
        let fd = ok (Posix.socket env Io_if.Sock_stream) in
        ok (Posix.bind env fd { Io_if.sin_addr = addr; sin_port = port });
        ok (Posix.listen env fd ~backlog);
        fun () -> Result.map (fun (c, _) -> conn c Posix.close) (Posix.accept env fd)
      in
      let connect ~dst ~port =
        let fd = ok (Posix.socket env Io_if.Sock_stream) in
        Posix.connect env fd { Io_if.sin_addr = dst; sin_port = port }
        |> Result.map (fun () -> conn fd Posix.shutdown)
      in
      { host; stack = Bsd stack; listen; connect }
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:addr ~mask in
      let conn s =
        { send = Bsd_socket.so_send s;
          recv = Bsd_socket.so_recv s;
          close = (fun () -> ignore (Bsd_socket.so_close s));
          sock = Bsd_sock s }
      in
      let listen ~port ~backlog =
        let ls = Bsd_socket.tcp_socket stack in
        ok (Bsd_socket.so_bind ls ~port);
        ok (Bsd_socket.so_listen ls ~backlog);
        fun () -> Result.map conn (Bsd_socket.so_accept ls)
      in
      let connect ~dst ~port =
        let s = Bsd_socket.tcp_socket stack in
        Result.map (fun () -> conn s) (Bsd_socket.so_connect s ~dst ~dport:port)
      in
      { host; stack = Bsd stack; listen; connect }
  | Linux ->
      let stack = Clientos.linux_host host ~ip:addr ~mask in
      let conn s =
        { send = Linux_inet.send stack s;
          recv = Linux_inet.recv stack s;
          close = (fun () -> Linux_inet.close stack s);
          sock = Lx_sock s }
      in
      let listen ~port ~backlog =
        let ls = Linux_inet.socket stack in
        Linux_inet.bind stack ls ~port;
        Linux_inet.listen stack ls ~backlog;
        fun () -> Result.map conn (Linux_inet.accept stack ls)
      in
      let connect ~dst ~port =
        let s = Linux_inet.socket stack in
        Result.map (fun () -> conn s) (Linux_inet.connect stack s ~dst ~dport:port)
      in
      { host; stack = Lx stack; listen; connect }

(* A stack's protocol counters, read when called: retransmissions prove
   loss was real; checksum and duplicate drops prove the receiver
   discarded what netem damaged or repeated. *)
type stack_stats = {
  rexmits : int;         (* data retransmissions *)
  badsum : int;          (* IP + TCP checksum drops *)
  dups : int;            (* duplicate-segment drops *)
  nomem_drops : int;     (* segments or frames dropped for want of a buffer *)
  persist_probes : int;  (* zero-window probes (the Linux stack's persist timer) *)
}

let stats = function
  | Bsd st ->
      let s = st.Bsd_socket.tcp.Tcp.stats and ip = st.Bsd_socket.ip in
      { rexmits = s.Tcp.sndrexmitpack + s.Tcp.fastrexmit;
        badsum = ip.Ip.badsum + s.Tcp.rcvbadsum;
        dups = s.Tcp.rcvdup;
        nomem_drops = s.Tcp.nomem_drops + ip.Ip.nomem_drops;
        persist_probes = 0 }
  | Lx st ->
      { rexmits = st.Linux_inet.rexmits;
        badsum = st.Linux_inet.ipbadsum + st.Linux_inet.tcpbadsum;
        dups = st.Linux_inet.rcvdup;
        nomem_drops = st.Linux_inet.nomem_drops;
        persist_probes = st.Linux_inet.persist_probes }

(* A connection's receive buffer, and a buffer override: a sender's send
   buffer, a receiver's receive buffer (the Linux stack's send side has
   no buffer to size). *)
let rcv_buf = function
  | Bsd_sock s -> s.Bsd_socket.pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat
  | Lx_sock s -> s.Linux_inet.rcv_buf_max
  | Fd _ -> 0

let override_buffer ~sender size = function
  | Bsd_sock s ->
      let pcb = s.Bsd_socket.pcb in
      if sender then Tcp.set_buffer_sizes pcb ~snd:size ~rcv:pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat
      else Tcp.set_buffer_sizes pcb ~snd:pcb.Tcp.snd_buf.Sockbuf.sb_hiwat ~rcv:size
  | Lx_sock s -> if not sender then s.Linux_inet.rcv_buf_max <- size
  | Fd _ -> invalid_arg "netbench: buffer override under the OSKit configuration"

(* The counters so far, copied: a run's result keeps its own. *)
let counters () = { Cost.counters with Cost.copies = Cost.counters.Cost.copies }

(* Every run of the harness listens on one port with a backlog of 2: the
   callers' different ports and backlogs moved no charged cycle. *)
let port = 5001

(* ---- stream: ttcp ---- *)

(* One bulk transfer from [sender] on host A (10.0.0.1) to [receiver] on
   host B (10.0.0.2), under the live configuration (a caller installs a
   profile around the run with [Cost.with_config]).  The fields are what
   the callers vary. *)
type stream = {
  sender : config;
  receiver : config;
  bytes : int;
  send_chunk : int;      (* bytes per send call *)
  recv_chunk : int;      (* bytes per receive call *)
  delay_ns : int;        (* the sender connects this long into the run *)
  models : string * string;  (* NIC models of hosts A and B *)
  latency_ns : int option;       (* one-way wire latency (default 1 us) *)
  netem : Netem.t option;
  fault : (bytes -> bool) option;  (* drop the frames it says *)
  tap : (int -> bytes -> unit) option;  (* hears every delivered frame, with the time *)
  stall_ns : int;        (* the receiver sleeps this long after accept *)
  retry : bool;
      (* retry short sends and Nomem, and a failed connect on a fresh
         socket (20 times, 10 ms apart), as a caller that sees ENOBUFS must *)
  buffers : int option;  (* override the sender's send and receiver's receive buffer *)
}

(* Table 1's transfer: 2,048 4 KB blocks, OSKit to a FreeBSD sink. *)
let ttcp =
  { sender = Oskit; receiver = Freebsd; bytes = 2048 * 4096; send_chunk = 4096;
    recv_chunk = 16384; delay_ns = 2_000_000;
    models = ("3c905", "tulip"); latency_ns = None; netem = None;
    fault = None; tap = None; stall_ns = 0; retry = false; buffers = None }

type result = {
  mbit_sender : float;    (* over the sender's send loop, ttcp-style *)
  mbit_receiver : float;  (* over the receiver's clock at EOF *)
  conn_ns : int;       (* the sender's clock from connect to close *)
  completed : bool;       (* the receiver read EOF *)
  received : int;
  byte_exact : bool;      (* ... after every byte, once, in order, right *)
  rexmits : int;          (* the sender stack's, at the end of the run *)
  sent_rexmits : int;     (* ... when its last send returned *)
  wire_carried : int;
  wire_dropped : int;     (* frames netem or the fault injector discarded *)
  persist_probes : int;   (* both stacks *)
  nomem_drops : int;      (* both stacks *)
  final_rcv_buf : int;    (* the receiver's buffer at EOF (0 under OSKit) *)
  counters : Cost.counters;  (* counted from the first event of the run *)
  tx : endpoint;
  rx : endpoint;
  tx_sock : sock option;  (* the sender's socket, once connected *)
  testbed : Clientos.testbed;
}

let stream d =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:d.models ?latency_ns:d.latency_ns () in
  let wire = tb.Clientos.wire in
  if Option.is_some d.netem then Wire.set_netem wire d.netem;
  if Option.is_some d.fault then Wire.set_fault_injector wire d.fault;
  (match d.tap with
  | Some f -> ignore (Wire.attach wire ~rx:(fun frame -> f (World.now tb.Clientos.world) frame))
  | None -> ());
  let rx = setup d.receiver tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let tx = setup d.sender tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let clock (ep : endpoint) = Machine.now ep.host.Clientos.machine in
  let received = ref 0 and mismatches = ref 0 and recv_done = ref 0 and final_rcv_buf = ref 0 in
  let tx_sock = ref None in
  let t_connect = ref 0 and t_sending = ref 0 and t_sent = ref 0 and t_closed = ref 0 in
  let sent_rexmits = ref 0 in
  Clientos.spawn rx.host ~name:"server" (fun () ->
      let c = ok (rx.listen ~port ~backlog:2 ()) in
      Option.iter (fun size -> override_buffer ~sender:false size c.sock) d.buffers;
      if d.stall_ns > 0 then Kclock.sleep_ns d.stall_ns;
      let buf = Bytes.create d.recv_chunk in
      let rec loop () =
        match ok (c.recv ~buf ~pos:0 ~len:d.recv_chunk) with
        | 0 ->
            final_rcv_buf := rcv_buf c.sock;
            recv_done := clock rx;
            c.close ()
        | n ->
            for i = 0 to n - 1 do
              if Char.code (Bytes.get buf i) <> pattern (!received + i) then incr mismatches
            done;
            received := !received + n;
            loop ()
      in
      loop ());
  Clientos.spawn tx.host ~name:"client" (fun () ->
      Kclock.sleep_ns d.delay_ns;
      t_connect := clock tx;
      let rec connect tries =
        match tx.connect ~dst:(ip "10.0.0.2") ~port with
        | Ok c -> c
        | Error _ when d.retry && tries < 20 ->
            Kclock.sleep_ns 10_000_000;
            connect (tries + 1)
        | Error e -> failwith ("netbench: connect: " ^ Error.to_string e)
      in
      let c = connect 0 in
      tx_sock := Some c.sock;
      Option.iter (fun size -> override_buffer ~sender:true size c.sock) d.buffers;
      t_sending := clock tx;
      let block = Bytes.create d.send_chunk in
      let rec send_all off len =
        if off < len then
          match c.send ~buf:block ~pos:off ~len:(len - off) with
          | Ok n when n > 0 && (d.retry || n = len - off) -> send_all (off + n) len
          | Ok 0 when d.retry ->
              Kclock.sleep_ns 1_000_000;
              send_all off len
          | Error Error.Nomem when d.retry ->
              Kclock.sleep_ns 5_000_000;
              send_all off len
          | Ok _ -> failwith "netbench: short send"
          | Error e -> failwith ("netbench: send: " ^ Error.to_string e)
      in
      let rec push sent =
        if sent < d.bytes then begin
          let n = min d.send_chunk (d.bytes - sent) in
          for i = 0 to n - 1 do
            Bytes.set block i (Char.chr (pattern (sent + i)))
          done;
          send_all 0 n;
          push (sent + n)
        end
      in
      push 0;
      t_sent := clock tx;
      sent_rexmits := (stats tx.stack).rexmits;
      c.close ();
      t_closed := clock tx);
  Cost.reset_counters ();
  (* A run that livelocks stops at the world's fuel limit and reports
     itself not completed, with its endpoints, for the caller to inspect. *)
  (try Clientos.run tb ~until:(fun () -> !recv_done > 0) with World.Out_of_fuel -> ());
  let ts = stats tx.stack and rs = stats rx.stack in
  let mbit ns = float_of_int d.bytes *. 8e3 /. float_of_int ns in
  { mbit_sender = mbit (!t_sent - !t_sending);
    mbit_receiver = mbit !recv_done;
    conn_ns = !t_closed - !t_connect;
    completed = !recv_done > 0;
    received = !received;
    byte_exact = !recv_done > 0 && !mismatches = 0 && !received = d.bytes;
    rexmits = ts.rexmits;
    sent_rexmits = !sent_rexmits;
    wire_carried = Wire.frames_carried wire;
    wire_dropped = Wire.frames_dropped wire;
    persist_probes = ts.persist_probes + rs.persist_probes;
    nomem_drops = ts.nomem_drops + rs.nomem_drops;
    final_rcv_buf = !final_rcv_buf;
    counters = counters ();
    tx; rx; tx_sock = !tx_sock; testbed = tb }

(* ---- rtt: rtcp ---- *)

(* 1-byte round trips, both sides in [config]: one warm-up trip, then
   [trips] timed ones on the client's clock.  Returns each trip's virtual
   nanoseconds (reading the clock charges nothing, so they sum to the
   whole run's time) and the run's counters. *)
let rtt config ~trips =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let server = setup config tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let client = setup config tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let samples = Array.make trips 0 and finished = ref false in
  Clientos.spawn server.host ~name:"server" (fun () ->
      let c = ok (server.listen ~port ~backlog:2 ()) in
      let buf = Bytes.create 1 in
      let rec loop () =
        match ok (c.recv ~buf ~pos:0 ~len:1) with
        | 0 -> c.close ()
        | _ ->
            ignore (ok (c.send ~buf ~pos:0 ~len:1));
            loop ()
      in
      loop ());
  Clientos.spawn client.host ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (client.connect ~dst:(ip "10.0.0.2") ~port) in
      let one = Bytes.make 1 'R' and buf = Bytes.create 1 in
      let trip () =
        ignore (ok (c.send ~buf:one ~pos:0 ~len:1));
        ignore (ok (c.recv ~buf ~pos:0 ~len:1))
      in
      trip ();
      let machine = client.host.Clientos.machine in
      for i = 0 to trips - 1 do
        let t0 = Machine.now machine in
        trip ();
        samples.(i) <- Machine.now machine - t0
      done;
      finished := true;
      c.close ());
  Clientos.run tb ~until:(fun () -> !finished);
  samples, counters ()

(* Section 6.2.6: throughput measured from inside the bytecode VM on the
   OSKit configuration.  The VM program loops sys_recv (or sys_send); the
   other side is a native FreeBSD peer. *)
let vm_throughput ~direction ~bytes =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let vm_ep = setup Oskit tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let peer = setup Freebsd tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
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
      let c = ok (peer.listen ~port ~backlog:2 ()) in
      let buf = Bytes.make chunk 'V' in
      match direction with
      | `Receive ->
          (* Peer sends [bytes] to the VM. *)
          let rec push sent =
            if sent < bytes then
              push (sent + ok (c.send ~buf ~pos:0 ~len:(min chunk (bytes - sent))))
          in
          push 0;
          c.close ()
      | `Send ->
          let rec sink () = if ok (c.recv ~buf ~pos:0 ~len:chunk) > 0 then sink () in
          sink ());
  Clientos.spawn vm_ep.host ~name:"vm" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (vm_ep.connect ~dst:(ip "10.0.0.2") ~port) in
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
