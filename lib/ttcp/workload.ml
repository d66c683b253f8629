(* The ttcp and rtcp workloads of the paper's Section 5 (Figure 3's
   kernel), each one run over an already-built testbed: [ttcp] is one bulk
   transfer from host A to host B (Table 1), [rtcp] one run of 1-byte round
   trips (Table 2), both in virtual time under the live configuration (a
   caller installs a profile around the run with [Cost.with_config]).  The
   example kernels, the bench harness and the network tests all run these
   bodies, so the kernel a reader runs is the one whose numbers are
   published. *)

let ok = Endpoint.ok

(* The counters so far, copied: a run's result keeps its own. *)
let counters () = { Cost.counters with Cost.copies = Cost.counters.Cost.copies }

(* A host's ledger: the ns its CPUs charged to each layer, in
   [Cost.layers] order, and the glue crossings it made at each site, in
   [Cost.sites] order.  [since a b] is what was charged and crossed from
   [a] to [b]. *)
type ledger = { busy : int array; crossings : int array }

let ledger (h : Clientos.host) =
  let m = h.Clientos.machine in
  { busy = Array.of_list (List.map (fun (l, _) -> Machine.ledger m l) Cost.layers);
    crossings = Array.of_list (List.map (fun (s, _) -> Machine.crossings m s) Cost.sites) }

let since a b =
  { busy = Array.map2 ( - ) b.busy a.busy; crossings = Array.map2 ( - ) b.crossings a.crossings }

(* Calls around a run's timed span, for a caller that measures the host
   simulating it (the bench's allocation columns): [start] just before the
   span's first event, [stop] just after its last.  Building the testbed
   and the endpoints falls outside the span. *)
type span = { start : unit -> unit; stop : unit -> unit }

let no_span = { start = ignore; stop = ignore }

(* Every run ends within this much virtual time: one hour, over a hundred
   times the longest transfer any caller makes (the longfat bench's FreeBSD
   transfer of 2.5 MB over a 50 ms path losing 3% of its frames, about
   27 s).  A run that cannot finish — a receiver that never reads, a
   livelocked connection — would otherwise keep its timers firing until
   the world's event fuel runs out. *)
let time_limit_ns = 3_600 * 1_000_000_000

(* Run [tb] until [finished ()] or until [time_limit_ns] of virtual time
   has passed, whichever comes first; the world's clock stops at the limit.
   Returns [finished ()]. *)
let run_limited (tb : Clientos.testbed) ~finished =
  let expired = ref false in
  let limit = World.after tb.Clientos.world time_limit_ns (fun () -> expired := true) in
  Clientos.run tb ~until:(fun () -> finished () || !expired);
  World.cancel limit;
  finished ()

(* ---- ttcp: push and sink ---- *)

(* The transfer: [sender] on host A pushes [bytes] of [Endpoint.pattern]
   to a [receiver] sink on host B. *)
type ttcp = {
  sender : Endpoint.config;
  receiver : Endpoint.config;
  bytes : int;
  send_chunk : int;      (* bytes per send call *)
  recv_chunk : int;      (* bytes per receive call *)
  delay_ns : int;        (* the sender connects this long into the run *)
  stall_ns : int;        (* the receiver sleeps this long after accept *)
}

(* Table 1's transfer: 2,048 4 KB blocks, OSKit to a FreeBSD sink. *)
let table1 =
  { sender = Endpoint.Oskit; receiver = Endpoint.Freebsd; bytes = 2048 * 4096; send_chunk = 4096;
    recv_chunk = 16384; delay_ns = 2_000_000; stall_ns = 0 }

type result = {
  mbit_sender : float;    (* over the sender's send loop, ttcp-style *)
  mbit_receiver : float;  (* over the receiver's clock at EOF *)
  conn_ns : int;       (* the sender's clock from connect to close *)
  completed : bool;       (* the receiver read EOF within [time_limit_ns] *)
  received : int;
  byte_exact : bool;      (* ... after every byte, once, in order, right *)
  rexmits : int;          (* the sender stack's, at the end of the run *)
  sent_rexmits : int;     (* ... when its last send returned *)
  wire_carried : int;
  wire_dropped : int;     (* frames netem discarded *)
  persist_probes : int;   (* both stacks *)
  nomem_drops : int;      (* both stacks *)
  final_rcv_buf : int;    (* the receiver's buffer at EOF (0 under OSKit) *)
  counters : Cost.counters;  (* counted from the first event of the run *)
  tx_ledger : ledger;     (* each host's, over the same span as [counters] *)
  rx_ledger : ledger;
  tx : Endpoint.t;
  rx : Endpoint.t;
  tx_sock : Endpoint.sock option;  (* the sender's socket, once connected *)
  testbed : Clientos.testbed;
}

(* [adapt] may wrap each endpoint ([sender] says which) before the run
   uses it; [span] brackets the run itself. *)
let ttcp ?(adapt = fun ~sender:_ ep -> ep) ?(span = no_span) (tb : Clientos.testbed) w =
  let tx, rx = Endpoint.pair tb ~a:w.sender ~b:w.receiver in
  let tx = adapt ~sender:true tx and rx = adapt ~sender:false rx in
  let clock (ep : Endpoint.t) = Machine.now ep.host.Clientos.machine in
  let received = ref 0 and mismatches = ref 0 and recv_done = ref 0 and final_rcv_buf = ref 0 in
  let tx_sock = ref None in
  let t_connect = ref 0 and t_sending = ref 0 and t_sent = ref 0 and t_closed = ref 0 in
  let sent_rexmits = ref 0 in
  Clientos.spawn rx.host ~name:"server" (fun () ->
      let c = ok (rx.listen ~port:Endpoint.port ~backlog:2 ()) in
      if w.stall_ns > 0 then Kclock.sleep_ns w.stall_ns;
      let buf = Bytes.create w.recv_chunk in
      let rec sink () =
        match ok (c.recv ~buf ~pos:0 ~len:w.recv_chunk) with
        | 0 ->
            final_rcv_buf := Endpoint.rcv_buf c.sock;
            recv_done := clock rx;
            c.close ()
        | n ->
            for i = 0 to n - 1 do
              if Char.code (Bytes.get buf i) <> Endpoint.pattern (!received + i) then
                incr mismatches
            done;
            received := !received + n;
            sink ()
      in
      sink ());
  Clientos.spawn tx.host ~name:"client" (fun () ->
      Kclock.sleep_ns w.delay_ns;
      t_connect := clock tx;
      let c = ok (tx.connect ~dst:Endpoint.addr_b ~port:Endpoint.port) in
      tx_sock := Some c.sock;
      t_sending := clock tx;
      let block = Bytes.create w.send_chunk in
      let rec push sent =
        if sent < w.bytes then begin
          let n = min w.send_chunk (w.bytes - sent) in
          for i = 0 to n - 1 do
            Bytes.set block i (Char.chr (Endpoint.pattern (sent + i)))
          done;
          if ok (c.send ~buf:block ~pos:0 ~len:n) <> n then failwith "ttcp: short send";
          push (sent + n)
        end
      in
      push 0;
      t_sent := clock tx;
      sent_rexmits := (Endpoint.stats tx.stack).rexmits;
      c.close ();
      t_closed := clock tx);
  Cost.reset_counters ();
  let tx0 = ledger tx.host and rx0 = ledger rx.host in
  (* A run that cannot finish stops at the time limit (or, livelocked at
     one instant, at the world's fuel limit) and reports itself not
     completed, with its endpoints, for the caller to inspect. *)
  span.start ();
  (try ignore (run_limited tb ~finished:(fun () -> !recv_done > 0))
   with World.Out_of_fuel -> ());
  span.stop ();
  let ts = Endpoint.stats tx.stack and rs = Endpoint.stats rx.stack in
  let mbit ns = float_of_int w.bytes *. 8e3 /. float_of_int ns in
  { mbit_sender = mbit (!t_sent - !t_sending);
    mbit_receiver = mbit !recv_done;
    conn_ns = !t_closed - !t_connect;
    completed = !recv_done > 0;
    received = !received;
    byte_exact = !recv_done > 0 && !mismatches = 0 && !received = w.bytes;
    rexmits = ts.rexmits;
    sent_rexmits = !sent_rexmits;
    wire_carried = Wire.frames_carried tb.Clientos.wire;
    wire_dropped = Wire.frames_dropped tb.Clientos.wire;
    persist_probes = ts.persist_probes + rs.persist_probes;
    nomem_drops = ts.nomem_drops + rs.nomem_drops;
    final_rcv_buf = !final_rcv_buf;
    counters = counters ();
    tx_ledger = since tx0 (ledger tx.host);
    rx_ledger = since rx0 (ledger rx.host);
    tx; rx; tx_sock = !tx_sock; testbed = tb }

(* ---- rtcp: echo and timed trips ---- *)

type trips = {
  samples : int array;  (* each finished timed trip's virtual ns, in order *)
  finished : bool;      (* every trip finished within [time_limit_ns] *)
  counters : Cost.counters;
  ledgers : ledger * ledger;  (* the client's and the server's, whole run *)
}

(* 1-byte round trips, both sides in [config]: one warm-up trip, then
   [trips] timed ones on the client's clock.  Returns each finished
   trip's virtual nanoseconds (reading the clock charges nothing, so they
   sum to the whole run's time), whether all of them finished, and the
   run's counters and both hosts' ledgers, from the testbed's start. *)
let rtcp (tb : Clientos.testbed) config ~trips =
  let client, server = Endpoint.pair tb ~a:config ~b:config in
  let samples = Array.make trips 0 and timed = ref 0 and finished = ref false in
  Clientos.spawn server.host ~name:"server" (fun () ->
      let c = ok (server.listen ~port:Endpoint.port ~backlog:2 ()) in
      let buf = Bytes.create 1 in
      let rec echo () =
        match ok (c.recv ~buf ~pos:0 ~len:1) with
        | 0 -> c.close ()
        | _ ->
            ignore (ok (c.send ~buf ~pos:0 ~len:1));
            echo ()
      in
      echo ());
  Clientos.spawn client.host ~name:"client" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (client.connect ~dst:Endpoint.addr_b ~port:Endpoint.port) in
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
        samples.(i) <- Machine.now machine - t0;
        timed := i + 1
      done;
      finished := true;
      c.close ());
  let finished = run_limited tb ~finished:(fun () -> !finished) in
  { samples = Array.sub samples 0 !timed; finished; counters = counters ();
    ledgers = ledger client.host, ledger server.host }
