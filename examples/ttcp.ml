(* ttcp — the bandwidth benchmark of Section 5 / Table 1, the kernel of the
   paper's Figure 3.

   Transmits blocks of bytes over TCP from a [sender] on one simulated PC
   to a [receiver] sink on another, across a 100 Mbps segment, each in one
   of three configurations:

     oskit    FreeBSD protocol stack over Linux drivers, all boundaries
              crossed through COM interfaces and glue (the paper's Fig. 3)
     freebsd  monolithic FreeBSD: same stack bound natively, no glue
     linux    monolithic Linux: the Linux inet stack over the same drivers

   The kernel is a recipe: two lib/ttcp endpoints and its ttcp workload on
   a plain testbed, the run the bench's Table 1 makes.  The defaults are
   Table 1's pairing and scale, OSKit sending to a FreeBSD sink, 2,048 x
   4,096 bytes, so a bare `ttcp` prints the committed OSKit send cell;
   `ttcp X` prints X's send cell and `ttcp freebsd X` X's receive cell.

   Usage: ttcp [sender] [receiver] [blocks] [blocksize]
   Defaults: oskit freebsd 2048 4096 *)

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let sender = Endpoint.config_of_string (arg 1 "oskit")
  and receiver = Endpoint.config_of_string (arg 2 "freebsd")
  and blocks = int_of_string (arg 3 "2048")
  and blocksize = int_of_string (arg 4 "4096") in
  let bytes = blocks * blocksize in
  Printf.printf "ttcp: %s -> %s, %d blocks x %d bytes = %d MB over 100 Mbps Ethernet\n%!"
    (Endpoint.config_name sender) (Endpoint.config_name receiver) blocks blocksize
    (bytes / 1024 / 1024);
  let r =
    Workload.ttcp (Clientos.make_testbed ())
      { Workload.table1 with sender; receiver; bytes; send_chunk = blocksize }
  in
  Printf.printf "  send:    %.4f Mbit/s over the sender's send loop\n" r.mbit_sender;
  Printf.printf "  receive: %.4f Mbit/s at the receiver's EOF\n" r.mbit_receiver;
  Printf.printf "  completed=%b received=%d byte_exact=%b\n" r.completed r.received r.byte_exact;
  Printf.printf "  data copies: %d   glue crossings: %d\n" r.counters.Cost.copies
    r.counters.Cost.glue_crossings;
  List.iter
    (fun (side, (ep : Endpoint.t)) ->
      let s = Endpoint.stats ep.stack in
      Printf.printf "  %s: rexmits=%d badsum=%d dups=%d nomem_drops=%d persist_probes=%d\n" side
        s.rexmits s.badsum s.dups s.nomem_drops s.persist_probes;
      List.iter
        (fun (name, e) ->
          Printf.printf "  %s thread %s died: %s\n" side name (Printexc.to_string e))
        (Thread.failures (Kernel.sched ep.host.Clientos.kernel)))
    [ "sender", r.tx; "receiver", r.rx ];
  if not r.byte_exact then exit 1
