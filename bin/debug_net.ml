(* Diagnostic tool: one TCP transfer between two hosts of one
   configuration, through the stream harness, with the outcome and both
   stacks' counters — the first thing to reach for when a stack change
   breaks the integration tests.

   usage: debug_net (freebsd|oskit|linux) <bytes> *)

let () =
  let config =
    match Sys.argv.(1) with
    | "freebsd" -> Netbench.Freebsd
    | "oskit" -> Netbench.Oskit
    | "linux" -> Netbench.Linux
    | _ -> failwith "usage: debug_net (freebsd|oskit|linux) <bytes>"
  in
  let bytes = int_of_string Sys.argv.(2) in
  let r =
    Netbench.stream
      { Netbench.ttcp with
        sender = config; receiver = config; bytes; send_chunk = bytes; recv_chunk = 8192 }
  in
  Printf.printf "%s %d: done=%b got=%d byte_exact=%b now=%dns rexmits=%d\n"
    (Netbench.config_name config) bytes r.completed r.received r.byte_exact
    (World.now r.testbed.Clientos.world) r.rexmits;
  List.iter
    (fun (side, (ep : Netbench.endpoint)) ->
      let s = Netbench.stats ep.stack in
      Printf.printf "%s: badsum=%d dups=%d nomem_drops=%d persist_probes=%d\n" side s.badsum
        s.dups s.nomem_drops s.persist_probes;
      List.iter
        (fun (name, e) -> Printf.printf "%s thread %s died: %s\n" side name (Printexc.to_string e))
        (Thread.failures (Kernel.sched ep.host.Clientos.kernel)))
    [ "sender", r.tx; "receiver", r.rx ]
