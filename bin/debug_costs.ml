(* Sweep cost knobs to see per-component contribution to ttcp elapsed.
   Each run is the paper profile with the named costs zeroed: 4 MB from
   one native FreeBSD host to another, through the stream harness. *)
let run label profile =
  let r =
    Cost.with_config profile @@ fun () ->
    Netbench.stream
      { Netbench.ttcp with
        sender = Netbench.Freebsd; receiver = Netbench.Freebsd; bytes = 4 * 1024 * 1024;
        send_chunk = 16384 }
  in
  let segments (ep : Netbench.endpoint) =
    match ep.stack with
    | Netbench.Bsd st -> st.Bsd_socket.tcp.Tcp.stats.Tcp.sndpack
    | Netbench.Lx _ -> 0
  in
  Printf.printf "%-28s %6.2f Mbit/s  (segments=%d acks~=%d)\n%!" label r.mbit_receiver
    (segments r.tx) (segments r.rx)

let () =
  let p = Cost.paper () in
  run "defaults" p;
  run "no copies" { p with Cost.copy_cycles_per_byte = 0 };
  run "no checksum" { p with Cost.checksum_cycles_per_byte = 0 };
  run "no tcp pkt cost" { p with Cost.bsd_tcp_pkt_cycles = 0 };
  run "no driver pkt cost" { p with Cost.linux_driver_pkt_cycles = 0 };
  run "no alloc cost" { p with Cost.alloc_cycles = 0 };
  run "no irq cost" { p with Cost.irq_entry_cycles = 0 };
  run "everything free"
    { p with
      Cost.copy_cycles_per_byte = 0;
      checksum_cycles_per_byte = 0;
      bsd_tcp_pkt_cycles = 0;
      linux_driver_pkt_cycles = 0;
      alloc_cycles = 0;
      irq_entry_cycles = 0;
      socket_op_cycles = 0 }
