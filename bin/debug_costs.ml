(* Sweep cost knobs to see per-component contribution to ttcp elapsed.
   Each run is the paper profile with the named costs zeroed. *)
let run label profile =
  Cost.with_config profile @@ fun () ->
  Clientos.reset_globals ();
  let ip = Oskit.ip_of_string in
  let mask = ip "255.255.255.0" in
  let ok = function Ok v -> v | Error e -> failwith (Error.to_string e) in
  let tb = Clientos.make_testbed () in
  let sa = Clientos.freebsd_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
  let sb = Clientos.freebsd_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
  let bytes = 4 * 1024 * 1024 in
  let done_flag = ref false in
  let t0 = ref 0 and t1 = ref 0 in
  Clientos.spawn tb.Clientos.host_b (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:1);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 16384 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:16384) with
        | 0 -> (t1 := Machine.now tb.Clientos.host_b.Clientos.machine; done_flag := true)
        | _ -> loop ()
      in loop ());
  Clientos.spawn tb.Clientos.host_a (fun () ->
      Kclock.sleep_ns 2_000_000;
      t0 := Machine.now tb.Clientos.host_a.Clientos.machine;
      let s = Bsd_socket.tcp_socket sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.0.0.2") ~dport:5001);
      let data = Bytes.make 16384 'x' in
      for _ = 1 to bytes / 16384 do ignore (ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:16384)) done;
      ok (Bsd_socket.so_close s));
  Clientos.run tb ~until:(fun () -> !done_flag);
  Printf.printf "%-28s %6.2f Mbit/s  (segments=%d acks~=%d)\n%!" label
    (float_of_int bytes *. 8e3 /. float_of_int (!t1 - !t0))
    sa.Bsd_socket.tcp.Tcp.stats.Tcp.sndpack sb.Bsd_socket.tcp.Tcp.stats.Tcp.sndpack

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
