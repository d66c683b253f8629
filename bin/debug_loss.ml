(* Diagnostic tool: a 200 KB transfer between two native FreeBSD hosts
   with every 13th frame dropped on the wire, through the stream harness,
   then both stacks' counters and every pcb's state. *)

let () =
  let n = ref 0 in
  let bytes = 200 * 1024 in
  let r =
    Netbench.stream
      ~netem:(Netem.of_filter (fun _ -> incr n; !n mod 13 = 0))
      { Workload.table1 with
        sender = Endpoint.Freebsd; receiver = Endpoint.Freebsd; bytes; send_chunk = bytes;
        recv_chunk = 8192; delay_ns = 1_000_000 }
  in
  Printf.printf "done=%b received=%d/%d byte_exact=%b now=%.3fs dropped=%d\n" r.completed
    r.received bytes r.byte_exact
    (float_of_int (World.now r.testbed.Clientos.world) /. 1e9)
    r.wire_dropped;
  let bsd (ep : Endpoint.t) =
    match ep.stack with Endpoint.Bsd st -> st | Endpoint.Lx _ -> assert false
  in
  let sa = bsd r.tx and sb = bsd r.rx in
  let st = sa.Bsd_socket.tcp.Tcp.stats in
  Printf.printf "a: snd=%d rexmit=%d fast=%d drops=%d\n" st.Tcp.sndpack st.Tcp.sndrexmitpack
    st.Tcp.fastrexmit st.Tcp.drops;
  let stb = sb.Bsd_socket.tcp.Tcp.stats in
  Printf.printf "b: rcv=%d dup=%d oo=%d badsum=%d snd=%d\n" stb.Tcp.rcvpack stb.Tcp.rcvdup
    stb.Tcp.rcvoo stb.Tcp.rcvbadsum stb.Tcp.sndpack;
  List.iter
    (fun p ->
      Printf.printf
        "a pcb: %s snd_una=%d snd_nxt=%d snd_max=%d cwnd=%d wnd=%d sbcc=%d rexmt_armed=%b\n"
        (Tcp.state_name p.Tcp.t_state) p.Tcp.snd_una p.Tcp.snd_nxt p.Tcp.snd_max p.Tcp.snd_cwnd
        p.Tcp.snd_wnd p.Tcp.snd_buf.Sockbuf.sb_cc (Tcp.armed p Tcp.tw_rexmt))
    (Tcp.pcb_list sa.Bsd_socket.tcp);
  List.iter
    (fun p ->
      Printf.printf "b pcb: %s rcv_nxt=%d reass=%d rcvbuf=%d\n" (Tcp.state_name p.Tcp.t_state)
        p.Tcp.rcv_nxt (List.length p.Tcp.reass) p.Tcp.rcv_buf.Sockbuf.sb_cc)
    (Tcp.pcb_list sb.Bsd_socket.tcp);
  List.iter
    (fun (side, (ep : Endpoint.t)) ->
      List.iter
        (fun (name, e) -> Printf.printf "%s thread %s died: %s\n" side name (Printexc.to_string e))
        (Thread.failures (Kernel.sched ep.host.Clientos.kernel)))
    [ "a", r.tx; "b", r.rx ]
