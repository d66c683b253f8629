let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let ok = function Ok v -> v | Error e -> failwith (Error.to_string e)

let () =
  let w = World.create () in
  World.set_fuel w 2_000_000;
  let wire = Wire.create w in
  let mk name mac ipaddr =
    let machine = Machine.create ~name w in
    let sched = Thread.create_sched machine in
    Thread.install sched;
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
    let stack = Bsd_socket.create_stack machine ~hwaddr:mac ~name in
    Native_if.attach stack nic;
    Bsd_socket.ifconfig stack ~addr:(ip ipaddr) ~mask;
    machine, sched, stack
  in
  let ma, ka, sa = mk "tcp-a" "\x02\x00\x00\x00\x01\x0a" "10.2.0.1" in
  let mb, kb, sb = mk "tcp-b" "\x02\x00\x00\x00\x01\x0b" "10.2.0.2" in
  let n = ref 0 in
  Wire.set_fault_injector wire (Some (fun _ -> incr n; !n mod 13 = 0));
  let bytes = 200 * 1024 in
  let data = Bytes.init bytes (fun i -> Char.chr ((i * 31) land 0xff)) in
  let received = Buffer.create bytes in
  let done_flag = ref false in
  Thread.spawn kb ~name:"server" (fun () ->
      let ls = Bsd_socket.tcp_socket sb in
      ok (Bsd_socket.so_bind ls ~port:5001);
      ok (Bsd_socket.so_listen ls ~backlog:5);
      let conn = ok (Bsd_socket.so_accept ls) in
      let buf = Bytes.create 8192 in
      let rec loop () =
        match ok (Bsd_socket.so_recv conn ~buf ~pos:0 ~len:8192) with
        | 0 -> done_flag := true
        | k -> Buffer.add_subbytes received buf 0 k; loop ()
      in loop ());
  Machine.kick mb;
  Thread.spawn ka ~name:"client" (fun () ->
      Kclock.sleep_ns 1_000_000;
      let s = Bsd_socket.tcp_socket sa in
      ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:5001);
      let _ = ok (Bsd_socket.so_send s ~buf:data ~pos:0 ~len:bytes) in
      ok (Bsd_socket.so_close s));
  Machine.kick ma;
  (try World.run w ~until:(fun () -> !done_flag) with World.Out_of_fuel ->
    print_endline "OUT OF FUEL");
  Printf.printf "done=%b received=%d/%d now=%.3fs dropped=%d\n" !done_flag
    (Buffer.length received) bytes (float_of_int (World.now w) /. 1e9)
    (Wire.frames_dropped wire);
  let st = sa.Bsd_socket.tcp.Tcp.stats in
  Printf.printf "a: snd=%d rexmit=%d fast=%d drops=%d\n" st.Tcp.sndpack st.Tcp.sndrexmitpack st.Tcp.fastrexmit st.Tcp.drops;
  let stb = sb.Bsd_socket.tcp.Tcp.stats in
  Printf.printf "b: rcv=%d dup=%d oo=%d badsum=%d snd=%d\n" stb.Tcp.rcvpack stb.Tcp.rcvdup stb.Tcp.rcvoo stb.Tcp.rcvbadsum stb.Tcp.sndpack;
  List.iter (fun p -> Printf.printf "a pcb: %s snd_una=%d snd_nxt=%d snd_max=%d cwnd=%d wnd=%d sbcc=%d rexmt_armed=%b\n"
    (Tcp.state_name p.Tcp.t_state) p.Tcp.snd_una p.Tcp.snd_nxt p.Tcp.snd_max p.Tcp.snd_cwnd p.Tcp.snd_wnd p.Tcp.snd_buf.Sockbuf.sb_cc (Tcp.armed p Tcp.tw_rexmt))
    sa.Bsd_socket.tcp.Tcp.pcbs;
  List.iter (fun p -> Printf.printf "b pcb: %s rcv_nxt=%d reass=%d rcvbuf=%d\n"
    (Tcp.state_name p.Tcp.t_state) p.Tcp.rcv_nxt (List.length p.Tcp.reass) p.Tcp.rcv_buf.Sockbuf.sb_cc)
    sb.Bsd_socket.tcp.Tcp.pcbs;
  List.iter (fun (n,e) -> Printf.printf "a thread %s died: %s\n" n (Printexc.to_string e)) (Thread.failures ka);
  List.iter (fun (n,e) -> Printf.printf "b thread %s died: %s\n" n (Printexc.to_string e)) (Thread.failures kb)
