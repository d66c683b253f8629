(* The FreeBSD character drivers (tty core + glue) and their coexistence
   with the Linux driver set in one probe — Section 3.6's "the FreeBSD
   drivers work alongside the Linux drivers without a problem". *)

let ok = Endpoint.ok

let make_machine_with_tty () =
  Fdev.clear_drivers ();
  let w = World.create () in
  let m = Machine.create ~name:"tty-pc" w in
  let sched = Thread.create_sched m in
  Thread.install sched;
  let serial = Serial.create ~machine:m ~irq:4 () in
  Bus.register_hw m (Bus.Hw_serial { model = "sio-16550"; serial });
  w, m, sched, serial

let test_tty_read_write () =
  let w, m, sched, serial = make_machine_with_tty () in
  Freebsd_dev_glue.init_char_devices ();
  let osenv = Osenv.create m in
  ignore (Fdev.probe osenv);
  match Fdev.lookup osenv Io_if.chario_iid with
  | [ cio ] ->
      let got = ref "" in
      Thread.spawn sched ~name:"reader" (fun () ->
          let buf = Bytes.create 16 in
          (* Blocks until the "user" types. *)
          let n = ok (cio.Io_if.cio_read ~buf ~pos:0 ~amount:16) in
          got := Bytes.sub_string buf 0 n;
          (* And write a prompt back out the UART. *)
          let msg = Bytes.of_string "ok> " in
          ignore (ok (cio.Io_if.cio_write ~buf:msg ~pos:0 ~amount:4)));
      Machine.kick m;
      (* Simulate input arriving on the line after 1 ms. *)
      ignore (Machine.at m 1_000_000 (fun () -> Serial.inject serial "hi"));
      World.run w;
      Alcotest.(check string) "read blocked then returned input" "hi" !got;
      Alcotest.(check string) "write reached the UART" "ok> " (Serial.captured_output serial)
  | l -> Alcotest.failf "expected 1 chario, got %d" (List.length l)

let test_posix_console_fd () =
  let w, m, sched, serial = make_machine_with_tty () in
  Freebsd_dev_glue.init_char_devices ();
  let osenv = Osenv.create m in
  ignore (Fdev.probe osenv);
  let cio =
    match Fdev.lookup osenv Io_if.chario_iid with [ c ] -> c | _ -> Alcotest.fail "no tty"
  in
  (* Install the tty as a descriptor and drive it with POSIX write. *)
  let env = Posix.create_env () in
  let fd = Posix.install_chario env cio in
  let finished = ref false in
  Thread.spawn sched (fun () ->
      let b = Bytes.of_string "console via write(2)\n" in
      let n = ok (Posix.write env fd b ~pos:0 ~len:(Bytes.length b)) in
      Alcotest.(check int) "full write" (Bytes.length b) n;
      finished := true);
  Machine.kick m;
  World.run w ~until:(fun () -> !finished);
  Alcotest.(check string) "appeared on the console" "console via write(2)\n"
    (Serial.captured_output serial)

let test_mixed_donor_probe () =
  (* One machine with a Linux NIC, a Linux IDE disk, and a FreeBSD tty:
     all three driver sets probe side by side. *)
  Fdev.clear_drivers ();
  let w = World.create () in
  let m = Machine.create ~name:"mixed-pc" w in
  let wire = Wire.create w in
  Bus.register_hw m
    (Bus.Hw_nic
       { model = "tulip";
         nic = Nic.create ~machine:m ~wire ~mac:"\x02\x00\x00\x00\x07\x01" ~irq:9 () });
  Bus.register_hw m
    (Bus.Hw_disk { model = "ST-3491A"; disk = Disk.create ~machine:m ~sectors:2048 ~irq:14 () });
  Bus.register_hw m
    (Bus.Hw_serial { model = "syscons"; serial = Serial.create ~machine:m ~irq:4 () });
  Linux_glue.init_ethernet ();
  Linux_glue.init_ide ();
  Freebsd_dev_glue.init_char_devices ();
  let osenv = Osenv.create m in
  let found = Fdev.probe osenv in
  Alcotest.(check int) "three devices from two donor OSes" 3 found;
  Alcotest.(check int) "etherdev (linux)" 1 (List.length (Fdev.lookup osenv Io_if.etherdev_iid));
  Alcotest.(check int) "blkio (linux)" 1 (List.length (Fdev.lookup osenv Io_if.blkio_iid));
  Alcotest.(check int) "chario (freebsd)" 1 (List.length (Fdev.lookup osenv Io_if.chario_iid));
  Fdev.clear_drivers ()

let test_input_overflow_counted () =
  let w, m, _sched, serial = make_machine_with_tty () in
  let osenv = Osenv.create m in
  match Freebsd_char_drv.probe_ttys osenv with
  | [ tty ] ->
      Freebsd_char_drv.tty_open osenv tty;
      (* Nobody reads; flood the line far past the clist limit. *)
      ignore (Machine.at m 1000 (fun () -> Serial.inject serial (String.make 600 'x')));
      World.run w;
      Alcotest.(check bool) "overflow recorded" true (tty.Freebsd_char_drv.t_overflows > 0);
      Alcotest.(check int) "queue capped at the clist limit" 256
        (Queue.length tty.Freebsd_char_drv.t_canq)
  | _ -> Alcotest.fail "tty not probed"

let suite =
  [ Alcotest.test_case "tty blocking read/write" `Quick test_tty_read_write;
    Alcotest.test_case "posix console descriptor" `Quick test_posix_console_fd;
    Alcotest.test_case "mixed-donor probe" `Quick test_mixed_donor_probe;
    Alcotest.test_case "input overflow" `Quick test_input_overflow_counted ]
