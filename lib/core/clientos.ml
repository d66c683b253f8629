type host = { machine : Machine.t; kernel : Kernel.t; nic : Nic.t }
type testbed = { world : World.t; wire : Wire.t; host_a : host; host_b : host }

let reset_globals () =
  Fdev.clear_drivers ();
  (* Warm buffer pools would make a repeated simulation cheaper than its
     first run; every run starts cold. *)
  Mbuf.pool_reset ();
  Skbuff.pool_reset ();
  (* Counters only: the cost *configuration* belongs to the experiment
     (ablations sweep it around individual runs). *)
  Cost.reset_counters ();
  (* The allocation-failure injector re-seeds from the profile already
     installed, and RSS steers by the boot key: a run replays exactly
     whatever ran before it. *)
  Memfault.reset ();
  Rss.reboot ()

(* The NIC's MAC is fixed by the host's position in the testbed: the
   locally administered 02:00:00:00:00:[last]. *)
let make_host world wire ~name ~model ~ram_bytes ~last =
  let machine = Machine.create ~name ~ram_bytes world in
  let kernel = Kernel.create machine in
  let mac = "\x02\x00\x00\x00\x00" ^ String.make 1 (Char.chr last) in
  let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
  Bus.register_hw machine (Bus.Hw_nic { model; nic });
  { machine; kernel; nic }

let make_testbed ?(models = "3c905", "tulip") ?(ram_bytes = 8 * 1024 * 1024)
    ?bandwidth_bps ?latency_ns () =
  reset_globals ();
  let world = World.create () in
  let wire = Wire.create ?bandwidth_bps ?latency_ns world in
  let model_a, model_b = models in
  let host_a = make_host world wire ~name:"pc-a" ~model:model_a ~ram_bytes ~last:1 in
  let host_b = make_host world wire ~name:"pc-b" ~model:model_b ~ram_bytes ~last:2 in
  { world; wire; host_a; host_b }

(* The paper's Section 5 initialization listing, step for step:
     fdev_linux_init_ethernet();
     fdev_probe();
     oskit_freebsd_net_init(&sf);
     posix_set_socketcreator(sf);
     fdev_device_lookup(&fdev_ethernet_iid, &dev);
     oskit_freebsd_net_open_ether_if(dev[0], &eif);
     oskit_freebsd_net_ifconfig(eif, IPADDR, NETMASK);        *)
let oskit_host host ~ip ~mask =
  Machine.run_in host.machine (fun () ->
      Linux_glue.init_ethernet ();
      let osenv = Osenv.create host.machine in
      let _count = Fdev.probe osenv in
      let stack = Freebsd_glue.init host.machine in
      let sf = Freebsd_glue.socket_factory stack in
      let env = Posix.create_env () in
      Posix.set_socket_factory env (Some sf);
      Posix.set_time_source env (fun () -> Machine.now host.machine);
      Posix.set_sleeper env (fun ns -> Kclock.sleep_ns ns);
      match Fdev.lookup osenv Io_if.etherdev_iid with
      | [] -> failwith "oskit_host: no ethernet device found by probe"
      | dev :: _ ->
          (match Freebsd_glue.open_ether_if stack dev with
          | Ok () -> ()
          | Result.Error e -> failwith ("open_ether_if: " ^ Error.to_string e));
          Freebsd_glue.ifconfig stack ~addr:ip ~mask;
          env, stack)

let freebsd_host host ~ip ~mask =
  Machine.run_in host.machine (fun () ->
      let stack = Bsd_socket.create_stack host.machine ~hwaddr:(Nic.mac host.nic) ~name:"fxp0" in
      Native_if.attach stack host.nic;
      Bsd_socket.ifconfig stack ~addr:ip ~mask;
      stack)

let linux_host host ~ip ~mask =
  Machine.run_in host.machine (fun () ->
      let osenv = Osenv.create host.machine in
      let devices = Linux_glue.native_devices osenv in
      let dev =
        match devices with
        | d :: _ -> d
        | [] -> failwith "linux_host: no device probed"
      in
      let stack = Linux_inet.create host.machine in
      Linux_inet.attach_dev stack osenv dev;
      Linux_inet.ifconfig stack ~addr:ip ~mask;
      stack)

let spawn host ?cpu ?name f = Kernel.spawn host.kernel ?cpu ?name f
let run testbed ~until = World.run testbed.world ~until
