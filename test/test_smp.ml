(* SMP: the multi-CPU machine semantics behind the sharded stacks — the
   real Smp library (cpu_number reports the executing CPU, per-CPU data
   genuinely shards, lock contention is charged and counted), RSS steering
   properties (keyed determinism, direction symmetry, spread), netisr
   ordering and overflow, the multi-queue RSS NIC, per-CPU counter-shard
   aggregation, and cross-CPU end-to-end transfers that must stay
   byte-exact at every CPU count, clean and under loss. *)

let ip = Oskit.ip_of_string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let with_ncpus n f = Cost.with_config { Cost.config with Cost.ncpus = n } f

(* ------------------------------------------------------------------ *)
(* Smp: the stub lies are gone.                                        *)

let test_cpu_number () =
  let w = World.create () in
  let m = Machine.create ~name:"smp-cpu-pc" ~ncpus:4 w in
  let smp = Smp.init m in
  Alcotest.(check int) "machine's CPU count" 4 (Smp.num_cpus smp);
  Alcotest.(check int) "outside the machine: CPU 0" 0 (Smp.cpu_number smp);
  for c = 0 to 3 do
    Alcotest.(check int) "reports the CPU actually executing" c
      (Machine.run_on m ~cpu:c (fun () -> Smp.cpu_number smp))
  done

let test_percpu_shards () =
  let w = World.create () in
  let m = Machine.create ~name:"smp-pcpu-pc" ~ncpus:4 w in
  let smp = Smp.init m in
  let slots = Smp.percpu smp ~init:(fun _ -> ref 0) in
  for c = 0 to 3 do
    Machine.run_on m ~cpu:c (fun () ->
        for _ = 1 to c + 1 do
          incr (Smp.get smp slots)
        done)
  done;
  for c = 0 to 3 do
    Alcotest.(check int) "each CPU bumped only its own slot" (c + 1)
      !(Smp.get_for slots ~cpu:c)
  done

let test_trylock_failure_charged () =
  let w = World.create () in
  let m = Machine.create ~name:"smp-lock-pc" ~ncpus:2 w in
  Cost.reset_counters ();
  let l = Smp.spinlock ~name:"cross" () in
  Machine.run_on m ~cpu:0 (fun () -> Smp.spin_lock l);
  let t0 = Machine.cpu_now m ~cpu:1 in
  let got = Machine.run_on m ~cpu:1 (fun () -> Smp.spin_trylock l) in
  Alcotest.(check bool) "trylock on a lock held by CPU 0 fails" false got;
  Alcotest.(check bool) "the failure cost cycles (old stub: free)" true
    (Machine.cpu_now m ~cpu:1 > t0);
  Alcotest.(check int) "contention in the aggregate counter" 1
    Cost.counters.Cost.spin_contentions;
  Alcotest.(check int) "contention on the lock itself" 1 (Smp.spin_contentions l);
  Alcotest.(check int) "attributed to the contending CPU" 1
    (Cost.counters_for ~cpu:1).Cost.spin_contentions;
  Machine.run_on m ~cpu:0 (fun () -> Smp.spin_unlock l);
  Alcotest.(check bool) "succeeds once released" true
    (Machine.run_on m ~cpu:1 (fun () -> Smp.spin_trylock l));
  Machine.run_on m ~cpu:1 (fun () -> Smp.spin_unlock l);
  Alcotest.(check int) "clean acquisition adds no contention" 1
    Cost.counters.Cost.spin_contentions

(* ------------------------------------------------------------------ *)
(* RSS steering.                                                       *)

let some_flows n =
  List.init n (fun i ->
      ( Int32.of_int (0x0a000001 + (i * 7)),
        1024 + (i * 13 mod 50000),
        Int32.of_int (0x0a000002 + (i * 3)),
        80 + (i mod 7) ))

let hash_all flows =
  List.map
    (fun (a, pa, b, pb) ->
      Rss.flow_hash ~proto:6 ~addr_a:a ~port_a:pa ~addr_b:b ~port_b:pb)
    flows

let test_reboot_determinism () =
  Fun.protect ~finally:(fun () -> Rss.reboot ()) @@ fun () ->
  let flows = some_flows 200 in
  Rss.reboot ~seed:42 ();
  let h1 = hash_all flows in
  Rss.reboot ~seed:42 ();
  let h2 = hash_all flows in
  Alcotest.(check bool) "same seed after reboot: identical steering" true (h1 = h2);
  Rss.reboot ~seed:43 ();
  let h3 = hash_all flows in
  Alcotest.(check bool) "different secret: different steering" true (h1 <> h3)

let test_spread () =
  (* Sequential client ports from one address pair — the worst realistic
     skew — must still spread within 20% of ideal over 8 CPUs. *)
  let ncpus = 8 and flows = 4096 in
  let buckets = Array.make ncpus 0 in
  for i = 0 to flows - 1 do
    let c =
      Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:(ip "10.0.0.2") ~port_a:80
        ~addr_b:(ip "10.0.0.1") ~port_b:(1024 + i)
    in
    buckets.(c) <- buckets.(c) + 1
  done;
  let ideal = flows / ncpus in
  Array.iteri
    (fun c n ->
      if abs (n - ideal) * 5 > ideal then
        Alcotest.failf "CPU %d got %d flows (ideal %d; spread over 20%%)" c n ideal)
    buckets

let put16 f off v =
  Bytes.set f off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set f (off + 1) (Char.chr (v land 0xff))

let put32 f off v =
  let v = Int32.to_int v land 0xffffffff in
  put16 f off (v lsr 16);
  put16 f (off + 2) (v land 0xffff)

let tcp_frame ~src ~dst ~sport ~dport =
  let f = Bytes.make 60 '\000' in
  put16 f 12 0x0800;
  Bytes.set f 14 '\x45';
  Bytes.set f 23 '\x06';
  put32 f 26 src;
  put32 f 30 dst;
  put16 f 34 sport;
  put16 f 36 dport;
  f

let test_frame_steering () =
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  let by_flow =
    Rss.cpu_of_flow ~ncpus:8 ~proto:6 ~addr_a:src ~port_a:1234 ~addr_b:dst
      ~port_b:80
  in
  Alcotest.(check int) "frame parse agrees with the flow hash" by_flow
    (Rss.cpu_of_frame ~ncpus:8 (tcp_frame ~src ~dst ~sport:1234 ~dport:80));
  Alcotest.(check int) "the reply frame steers to the same CPU" by_flow
    (Rss.cpu_of_frame ~ncpus:8 (tcp_frame ~src:dst ~dst:src ~sport:80 ~dport:1234));
  Alcotest.(check int) "runt to CPU 0" 0 (Rss.cpu_of_frame ~ncpus:8 (Bytes.create 10));
  let arp = Bytes.make 60 '\000' in
  put16 arp 12 0x0806;
  Alcotest.(check int) "ARP to CPU 0" 0 (Rss.cpu_of_frame ~ncpus:8 arp);
  let frag = tcp_frame ~src ~dst ~sport:1234 ~dport:80 in
  put16 frag 20 0x2000 (* MF set: ports are not this fragment's *);
  Alcotest.(check int) "IP fragment to CPU 0" 0 (Rss.cpu_of_frame ~ncpus:8 frag)

let prop_direction_symmetry =
  QCheck.Test.make ~name:"rss: swapping the endpoints never changes the CPU"
    ~count:500
    QCheck.(
      quad (pair small_int small_int) (pair small_int small_int)
        (int_range 0 0xffff) (int_range 0 0xffff))
    (fun ((a_hi, a_lo), (b_hi, b_lo), pa, pb) ->
      let a = Int32.of_int ((a_hi lsl 16) lor a_lo) in
      let b = Int32.of_int ((b_hi lsl 16) lor b_lo) in
      List.for_all
        (fun ncpus ->
          Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:a ~port_a:pa ~addr_b:b ~port_b:pb
          = Rss.cpu_of_flow ~ncpus ~proto:6 ~addr_a:b ~port_a:pb ~addr_b:a
              ~port_b:pa)
        [ 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* Netisr: FIFO per CPU, direct dispatch on the home CPU, bounded.     *)

let test_netisr () =
  with_ncpus 2 @@ fun () ->
  let w = World.create () in
  let m = Machine.create ~name:"isr-pc" w in
  Cost.reset_counters ();
  let isr = Netisr.for_machine ~qmax:4 m in
  Machine.run_on m ~cpu:0 (fun () ->
      let ran = ref false in
      ignore (Netisr.dispatch isr ~cpu:0 (fun () -> ran := true));
      Alcotest.(check bool) "home CPU: direct dispatch, no queueing" true !ran);
  Alcotest.(check int) "direct dispatch not counted as a crossing" 0
    Cost.counters.Cost.netisr_queued;
  let order = ref [] in
  let accepted = ref 0 and dropped = ref 0 in
  Machine.run_on m ~cpu:0 (fun () ->
      for i = 1 to 6 do
        if
          Netisr.dispatch isr ~cpu:1 (fun () ->
              Alcotest.(check int) "runs on its home CPU" 1 (Machine.cpu m);
              order := i :: !order)
        then incr accepted
        else incr dropped
      done);
  World.run w;
  Alcotest.(check (list int)) "FIFO order on the home CPU" [ 1; 2; 3; 4 ]
    (List.rev !order);
  Alcotest.(check int) "bounded at qmax" 4 !accepted;
  Alcotest.(check int) "overflow dropped, not wedged" 2 !dropped;
  Alcotest.(check int) "crossings counted" 4 Cost.counters.Cost.netisr_queued;
  Alcotest.(check int) "drops counted" 2 Cost.counters.Cost.netisr_drops

(* ------------------------------------------------------------------ *)
(* The multi-queue RSS NIC: per-queue rings, per-queue vectors.        *)

let test_nic_rss_queues () =
  let w = World.create () in
  let wire = Wire.create w in
  let m = Machine.create ~name:"rssnic-pc" ~ncpus:2 w in
  Cost.reset_counters ();
  let mac = "\x02\x00\x00\x00\x00\x01" in
  let nic = Nic.create ~machine:m ~wire ~mac ~irq:9 () in
  Alcotest.(check int) "single queue by default" 1 (Nic.rx_queues nic);
  (* Classify by the frame's last byte; queue 1 interrupts on line 5,
     routed to CPU 1 — so that flow's receive work starts there. *)
  Nic.set_rss nic ~vectors:[| 9; 5 |]
    ~classify:(fun f -> Char.code (Bytes.get f (Bytes.length f - 1)));
  Alcotest.(check int) "two queues" 2 (Nic.rx_queues nic);
  let served_on = Array.make 2 (-1) in
  let handler q () =
    let rec drain () =
      match Nic.pop_rx_q nic ~q with
      | None -> ()
      | Some _ ->
          served_on.(q) <- Machine.cpu m;
          drain ()
    in
    drain ()
  in
  Machine.set_irq_handler m ~irq:9 (handler 0);
  Machine.set_irq_handler m ~irq:5 (handler 1);
  Machine.set_irq_affinity m ~irq:5 ~cpu:1;
  Machine.unmask_irq m ~irq:9;
  Machine.unmask_irq m ~irq:5;
  let sender = Wire.attach wire ~rx:(fun _ -> ()) in
  let frame tag =
    let f = Bytes.make 60 '\000' in
    Bytes.blit_string mac 0 f 0 6;
    Bytes.set f 59 (Char.chr tag);
    f
  in
  ignore (Wire.send wire sender (frame 0) ~at:0);
  ignore (Wire.send wire sender (frame 1) ~at:100_000);
  World.run w;
  Alcotest.(check int) "queue 0 drained on CPU 0" 0 served_on.(0);
  Alcotest.(check int) "queue 1's vector interrupted CPU 1" 1 served_on.(1);
  Alcotest.(check int) "hardware steering counted" 2 Cost.counters.Cost.rss_steered

(* ------------------------------------------------------------------ *)
(* End-to-end across CPU counts: ttcp, byte-exact, clean and lossy.    *)

let cross_cpu_ttcp ?(loss = 0.0) ~ncpus ~blocks ~blocksize () =
  with_ncpus ncpus @@ fun () ->
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("3c905", "fxp-sim") () in
  if loss > 0.0 then
    Wire.set_netem tb.Clientos.wire
      (Some (Netem.create ~seed:7 ~policy:{ Netem.default_policy with loss } ()));
  let server = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_b ~addr:(ip "10.0.0.2") in
  let client = Endpoint.setup Endpoint.Freebsd tb.Clientos.host_a ~addr:(ip "10.0.0.1") in
  let total = blocks * blocksize in
  let received = ref 0 and mismatches = ref 0 and finished = ref false in
  Clientos.spawn server.host ~cpu:0 ~name:"ttcp-srv" (fun () ->
      let c = ok (server.listen ~port:6001 ~backlog:2 ()) in
      let buf = Bytes.create 16384 in
      let rec loop () =
        match ok (c.recv ~buf ~pos:0 ~len:16384) with
        | 0 ->
            finished := true;
            c.close ()
        | n ->
            for i = 0 to n - 1 do
              if Char.code (Bytes.get buf i) <> Endpoint.pattern (!received + i) then
                incr mismatches
            done;
            received := !received + n;
            loop ()
      in
      loop ());
  Clientos.spawn client.host ~cpu:(ncpus - 1) ~name:"ttcp-cli" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = ok (client.connect ~dst:(ip "10.0.0.2") ~port:6001) in
      let block = Bytes.create blocksize in
      for b = 0 to blocks - 1 do
        for i = 0 to blocksize - 1 do
          Bytes.set block i (Char.chr (Endpoint.pattern ((b * blocksize) + i)))
        done;
        let rec push off =
          if off < blocksize then
            push (off + ok (c.send ~buf:block ~pos:off ~len:(blocksize - off)))
        in
        push 0
      done;
      c.close ());
  Clientos.run tb ~until:(fun () -> !finished);
  Alcotest.(check int)
    (Printf.sprintf "ncpus=%d loss=%.2f: no corrupted bytes" ncpus loss)
    0 !mismatches;
  Alcotest.(check int)
    (Printf.sprintf "ncpus=%d loss=%.2f: every byte arrived" ncpus loss)
    total !received

let test_ttcp_cross_cpu () =
  List.iter (fun ncpus -> cross_cpu_ttcp ~ncpus ~blocks:64 ~blocksize:4096 ()) [ 1; 2; 4 ];
  Alcotest.(check bool) "at 4 CPUs the NIC actually steered" true
    (Cost.counters.Cost.rss_steered > 0)

let test_ttcp_cross_cpu_lossy () =
  List.iter
    (fun ncpus -> cross_cpu_ttcp ~loss:0.03 ~ncpus ~blocks:32 ~blocksize:4096 ())
    [ 1; 2; 4 ]

let sum_shards f =
  let s = ref 0 in
  for c = 0 to Cost.max_cpus - 1 do
    s := !s + f (Cost.counters_for ~cpu:c)
  done;
  !s

let test_shards_sum_to_aggregate () =
  (* Leaves the counters populated by a genuinely multi-CPU run. *)
  cross_cpu_ttcp ~ncpus:4 ~blocks:32 ~blocksize:4096 ();
  let agg = Cost.counters in
  let pairs =
    [ "copies", agg.Cost.copies, sum_shards (fun c -> c.Cost.copies);
      "copied_bytes", agg.Cost.copied_bytes, sum_shards (fun c -> c.Cost.copied_bytes);
      "checksummed_bytes", agg.Cost.checksummed_bytes,
        sum_shards (fun c -> c.Cost.checksummed_bytes);
      "com_calls", agg.Cost.com_calls, sum_shards (fun c -> c.Cost.com_calls);
      "sg_xmits", agg.Cost.sg_xmits, sum_shards (fun c -> c.Cost.sg_xmits);
      "rss_steered", agg.Cost.rss_steered, sum_shards (fun c -> c.Cost.rss_steered);
      "netisr_queued", agg.Cost.netisr_queued,
        sum_shards (fun c -> c.Cost.netisr_queued);
      "spin_contentions", agg.Cost.spin_contentions,
        sum_shards (fun c -> c.Cost.spin_contentions) ]
  in
  List.iter
    (fun (name, total, shard_sum) ->
      Alcotest.(check int) (name ^ ": shards sum to the aggregate") total shard_sum)
    pairs;
  Alcotest.(check bool) "the run counted something" true (agg.Cost.copies > 0)

(* ------------------------------------------------------------------ *)
(* The sharded reactor httpd end-to-end, every response byte-exact.    *)

let cross_cpu_httpd ?(loss = 0.0) ~ncpus ~clients () =
  with_ncpus ncpus @@ fun () ->
  let done_clients = ref 0 in
  let all_done () = !done_clients >= clients in
  let s =
    Httpbench.serve ~models:("3c905", "fxp-sim")
      ~site:{ Httpbench.index_site with files = [| ("index.html", 512) |] }
      ~backlog:64 ~stack:Endpoint.Freebsd ~shape:Httpbench.Reactor ~until:all_done ()
  in
  if loss > 0.0 then
    Wire.set_netem s.testbed.Clientos.wire
      (Some (Netem.create ~seed:11 ~policy:{ Netem.default_policy with loss } ()));
  let bad = ref 0 in
  for i = 0 to clients - 1 do
    Clientos.spawn s.client.Endpoint.host ~cpu:(i mod ncpus)
      ~name:(Printf.sprintf "c%d" i)
      (fun () ->
        Kclock.sleep_ns (2_000_000 + (i * 50_000));
        (match Httpbench.connect s with
        | Error _ -> incr bad
        | Ok c ->
            Httpbench.send_string c "GET /index.html HTTP/1.0\r\n\r\n";
            if not (Httpbench.exact_200 (Httpbench.drain c) s.bodies.(0)) then incr bad;
            c.close ());
        incr done_clients)
  done;
  Clientos.run s.testbed ~until:all_done;
  Alcotest.(check int)
    (Printf.sprintf "ncpus=%d loss=%.2f: every response byte-exact" ncpus loss)
    0 !bad

let test_httpd_cross_cpu () =
  List.iter (fun ncpus -> cross_cpu_httpd ~ncpus ~clients:16 ()) [ 1; 2; 4 ]

let test_httpd_cross_cpu_lossy () =
  List.iter (fun ncpus -> cross_cpu_httpd ~loss:0.02 ~ncpus ~clients:8 ()) [ 1; 2; 4 ]

let suite =
  [ Alcotest.test_case "smp: cpu_number reports the executing CPU" `Quick
      test_cpu_number;
    Alcotest.test_case "smp: per-CPU data genuinely shards" `Quick
      test_percpu_shards;
    Alcotest.test_case "smp: trylock failure is charged and counted" `Quick
      test_trylock_failure_charged;
    Alcotest.test_case "rss: same secret, same steering (reboot)" `Quick
      test_reboot_determinism;
    Alcotest.test_case "rss: sequential ports spread within 20% over 8 CPUs"
      `Quick test_spread;
    Alcotest.test_case "rss: frame parsing agrees with the flow hash" `Quick
      test_frame_steering;
    QCheck_alcotest.to_alcotest prop_direction_symmetry;
    Alcotest.test_case "netisr: direct dispatch, FIFO, bounded" `Quick
      test_netisr;
    Alcotest.test_case "nic: multi-queue RSS interrupts the home CPU" `Quick
      test_nic_rss_queues;
    Alcotest.test_case "ttcp byte-exact at 1/2/4 CPUs" `Quick test_ttcp_cross_cpu;
    Alcotest.test_case "ttcp byte-exact at 1/2/4 CPUs under 3% loss" `Quick
      test_ttcp_cross_cpu_lossy;
    Alcotest.test_case "counter shards sum to the aggregate view" `Quick
      test_shards_sum_to_aggregate;
    Alcotest.test_case "sharded httpd byte-exact at 1/2/4 CPUs" `Quick
      test_httpd_cross_cpu;
    Alcotest.test_case "sharded httpd byte-exact at 1/2/4 CPUs under 2% loss"
      `Quick test_httpd_cross_cpu_lossy ]
