(* The two HTTP workloads: open-loop HTTP/1.0 connection churn against the
   native FreeBSD reactor httpd sharded over 8 CPUs ([http_close]), and
   closed-loop keep-alive content serving against the OSKit-configuration
   reactor httpd on one CPU ([http_keepalive]).

   Both turn on every performance knob that exists: these are the paths
   that stay once the legacy ones are deleted, so deleting the legacy
   paths does not move what is measured.  Every response is parsed by the
   client and its body compared byte for byte with the file it names. *)

open Pb_bed

let server_port = 80
let gigabit = 1_000_000_000

(* Every performance knob that exists, on.  Each workload sets its knobs in
   one function below, so collapsing the knobs into profiles is a one-line
   edit there. *)
let perf_knobs () =
  Cost.reset_config ();
  let c = Cost.config in
  c.Cost.pcb_hash <- true;
  c.Cost.tcp_fastpath <- true;
  c.Cost.rx_batch <- 8;
  c.Cost.kq <- true;
  c.Cost.timer_wheel <- true;
  c.Cost.sg_tx <- true

(* ---- the served files ---- *)

let file_name i = Printf.sprintf "f%d.bin" i

let make_root ~dev_bytes (bodies : string array) =
  let dev = Mem_blkio.make ~bytes:dev_bytes () in
  let root = ok "newfs" (Fs_glue.newfs dev) in
  Array.iteri
    (fun i body ->
      let f = ok "create" (root.Io_if.d_create (file_name i)) in
      let b = Bytes.unsafe_of_string body in
      let n = Bytes.length b in
      let rec push off =
        if off < n then
          push (off + ok "write" (f.Io_if.f_write ~buf:b ~pos:off ~offset:off ~amount:(n - off)))
      in
      push 0)
    bodies;
  root

(* The server's COM faces, interposed in a traced run. *)
let server_faces ~tr (srv : Clientos.host) (sock : Io_if.socket) (root : Io_if.dir) =
  match tr with
  | None -> sock, root
  | Some tr ->
      let ctx = { Pb_trace.tr; m = srv.Clientos.machine; pid = 1; may_suspend = false } in
      Pb_trace.wrap_socket ctx ~flow:0 sock, Pb_trace.wrap_dir ctx ~flow:0 root

(* ---- the client side: blocking native FreeBSD sockets ---- *)

type conn = { cs : Bsd_socket.tsock; call : 'a. string -> (unit -> 'a) -> 'a }

(* The benchmark's own client calls, spans when tracing; the flow id is
   the connection's client port, which the server-side spans share. *)
let client_conn ~tr (cli : Clientos.host) stack =
  let cs = Bsd_socket.tcp_socket stack in
  let call : type a. string -> (unit -> a) -> a =
   fun name f ->
    match tr with
    | None -> f ()
    | Some tr ->
        let ctx = { Pb_trace.tr; m = cli.Clientos.machine; pid = 0; may_suspend = true } in
        Pb_trace.record ctx ~name:("client." ^ name) ~layer:"freebsd_net"
          ~flow:cs.Bsd_socket.pcb.Tcp.lport f
  in
  { cs; call }

let send_all c (s : string) =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match c.call "send" (fun () -> Bsd_socket.so_send c.cs ~buf:b ~pos:off ~len:(Bytes.length b - off)) with
      | Ok n -> go (off + n)
      | Error _ -> false
    else true
  in
  go 0

let index_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go i

let content_length hdr =
  match index_from (String.lowercase_ascii hdr) 0 "content-length:" with
  | None -> None
  | Some i ->
      let rest = String.sub hdr (i + 15) (String.length hdr - i - 15) in
      let line = match String.index_opt rest '\r' with Some j -> String.sub rest 0 j | None -> rest in
      int_of_string_opt (String.trim line)

(* A receive buffer for one connection, parsed response by response. *)
type rx = { c : conn; acc : Buffer.t; mutable pos : int; scratch : bytes }

let rx c = { c; acc = Buffer.create 4096; pos = 0; scratch = Bytes.create 16384 }

(* false on EOF or error *)
let fill r =
  match r.c.call "recv" (fun () -> Bsd_socket.so_recv r.c.cs ~buf:r.scratch ~pos:0 ~len:16384) with
  | Ok 0 | Error _ -> false
  | Ok n ->
      Buffer.add_subbytes r.acc r.scratch 0 n;
      true

(* [Refused]: a well-formed non-200 answer (a failed operation);
   [Wrong]: a 200 whose bytes differ (fails the run); [Broken]: the
   connection ended early. *)
type verdict = Exact | Refused | Wrong | Broken

let status_ok hdr = String.length hdr > 12 && String.sub hdr 9 3 = "200"

(* Read one Content-Length-framed response and compare it with [expect];
   also returns the response's length in bytes. *)
let read_response r ~expect =
  let rec header () =
    match index_from (Buffer.contents r.acc) r.pos "\r\n\r\n" with
    | Some i -> Some i
    | None -> if fill r then header () else None
  in
  match header () with
  | None -> Broken, 0
  | Some he -> (
      let all = Buffer.contents r.acc in
      let hdr = String.sub all r.pos (he - r.pos) in
      match content_length hdr with
      | None -> Wrong, 0
      | Some len ->
          let rec need () = if Buffer.length r.acc >= he + 4 + len then true else fill r && need () in
          if not (need ()) then Broken, 0
          else begin
            let bytes = he + 4 + len - r.pos in
            let all = Buffer.contents r.acc in
            let body = String.sub all (he + 4) len in
            r.pos <- he + 4 + len;
            if r.pos = Buffer.length r.acc then begin
              Buffer.clear r.acc;
              r.pos <- 0
            end
            else if r.pos > 65536 then begin
              let rest = String.sub all r.pos (String.length all - r.pos) in
              Buffer.clear r.acc;
              Buffer.add_string r.acc rest;
              r.pos <- 0
            end;
            ((if not (status_ok hdr) then Refused else if body = expect then Exact else Wrong), bytes)
          end)

(* ---- http_close ---- *)

let close_cpus = 8

(* Offered load, fixed: about three quarters of the 14.6k req/s the 8-CPU
   server completes with this knob set when offered more than it can take.  It stays fixed so that a
   faster server shows as lower latency, not as more throughput. *)
let close_rate = 11_000

let close_backlog = 1024

let close_requests = 4_000

let configure_close () = perf_knobs ()

let http_close ~tr ~seed ~iter =
  configure_close ();
  reset_world ();
  let h_start = Pb_util.host_cpu () in
  let rng = Pb_util.rng seed iter in
  let tb = make_testbed ~a_cpus:close_cpus ~b_cpus:close_cpus ~bandwidth_bps:gigabit in
  let cli = tb.Clientos.host_a and srv = tb.Clientos.host_b in
  let p = probe tb ~bw:gigabit ~server:srv ~client:cli in
  let body = Pb_util.random_bytes rng 1024 |> Bytes.to_string in
  let root = make_root ~dev_bytes:(1 lsl 20) [| body |] in
  let stack = Clientos.freebsd_host srv ~ip:addr_b ~mask in
  let cstack = Clientos.freebsd_host cli ~ip:addr_a ~mask in
  p.bsd <- [ stack; cstack ];
  let sock, root =
    server_faces ~tr srv (Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)) root
  in
  let reactors = Array.init close_cpus (fun _ -> Reactor.create ()) in
  p.reactors <- Array.to_list reactors;
  let home (peer : Io_if.sockaddr) =
    Rss.cpu_of_flow ~ncpus:close_cpus ~proto:6 ~addr_a:addr_b ~port_a:server_port
      ~addr_b:peer.Io_if.sin_addr ~port_b:peer.Io_if.sin_port
  in
  (* Seeded Poisson arrivals, after a warm-up request has resolved ARP. *)
  let n = close_requests in
  let first = 10_000_000 in
  let arrivals = Array.make n first in
  for i = 1 to n - 1 do
    arrivals.(i) <- arrivals.(i - 1) + Pb_util.exp_ns rng ~mean_ns:(1_000_000_000 / close_rate)
  done;
  let finished = ref 0 in
  let all_done () = !finished >= n in
  let stop () = all_done () || stalled p () in
  Clientos.spawn srv ~cpu:0 ~name:"httpd-accept" (fun () ->
      ok "bind" (sock.Io_if.so_bind { Io_if.sin_addr = addr_b; sin_port = server_port });
      ok "listen" (sock.Io_if.so_listen ~backlog:close_backlog);
      p.httpd <- Some (Httpd.serve_reactor_sharded ~reactors ~home ~root ~sock ());
      Reactor.run reactors.(0) ~until:stop);
  for c = 1 to close_cpus - 1 do
    Clientos.spawn srv ~cpu:c ~name:"httpd" (fun () -> Reactor.run reactors.(c) ~until:stop)
  done;
  let request = "GET /" ^ file_name 0 ^ " HTTP/1.0\r\n\r\n" in
  let expect = body in
  let lat = Array.make n 0 and late = ref [] in
  let good = ref 0 and wrong = ref 0 and t_last = ref 0 and rx_bytes = ref 0 in
  let window = ref None in
  (* One request: connect, send, read to EOF, close.  Returns the verdict
     and the response's length. *)
  let one () =
    let c = client_conn ~tr cli cstack in
    let v =
      match c.call "connect" (fun () -> Bsd_socket.so_connect c.cs ~dst:addr_b ~dport:server_port) with
      | Error _ -> Broken, 0
      | Ok () ->
          if not (send_all c request) then Broken, 0
          else begin
            let r = rx c in
            while fill r do () done;
            let resp = Buffer.contents r.acc in
            let n = String.length resp in
            match index_from resp 0 "\r\n\r\n" with
            | None -> (if resp = "" then Broken else Wrong), n
            | Some _ when not (status_ok resp) -> Refused, n
            | Some i -> (if String.sub resp (i + 4) (n - i - 4) = expect then Exact else Wrong), n
          end
    in
    ignore (c.call "close" (fun () -> Bsd_socket.so_close c.cs));
    v
  in
  Clientos.spawn cli ~cpu:0 ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      if fst (one ()) = Wrong then incr wrong);
  (* One generator per client CPU walks its share of the arrivals and
     starts each request in its own thread at its scheduled time. *)
  let m = cli.Clientos.machine in
  for g = 0 to close_cpus - 1 do
    Clientos.spawn cli ~cpu:g ~name:"gen" (fun () ->
        let i = ref g in
        while !i < n do
          let due = arrivals.(!i) in
          let now = Machine.now m in
          if due > now then Kclock.sleep_ns (due - now);
          let k = !i in
          Clientos.spawn cli ~cpu:g ~name:"req" (fun () ->
              if k = 0 then window := Some (open_window p ~t0:arrivals.(0));
              late := (Machine.now m - arrivals.(k)) :: !late;
              (match one () with
              | Exact, bytes ->
                  incr good;
                  rx_bytes := !rx_bytes + bytes;
                  lat.(k) <- Machine.now m - arrivals.(k)
              | Wrong, _ -> incr wrong
              | Refused, _ | Broken, _ -> ());
              t_last := max !t_last (Machine.now m);
              incr finished);
          i := !i + close_cpus
        done)
  done;
  let incidents = run tb ~until:stop in
  let h_end = Pb_util.host_cpu () in
  match !window with
  | None -> no_window ~attempted:n ~incidents
  | Some w ->
  let t1 = if all_done () then !t_last else World.now tb.Clientos.world in
  let counts = close_window p w ~t1 in
  let ok_lat = Array.of_list (List.filter (fun x -> x > 0) (Array.to_list lat)) in
  let dur = t1 - arrivals.(0) in
  let tx_bytes = !good * String.length request in
  let payload = tx_bytes + !rx_bytes in
  let responses = Pb_util.get counts "httpd.responses" in
  {
    attempted = n;
    ok = !good;
    mismatches = !wrong;
    lat_ns = ok_lat;
    late_ns = Array.of_list !late;
    rates = [ "ops", (!good, dur); "send", (!rx_bytes, dur); "recv", (tx_bytes, dur) ];
    counts;
    ops = n;
    payload;
    peak_active = (match p.httpd with Some st -> st.Httpd.peak_active | None -> 0);
    cost_end = Pb_util.cost_fields Cost.counters;
    problems =
      check_end p
      @ check_wire counts ~payload
      @ (if responses <> !good then
           [ Printf.sprintf "httpd responses %d <> completed client requests %d" responses !good ]
         else []);
    incidents;
    setup_s = w.w_h0 -. h_start;
    host_s = h_end -. w.w_h0 }

(* ---- http_keepalive ---- *)

(* The buffer cache holds 64 blocks of 4 KB; the working set is about
   twice that, so bodies keep missing the cache and evicting each other. *)
let ka_working_set = 2 * 64 * 4096

let ka_clients = 8

(* Requests a client sends back to back before reading the responses:
   within Cost.config.http_pipeline_max (8), so the server's parse-ahead
   bound never throttles the client. *)
let ka_pipeline = 4

let ka_bursts = 12

(* The load generator gets enough CPUs that it never sets the pace; the
   server has one. *)
let ka_client_cpus = 4

(* Body sizes log-uniform from 1 KB to 64 KB. *)
let ka_files rng =
  let rec go acc total =
    if total >= ka_working_set then Array.of_list (List.rev acc)
    else
      let size = int_of_float (1024.0 *. (2.0 ** (6.0 *. Pb_util.float rng))) in
      go (Bytes.to_string (Pb_util.random_bytes rng size) :: acc) (total + size)
  in
  go [] 0

let configure_keepalive () =
  perf_knobs ();
  Cost.config.Cost.http_keepalive <- true;
  Cost.config.Cost.sendfile <- true

let http_keepalive ~tr ~seed ~iter =
  configure_keepalive ();
  reset_world ();
  let h_start = Pb_util.host_cpu () in
  let rng = Pb_util.rng seed iter in
  let tb = make_testbed ~a_cpus:ka_client_cpus ~b_cpus:1 ~bandwidth_bps:gigabit in
  let cli = tb.Clientos.host_a and srv = tb.Clientos.host_b in
  let p = probe tb ~bw:gigabit ~server:srv ~client:cli in
  let bodies = ka_files rng in
  let root = make_root ~dev_bytes:(4 lsl 20) bodies in
  let _env, stack = Clientos.oskit_host srv ~ip:addr_b ~mask in
  let cstack = Clientos.freebsd_host cli ~ip:addr_a ~mask in
  p.bsd <- [ stack; cstack ];
  let sock, root =
    server_faces ~tr srv (Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack)) root
  in
  let reactor = Reactor.create () in
  p.reactors <- [ reactor ];
  let plan =
    Array.init ka_clients (fun _ ->
        Array.init (ka_bursts * ka_pipeline) (fun _ -> Pb_util.int rng (Array.length bodies)))
  in
  let n = ka_clients * ka_bursts * ka_pipeline in
  let finished = ref 0 in
  let all_done () = !finished >= ka_clients in
  let stop () = all_done () || stalled p () in
  Clientos.spawn srv ~name:"httpd" (fun () ->
      ok "bind" (sock.Io_if.so_bind { Io_if.sin_addr = addr_b; sin_port = server_port });
      ok "listen" (sock.Io_if.so_listen ~backlog:64);
      p.httpd <- Some (Httpd.serve_reactor ~reactor ~root ~sock ());
      Reactor.run reactor ~until:stop);
  let request fi = Printf.sprintf "GET /%s HTTP/1.1\r\nHost: b\r\n\r\n" (file_name fi) in
  let lat = ref [] and good = ref 0 and wrong = ref 0 in
  let rx_bytes = ref 0 and tx_bytes = ref 0 and t_last = ref 0 in
  let window = ref None and t0 = ref 0 in
  let m = cli.Clientos.machine in
  let warm = ref false in
  Clientos.spawn cli ~cpu:0 ~name:"warmup" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let c = client_conn ~tr cli cstack in
      (match c.call "connect" (fun () -> Bsd_socket.so_connect c.cs ~dst:addr_b ~dport:server_port) with
      | Ok () when send_all c (request 0) && fst (read_response (rx c) ~expect:bodies.(0)) <> Wrong -> ()
      | Ok () -> incr wrong
      | Error _ -> ());
      ignore (c.call "close" (fun () -> Bsd_socket.so_close c.cs));
      t0 := Machine.now m;
      window := Some (open_window p ~t0:!t0);
      warm := true);
  for k = 0 to ka_clients - 1 do
    Clientos.spawn cli ~cpu:(k mod ka_client_cpus) ~name:"client" (fun () ->
        while not !warm do
          Kclock.sleep_ns 100_000
        done;
        let c = client_conn ~tr cli cstack in
        (match c.call "connect" (fun () -> Bsd_socket.so_connect c.cs ~dst:addr_b ~dport:server_port) with
        | Error _ -> ()
        | Ok () ->
            let r = rx c in
            let broken = ref false in
            for b = 0 to ka_bursts - 1 do
              if not !broken then begin
                let files = Array.sub plan.(k) (b * ka_pipeline) ka_pipeline in
                let reqs = String.concat "" (Array.to_list (Array.map request files)) in
                let sent = Machine.now m in
                if not (send_all c reqs) then broken := true
                else begin
                  tx_bytes := !tx_bytes + String.length reqs;
                  Array.iter
                    (fun fi ->
                      if not !broken then
                        match read_response r ~expect:bodies.(fi) with
                        | Exact, bytes ->
                            incr good;
                            rx_bytes := !rx_bytes + bytes;
                            lat := (Machine.now m - sent) :: !lat
                        | Wrong, _ -> incr wrong
                        | Refused, _ -> ()
                        | Broken, _ -> broken := true)
                    files
                end
              end
            done);
        ignore (c.call "close" (fun () -> Bsd_socket.so_close c.cs));
        t_last := max !t_last (Machine.now m);
        incr finished)
  done;
  let incidents = run tb ~until:stop in
  let h_end = Pb_util.host_cpu () in
  match !window with
  | None -> no_window ~attempted:n ~incidents
  | Some w ->
  let t1 = if all_done () then !t_last else World.now tb.Clientos.world in
  let counts = close_window p w ~t1 in
  let dur = t1 - !t0 in
  let payload = !tx_bytes + !rx_bytes in
  let responses = Pb_util.get counts "httpd.responses" in
  { attempted = n;
    ok = !good;
    mismatches = !wrong;
    lat_ns = Array.of_list !lat;
    late_ns = [||];
    rates = [ "ops", (!good, dur); "send", (!rx_bytes, dur); "recv", (!tx_bytes, dur) ];
    counts;
    ops = n;
    payload;
    peak_active = (match p.httpd with Some st -> st.Httpd.peak_active | None -> 0);
    cost_end = Pb_util.cost_fields Cost.counters;
    problems =
      check_end p
      @ check_wire counts ~payload
      @ (if responses <> !good then
           [ Printf.sprintf "httpd responses %d <> completed client requests %d" responses !good ]
         else []);
    incidents;
    setup_s = w.w_h0 -. h_start;
    host_s = h_end -. w.w_h0 }
