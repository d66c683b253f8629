(* netcomputer — the Java/PC prototype of Section 6.1.4, reproduced with
   the kit's bytecode VM standing in for Kaffe.

   A diskless "network computer": the machine boots with its program as a
   MultiBoot boot module (bytecode, like Java/PC's .class files), the
   kernel support library brings the machine up, the OSKit configuration
   provides drivers + TCP/IP + POSIX, and the VM serves network requests
   from bytecode.  A second simulated PC plays the browser.

   Also demonstrated: the null-pointer catch via debug registers
   (Section 6.2.4) — the kernel trap handler fields the fault the VM's
   buggy second program triggers. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("netcomputer: " ^ Error.to_string e)

(* The "application": an echo-with-banner server in VM assembly.  It
   receives a request into heap memory, prepends a banner, sends the
   response, and counts requests served in global 0. *)
let server_program =
  {|
; globals: 0 = requests served, 1 = bytes received
serve:
push 8192
push 4096
sys 4          ; recv into heap[8192], up to 4096 bytes
store 1        ; bytes received
load 1
jz finished    ; connection closed -> halt
load 0
push 1
add
store 0
push 8192
load 1
sys 3          ; send the bytes straight back
pop
jmp serve
finished:
load 0
halt
|}

(* A buggy program: dereferences "null" (address 0). *)
let buggy_program = {|
push 0
loadb
halt
|}

let () =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("eepro100", "3c905") () in
  let nc = tb.Clientos.host_a (* the network computer *) in
  let browser = tb.Clientos.host_b in

  (* --- boot the network computer with its bytecode as a boot module --- *)
  let bytecode =
    match Vm.assemble server_program with
    | Ok code -> Vm.encode code
    | Error e -> failwith ("assembler: " ^ e)
  in
  let image = Loader.make_image ~payload:"netcomputer-kernel" in
  let loaded =
    Loader.load nc.Clientos.machine ~image ~cmdline:"netcomputer"
      ~modules:[ "app.ovm", Bytes.to_string bytecode ]
  in
  let env_nc, nc_stack = Clientos.oskit_host nc ~ip:(ip "10.0.0.1") ~mask in
  (* Mount the boot-module file system and load the program through POSIX,
     exactly as Java/PC loaded its class files (Section 6.2.2). *)
  let bootfs = Bootmod_fs.make (Machine.ram nc.Clientos.machine) loaded.Loader.info in
  Posix.set_root env_nc (Some bootfs);
  let env_browser, _ = Clientos.oskit_host browser ~ip:(ip "10.0.0.2") ~mask in

  let served = ref (-1) in
  let reply = ref "" in
  let http_body = ref "" in
  let http_done = ref false in
  let http_stats = ref None in

  (* --- second serving mode: the same boot-module FS, exported over HTTP
     by the event-driven httpd component.  The server binds to the oskit
     stack only through the COM socket + oskit_asyncio interfaces, so the
     network computer serves its own program image the way Java/PC served
     class files — no VM in the path this time. --- *)
  Clientos.spawn nc ~name:"httpd" (fun () ->
      let sock = Freebsd_glue.socket_com nc_stack (Bsd_socket.tcp_socket nc_stack) in
      ok (sock.Io_if.so_bind { Io_if.sin_addr = ip "10.0.0.1"; sin_port = 8080 });
      ok (sock.Io_if.so_listen ~backlog:4);
      let r = Reactor.create () in
      http_stats := Some (Httpd.serve_reactor ~reactor:r ~root:bootfs ~sock ());
      Reactor.run r ~until:(fun () -> !http_done));

  Clientos.spawn nc ~name:"vm" (fun () ->
      (* Read the bytecode from the boot-module FS. *)
      let fd = ok (Posix.open_ env_nc "/app.ovm" Posix.o_rdonly) in
      let st = ok (Posix.fstat env_nc fd) in
      let program = Bytes.create st.Io_if.st_size in
      let n = ok (Posix.read env_nc fd program ~pos:0 ~len:st.Io_if.st_size) in
      assert (n = st.Io_if.st_size);
      ignore (Posix.close env_nc fd);
      let code = match Vm.decode program with Ok c -> c | Error e -> failwith e in

      (* Accept one connection; bind the VM's socket syscalls to it. *)
      let lfd = ok (Posix.socket env_nc Io_if.Sock_stream) in
      ok (Posix.bind env_nc lfd { Io_if.sin_addr = ip "10.0.0.1"; sin_port = 80 });
      ok (Posix.listen env_nc lfd ~backlog:2);
      let conn, _peer = ok (Posix.accept env_nc lfd) in
      let bindings =
        { Vm.putc = (fun c -> Kernel.console_putc nc.Clientos.kernel c);
          send =
            (fun b ~pos ~len ->
              (* VM heap -> network: the extra "Java heap" copy is what the
                 send syscall pays beyond the native path. *)
              match Posix.send env_nc conn b ~pos ~len with
              | Ok n ->
                  Cost.charge_copy n;
                  n
              | Error _ -> 0);
          recv =
            (fun b ~pos ~len ->
              match Posix.recv env_nc conn b ~pos ~len with
              | Ok n ->
                  Cost.charge_copy n;
                  n
              | Error _ -> 0);
          time_ns = (fun () -> Machine.now nc.Clientos.machine) }
      in
      let vm = Vm.create ~traps:(Kernel.traps nc.Clientos.kernel) ~bindings code in
      served := Vm.run vm;

      (* Now the buggy program: the null page is guarded by a breakpoint
         register; the kernel trap handler sees the fault. *)
      Trap.set_handler (Kernel.traps nc.Clientos.kernel) Trap.T_debug (fun f ->
          Kernel.console_putc nc.Clientos.kernel '!';
          ignore f;
          `Handled);
      let bug = match Vm.assemble buggy_program with Ok c -> c | Error e -> failwith e in
      let vm2 = Vm.create ~traps:(Kernel.traps nc.Clientos.kernel) ~bindings bug in
      (match Vm.run vm2 with
      | _ -> print_endline "BUG: null dereference not caught"
      | exception Vm.Null_pointer addr ->
          Printf.printf "null-pointer access at %#x caught via debug registers\n" addr));

  Clientos.spawn browser ~name:"browser" (fun () ->
      Kclock.sleep_ns 3_000_000;
      let fd = ok (Posix.socket env_browser Io_if.Sock_stream) in
      ok (Posix.connect env_browser fd { Io_if.sin_addr = ip "10.0.0.1"; sin_port = 80 });
      let req = Bytes.of_string "GET /index.html" in
      let _ = ok (Posix.send env_browser fd req ~pos:0 ~len:(Bytes.length req)) in
      let buf = Bytes.create 4096 in
      let n = ok (Posix.recv env_browser fd buf ~pos:0 ~len:4096) in
      reply := Bytes.sub_string buf 0 n;
      ok (Posix.shutdown env_browser fd);

      (* Phase 2: fetch the program image itself over HTTP from the
         reactor-driven server. *)
      let fd = ok (Posix.socket env_browser Io_if.Sock_stream) in
      ok (Posix.connect env_browser fd { Io_if.sin_addr = ip "10.0.0.1"; sin_port = 8080 });
      let req = Bytes.of_string "GET /app.ovm HTTP/1.0\r\n\r\n" in
      let _ = ok (Posix.send env_browser fd req ~pos:0 ~len:(Bytes.length req)) in
      let acc = Buffer.create 4096 in
      let rec drain () =
        match Posix.recv env_browser fd buf ~pos:0 ~len:4096 with
        | Ok 0 | Error _ -> ()
        | Ok n ->
            Buffer.add_subbytes acc buf 0 n;
            drain ()
      in
      drain ();
      ignore (Posix.close env_browser fd);
      let resp = Buffer.contents acc in
      (match String.index_opt resp '\r' with
      | Some _ -> (
          (* body starts after the blank line *)
          let rec find i =
            if i + 4 > String.length resp then None
            else if String.sub resp i 4 = "\r\n\r\n" then Some (i + 4)
            else find (i + 1)
          in
          match find 0 with
          | Some b -> http_body := String.sub resp b (String.length resp - b)
          | None -> ())
      | None -> ());
      http_done := true);

  Clientos.run tb ~until:(fun () -> !served >= 0 && !http_done);
  Printf.printf "network computer served %d request(s)\n" !served;
  Printf.printf "browser received: %S\n" !reply;
  (match !http_stats with
  | Some st ->
      Printf.printf "httpd served /app.ovm over oskit_asyncio: %d bytes, %s\n"
        st.Httpd.bytes_out
        (if !http_body = Bytes.to_string bytecode then "byte-exact" else "MISMATCH")
  | None -> ());
  Printf.printf "virtual time: %.2f ms\n"
    (float_of_int (World.now tb.Clientos.world) /. 1e6)
