(* netboot — "specialized kernels to boot other kernels across the
   network" (Section 6.1.5).

   A boot server stores a MultiBoot kernel image in its NetBSD file system;
   a diskless client runs a tiny netboot kernel (OSKit configuration) that
   fetches the image over UDP, validates the MultiBoot header, and boots it
   on its own machine — demonstrating the loader, file system, network and
   POSIX components all bound into one small utility. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("netboot: " ^ Error.to_string e)

let chunk = 1024

let () =
  Clientos.reset_globals ();
  let tb = Clientos.make_testbed ~models:("eepro100", "NE2000") () in
  let server = tb.Clientos.host_a and client = tb.Clientos.host_b in
  let env_s, _ = Clientos.oskit_host server ~ip:(ip "10.0.0.1") ~mask in
  let env_c, _ = Clientos.oskit_host client ~ip:(ip "10.0.0.2") ~mask in

  (* The server's disk: a file system holding the payload kernel. *)
  let payload_kernel =
    Loader.make_image ~payload:("PAYLOAD-KERNEL " ^ String.make 20000 'P')
  in
  let dev = Mem_blkio.make ~bytes:(2 * 1024 * 1024) () in
  let root = ok (Fs_glue.newfs dev) in
  Posix.set_root env_s (Some root);
  let fd = ok (Posix.open_ env_s "/vmunix" (Posix.o_creat lor Posix.o_rdwr)) in
  ignore (ok (Posix.write env_s fd payload_kernel ~pos:0 ~len:(Bytes.length payload_kernel)));
  ok (Posix.close env_s fd);

  (* Boot server: a trivial UDP protocol — request "get <path>", reply is a
     stream of <seq:u16><len:u16><data> datagrams, len 0 terminating. *)
  Clientos.spawn server ~name:"bootd" (fun () ->
      let sfd = ok (Posix.socket env_s Io_if.Sock_dgram) in
      ok (Posix.bind env_s sfd { Io_if.sin_addr = ip "10.0.0.1"; sin_port = 69 });
      let s = ok (Posix.socket_of_fd env_s sfd) in
      let buf = Bytes.create 512 in
      let n, peer = ok (s.Io_if.so_recvfrom ~buf ~pos:0 ~len:512) in
      let request = Bytes.sub_string buf 0 n in
      match String.split_on_char ' ' request with
      | [ "get"; path ] ->
          Printf.printf "[bootd] sending %s to %s\n%!" path (Oskit.string_of_ip peer.Io_if.sin_addr);
          let kfd = ok (Posix.open_ env_s path Posix.o_rdonly) in
          let data = Bytes.create chunk in
          let pkt = Bytes.create (chunk + 4) in
          let rec send_all seq =
            let n = ok (Posix.read env_s kfd data ~pos:0 ~len:chunk) in
            Bytes.set_uint16_le pkt 0 (seq land 0xffff);
            Bytes.set_uint16_le pkt 2 n;
            Bytes.blit data 0 pkt 4 n;
            ignore (ok (s.Io_if.so_sendto ~buf:pkt ~pos:0 ~len:(n + 4) ~dst:peer));
            if n > 0 then begin
              (* Pace the blast so the client's socket buffer keeps up (the
                 real protocol would ack per block). *)
              Kclock.sleep_ns 200_000;
              send_all (seq + 1)
            end
          in
          send_all 0;
          ok (Posix.close env_s kfd)
      | _ -> print_endline "[bootd] bad request");

  (* The netboot client. *)
  let booted = ref false in
  Clientos.spawn client ~name:"netboot" (fun () ->
      Kclock.sleep_ns 3_000_000;
      let fd = ok (Posix.socket env_c Io_if.Sock_dgram) in
      ok (Posix.bind env_c fd { Io_if.sin_addr = ip "10.0.0.2"; sin_port = 2069 });
      let s = ok (Posix.socket_of_fd env_c fd) in
      let req = Bytes.of_string "get /vmunix" in
      ignore
        (ok
           (s.Io_if.so_sendto ~buf:req ~pos:0 ~len:(Bytes.length req)
              ~dst:{ Io_if.sin_addr = ip "10.0.0.1"; sin_port = 69 }));
      let image = Buffer.create 32768 in
      let pkt = Bytes.create (chunk + 4) in
      let rec fetch expected =
        let n, _ = ok (s.Io_if.so_recvfrom ~buf:pkt ~pos:0 ~len:(chunk + 4)) in
        if n < 4 then failwith "short packet";
        let seq = Bytes.get_uint16_le pkt 0 in
        let len = Bytes.get_uint16_le pkt 2 in
        if seq <> expected land 0xffff then failwith "out-of-order block";
        if len > 0 then begin
          Buffer.add_subbytes image pkt 4 len;
          fetch (expected + 1)
        end
      in
      fetch 0;
      let img = Buffer.to_bytes image in
      Printf.printf "[netboot] fetched %d bytes over UDP\n%!" (Bytes.length img);
      (* Validate and boot it on this machine. *)
      (match Loader.validate_image img with
      | Ok () -> print_endline "[netboot] MultiBoot header valid"
      | Error msg -> failwith msg);
      let loaded =
        Loader.load client.Clientos.machine ~image:img ~cmdline:"netbooted root=nfs"
          ~modules:[]
      in
      Printf.printf "[netboot] payload kernel loaded at %#x..%#x, cmdline %S\n%!"
        loaded.Loader.kernel_start loaded.Loader.kernel_end
        loaded.Loader.info.Multiboot.cmdline;
      (* Prove the bytes made it into client RAM intact. *)
      let probe = Bytes.create 14 in
      Physmem.blit_to_bytes
        (Machine.ram client.Clientos.machine)
        ~src_addr:(loaded.Loader.kernel_start + 12)
        ~dst:probe ~dst_pos:0 ~len:14;
      Printf.printf "[netboot] kernel text begins: %S\n" (Bytes.to_string probe);
      booted := true);

  Clientos.run tb ~until:(fun () -> !booted);
  Printf.printf "netboot complete in %.2f virtual ms\n"
    (float_of_int (World.now tb.Clientos.world) /. 1e6)
