(* A blkio over plain memory — the RAM-disk every kit needs for tests and
   for clients that want a file system without a disk driver.  Charges
   copies like any other block device, but has no mechanical latency.  The
   store is a demand-zero {!Physmem} one, so blocks never written cost no
   host memory. *)

let make ?(block_size = 512) ~bytes () : Io_if.blkio =
  let store = Physmem.create ~bytes in
  let clamp offset amount = max 0 (min amount (bytes - offset)) in
  let rec view () =
    { Io_if.bio_unknown = unknown ();
      getblocksize = (fun () -> block_size);
      bio_read =
        (fun ~buf ~pos ~offset ~amount ->
          if offset < 0 then Result.Error Error.Inval
          else begin
            let n = clamp offset amount in
            Cost.charge_copy n;
            if n > 0 then Physmem.blit_to_bytes store ~src_addr:offset ~dst:buf ~dst_pos:pos ~len:n;
            Ok n
          end);
      bio_write =
        (fun ~buf ~pos ~offset ~amount ->
          if offset < 0 then Result.Error Error.Inval
          else begin
            let n = clamp offset amount in
            Cost.charge_copy n;
            if n > 0 then
              Physmem.blit_from_bytes store ~src:buf ~src_pos:pos ~dst_addr:offset ~len:n;
            Ok n
          end);
      getsize = (fun () -> bytes);
      setsize = (fun _ -> Result.Error Error.Notsup) }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.blkio_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()
