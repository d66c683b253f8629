(* A blkio over plain memory — the RAM-disk every kit needs for tests and
   for clients that want a file system without a disk driver.  Charges
   copies like any other block device, but has no mechanical latency.  The
   store is a demand-zero {!Physmem} one, so blocks never written cost no
   host memory.

   Its blocks live in local memory, so it also exports the {!Io_if.blkmap}
   face: a range that is one whole page of the store is handed out in
   place, for nothing.  A write to a page handed out since its last write
   gives the page fresh bytes first (copy-on-write), so every mapping stays
   a snapshot of the bytes it was given.  The pages handed out are kept in
   a table made on the first mapping: a store never mapped keeps none. *)

let make ?(block_size = 512) ~bytes () : Io_if.blkio =
  let store = Physmem.create ~bytes in
  let page = Physmem.page in
  let clamp offset amount = max 0 (min amount (bytes - offset)) in
  let mapped : (int, unit) Hashtbl.t option ref = ref None in
  let map ~offset ~amount =
    if offset < 0 || offset land (page - 1) <> 0 || amount <> page || offset + amount > bytes then
      None
    else begin
      let tbl =
        match !mapped with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 16 in
            mapped := Some tbl;
            tbl
      in
      Hashtbl.replace tbl (offset / page) ();
      Physmem.map_page store ~addr:offset ~len:amount
    end
  in
  (* Copy-on-write: the handed-out pages of [offset, offset+n) get fresh
     bytes before a write reaches them. *)
  let unshare offset n =
    match !mapped with
    | None -> ()
    | Some tbl ->
        for p = offset / page to (offset + n - 1) / page do
          if Hashtbl.mem tbl p then begin
            Physmem.unshare store ~addr:(p * page) ~len:page;
            Hashtbl.remove tbl p
          end
        done
  in
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
            if n > 0 then begin
              unshare offset n;
              Physmem.blit_from_bytes store ~src:buf ~src_pos:pos ~dst_addr:offset ~len:n
            end;
            Ok n
          end);
      getsize = (fun () -> bytes);
      setsize = (fun _ -> Result.Error Error.Notsup) }
  and map_view () = { Io_if.bm_unknown = unknown (); bm_map = map }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.blkio_iid, fun () -> view ()); Iid.B (Io_if.blkmap_iid, map_view) ]))
  and unknown () = Lazy.force obj in
  view ()
