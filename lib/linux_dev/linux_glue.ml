(* The private interface by which this glue recognises its own buffers:
   querying it succeeds only on bufio objects this module exported. *)
let skbuff_iid : Skbuff.sk_buff Iid.t = Iid.declare "oskit.linux.skbuff"

let bufio_of_skb skb =
  let size () = skb.Skbuff.len in
  let rec view () =
    { Io_if.buf_unknown = unknown ();
      buf_size = size;
      buf_read =
        (fun ~buf ~pos ~offset ~amount ->
          let n = max 0 (min amount (size () - offset)) in
          Cost.charge_copy n;
          if Skbuff.skb_is_nonlinear skb then begin
            (* Walk the fragment list; [skip] bytes in, then gather [n]. *)
            let skip = ref offset and todo = ref n and at = ref pos in
            List.iter
              (fun (data, off, len) ->
                let drop = min !skip len in
                let take = min !todo (len - drop) in
                if take > 0 then begin
                  Bytes.blit data (off + drop) buf !at take;
                  at := !at + take;
                  todo := !todo - take
                end;
                skip := !skip - drop)
              skb.Skbuff.skb_frags
          end
          else Bytes.blit skb.Skbuff.skb_data (skb.Skbuff.head + offset) buf pos n;
          Ok n);
      buf_write =
        (fun ~buf ~pos ~offset ~amount ->
          if Skbuff.skb_is_nonlinear skb then
            (* Fragment storage is loaned: writing through would corrupt
               the lender's data (cf. Mbuf.m_write on ext storage). *)
            Result.Error Error.Notsup
          else begin
            let n = max 0 (min amount (size () - offset)) in
            Cost.charge_copy n;
            Bytes.blit buf pos skb.Skbuff.skb_data (skb.Skbuff.head + offset) n;
            Ok n
          end);
      buf_map =
        (fun () ->
          if Skbuff.skb_is_nonlinear skb then None
          else Some (skb.Skbuff.skb_data, skb.Skbuff.head));
      buf_map_v = (fun () -> Some (Skbuff.skb_fragments skb)) }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.bufio_iid, fun () -> view ());
             Iid.B (skbuff_iid, fun () -> skb) ]))
  and unknown () = Lazy.force obj in
  view ()

let skb_of_bufio ?cache (io : Io_if.bufio) =
  match Recognition.query ?memo:cache io skbuff_iid with
  | Ok skb -> skb, false (* one of ours: unwrapped, no copy *)
  | Result.Error _ -> (
      let n = io.Io_if.buf_size () in
      match io.Io_if.buf_map () with
      | Some (backing, start) ->
          (* Contiguous foreign data: fake sk_buff aliasing it.  Not
             pooled — the backing belongs to the lender. *)
          ( { Skbuff.skb_data = backing; head = start; len = n; protocol = 0;
              dev_name = ""; skb_pooled = false; skb_freed = false;
              link_ready = false; skb_frags = [] },
            false )
      | None -> (
          match if Cost.config.Cost.sg_tx then io.Io_if.buf_map_v () else None with
          | Some frags ->
              (* Scatter-gather: the chain crosses as an iovec; the only
                 remaining gather is the NIC's DMA.  The fragments stay the
                 producer's — the push below is synchronous, so they live
                 until the frame is on the wire. *)
              Skbuff.skb_of_frags frags, false
          | None -> (
              (* Discontiguous (e.g. an mbuf chain): allocate and copy. *)
              Cost.count_linearized_xmit ();
              let skb = Skbuff.alloc_skb n in
              ignore (Skbuff.skb_put skb n);
              match
                io.Io_if.buf_read ~buf:skb.Skbuff.skb_data ~pos:0 ~offset:0 ~amount:n
              with
              | Ok _ -> skb, true
              | Result.Error e -> Error.fail e)))

(* ---- etherdev COM objects ---- *)

let etherdev_of osenv (dev : Linux_eth_drv.device) : Com.unknown =
  let make_xmit_netio () =
    (* One recognition verdict per xmit binding: the first push pays the
       COM query, steady-state frames skip it (the paper's per-packet
       indirect-call overhead, hoisted). *)
    let cache = Recognition.create () in
    (* A frame is refused when the driver rejects it or when no sk_buff
       can be had to copy it into: either way the caller learns it from
       the result, never by an exception. *)
    let xmit_one io =
      match skb_of_bufio ~cache io with
      | exception Memfault.Nomem -> Result.Error Error.Nomem
      | skb, copied ->
          let r =
            match Linux_eth_drv.hard_start_xmit dev skb with
            | () -> Ok ()
            | exception Error.Error e -> Result.Error e
          in
          (* A copy made for this transmit is dead once the frame is on
             the wire or refused; unwrapped/fake skbs belong to the
             caller. *)
          if copied then Skbuff.skb_free skb;
          r
    in
    (* Every frame is attempted, in order; the error of each refusal. *)
    let rec xmit_all = function
      | [] -> []
      | io :: rest -> (
          match xmit_one io with
          | Ok () -> xmit_all rest
          | Result.Error e -> e :: xmit_all rest)
    in
    let rec view () =
      { Io_if.nio_unknown = unknown ();
        push =
          (fun ios ->
            (* One crossing carries the whole burst. *)
            Cost.charge_glue_crossing Tx_push;
            match xmit_all ios with [] -> Ok () | errs -> Result.Error errs) }
    and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.netio_iid, fun () -> view ()) ]))
    and unknown () = Lazy.force obj in
    view ()
  in
  let ed_open ~(recv : Io_if.netio) =
    let rx skbs =
      (* Driver -> client: wrap the sk_buffs and push them upward in one
         push.  The crossing itself is charged by the receiving
         component's netio. *)
      Linux_emu.with_current (fun () -> ignore (recv.Io_if.push (List.map bufio_of_skb skbs)))
    in
    match Linux_eth_drv.dev_open osenv dev ~rx with
    | Ok () -> Ok (make_xmit_netio ())
    | Result.Error _ as e -> e
  in
  let rec view () =
    { Io_if.ed_unknown = unknown ();
      ed_ethaddr = (fun () -> dev.Linux_eth_drv.dev_addr);
      ed_open =
        (fun ~recv ->
          Cost.charge_glue_crossing Open_close;
          Linux_emu.with_current (fun () -> ed_open ~recv));
      ed_close =
        (fun () ->
          Cost.charge_glue_crossing Open_close;
          Linux_emu.with_current (fun () ->
              Linux_eth_drv.dev_stop osenv dev;
              Ok ())) }
  and obj =
    lazy (Com.create (fun _ -> [ Iid.B (Io_if.etherdev_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  unknown ()

(* ---- blkio COM objects over the IDE driver ---- *)

let blkio_of osenv (drive : Linux_ide_drv.drive) : Com.unknown =
  Linux_ide_drv.attach osenv drive;
  let ssize = Disk.sector_size drive.Linux_ide_drv.hw in
  let dev_bytes = Disk.sectors drive.Linux_ide_drv.hw * ssize in
  (* Byte-granularity access over the sector driver: whole-sector I/O with
     read-modify-write for unaligned writes, as buffer-cache-less clients
     expect from the raw blkio (Section 4.4.2: "raw, unbuffered"). *)
  let do_read ~buf ~pos ~offset ~amount =
    let amount = max 0 (min amount (dev_bytes - offset)) in
    if amount = 0 then Ok 0
    else begin
      let first = offset / ssize in
      let last = (offset + amount - 1) / ssize in
      let tmp = Bytes.create ((last - first + 1) * ssize) in
      Linux_ide_drv.ide_rw drive `Read ~sector:first ~nr_sectors:(last - first + 1)
        ~buffer:tmp ();
      Cost.charge_copy amount;
      Bytes.blit tmp (offset - (first * ssize)) buf pos amount;
      Ok amount
    end
  in
  let do_write ~buf ~pos ~offset ~amount =
    let amount = max 0 (min amount (dev_bytes - offset)) in
    if amount = 0 then Ok 0
    else begin
      let first = offset / ssize in
      let last = (offset + amount - 1) / ssize in
      if offset mod ssize = 0 && amount mod ssize = 0 then
        (* Fully sector-aligned: the controller DMAs straight from the
           caller's buffer — no bounce buffer, no pre-read, no CPU copy. *)
        Linux_ide_drv.ide_rw drive `Write ~sector:first
          ~nr_sectors:(last - first + 1) ~buffer:buf ~buf_pos:pos ()
      else begin
        (* Unaligned span: read-modify-write through a bounce buffer. *)
        let tmp = Bytes.create ((last - first + 1) * ssize) in
        Linux_ide_drv.ide_rw drive `Read ~sector:first ~nr_sectors:(last - first + 1)
          ~buffer:tmp ();
        Cost.charge_copy amount;
        Bytes.blit buf pos tmp (offset - (first * ssize)) amount;
        Linux_ide_drv.ide_rw drive `Write ~sector:first ~nr_sectors:(last - first + 1)
          ~buffer:tmp ()
      end;
      Ok amount
    end
  in
  let rec view () =
    { Io_if.bio_unknown = unknown ();
      getblocksize = (fun () -> ssize);
      bio_read =
        (fun ~buf ~pos ~offset ~amount ->
          Cost.charge_glue_crossing Device_io;
          Linux_emu.with_current (fun () ->
              Error.to_result (fun () -> do_read ~buf ~pos ~offset ~amount) |> Result.join));
      bio_write =
        (fun ~buf ~pos ~offset ~amount ->
          Cost.charge_glue_crossing Device_io;
          Linux_emu.with_current (fun () ->
              Error.to_result (fun () -> do_write ~buf ~pos ~offset ~amount) |> Result.join));
      getsize = (fun () -> dev_bytes);
      setsize = (fun _ -> Result.Error Error.Notsup) }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.blkio_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  unknown ()

(* ---- fdev driver registration ---- *)

let init_ethernet () =
  Fdev.register_driver
    { Fdev.drv_name = "linux-ethernet";
      drv_origin = "linux-2.0.29";
      drv_probe =
        (fun osenv -> List.map (etherdev_of osenv) (Linux_eth_drv.probe_devices osenv)) }

let init_ide () =
  Fdev.register_driver
    { Fdev.drv_name = "linux-ide";
      drv_origin = "linux-2.0.29";
      drv_probe =
        (fun osenv -> List.map (blkio_of osenv) (Linux_ide_drv.probe_drives osenv)) }

let native_devices osenv = Linux_eth_drv.probe_devices osenv
