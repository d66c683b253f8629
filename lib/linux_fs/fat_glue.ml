(* Entry discipline as in the other encapsulated components: charge the
   crossing, translate Fat_error to error_t. *)
let enter f =
  Cost.charge_glue_crossing Device_io;
  match f () with
  | v -> Ok v
  | exception Linux_fatfs.Fat_error e -> Result.Error e
  | exception Error.Error e -> Result.Error e

(* Private recognition interface so rename can tell our directories from
   foreign ones (cross-file-system rename is EXDEV, as in POSIX). *)
type dir_token = { tok_fs : Linux_fatfs.t; tok_dirh : Linux_fatfs.dirh }

let dirh_iid : dir_token Iid.t = Iid.declare "oskit.linuxfs.dirh"

let ino_of_dirh = function Linux_fatfs.Root -> 1 | Linux_fatfs.Chain c -> c + 0x10000

let find_entry t dirh name =
  match Linux_fatfs.dir_find t dirh name with
  | Some e -> e
  | None -> Linux_fatfs.fail Error.Noent

(* Zero-fill [from, to) of a file chain, growing it. *)
let zero_fill t ~head ~from ~upto =
  if upto > from then begin
    let z = Bytes.make (upto - from) '\000' in
    Linux_fatfs.file_write t ~head ~off:from ~len:(upto - from) ~src:z ~src_pos:0
  end
  else head

let rec file_of t dirh name : Io_if.file =
  let rec view () =
    { Io_if.f_unknown = unknown ();
      f_read =
        (fun ~buf ~pos ~offset ~amount ->
          enter (fun () ->
              let e = find_entry t dirh name in
              Linux_fatfs.file_read t ~head:e.Linux_fatfs.de_cluster
                ~size:e.Linux_fatfs.de_size ~off:offset ~len:amount ~dst:buf ~dst_pos:pos));
      f_write =
        (fun ~buf ~pos ~offset ~amount ->
          enter (fun () ->
              if offset < 0 then Linux_fatfs.fail Error.Inval;
              let e = find_entry t dirh name in
              let head = e.Linux_fatfs.de_cluster in
              (* Writing past EOF implies a zero-filled gap. *)
              let head =
                if offset > e.Linux_fatfs.de_size then
                  zero_fill t ~head ~from:e.Linux_fatfs.de_size ~upto:offset
                else head
              in
              let head =
                Linux_fatfs.file_write t ~head ~off:offset ~len:amount ~src:buf ~src_pos:pos
              in
              Linux_fatfs.update_entry t dirh e ~cluster:head
                ~size:(max e.Linux_fatfs.de_size (offset + amount));
              amount));
      f_getstat =
        (fun () ->
          enter (fun () ->
              let e = find_entry t dirh name in
              { Io_if.st_ino = e.Linux_fatfs.de_slot + ino_of_dirh dirh;
                st_size = e.Linux_fatfs.de_size;
                st_kind = Io_if.Regular;
                st_nlink = 1 }));
      f_setsize =
        (fun size ->
          enter (fun () ->
              if size < 0 then Linux_fatfs.fail Error.Inval;
              let e = find_entry t dirh name in
              if size = 0 then begin
                Linux_fatfs.chain_free t e.Linux_fatfs.de_cluster;
                Linux_fatfs.update_entry t dirh e ~cluster:0 ~size:0
              end
              else if size <= e.Linux_fatfs.de_size then
                (* Shrink: keep the chain, adjust the size (lazy, like the
                   donor; clusters past EOF are reclaimed on unlink). *)
                Linux_fatfs.update_entry t dirh e ~cluster:e.Linux_fatfs.de_cluster ~size
              else begin
                let head =
                  zero_fill t ~head:e.Linux_fatfs.de_cluster ~from:e.Linux_fatfs.de_size
                    ~upto:size
                in
                Linux_fatfs.update_entry t dirh e ~cluster:head ~size
              end));
      f_sync = (fun () -> Ok ()) }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.file_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()

and dir_of t dirh : Io_if.dir =
  let rec view () =
    { Io_if.d_unknown = unknown ();
      d_getstat =
        (fun () ->
          enter (fun () ->
              { Io_if.st_ino = ino_of_dirh dirh;
                st_size = List.length (Linux_fatfs.dir_entries t dirh);
                st_kind = Io_if.Directory;
                st_nlink = 1 }));
      d_lookup =
        (fun name ->
          enter (fun () ->
              let e = find_entry t dirh name in
              if e.Linux_fatfs.de_attr land Linux_fatfs.attr_directory <> 0 then
                Io_if.Node_dir (dir_of t (Linux_fatfs.Chain e.Linux_fatfs.de_cluster))
              else Io_if.Node_file (file_of t dirh name)));
      d_create =
        (fun name ->
          enter (fun () ->
              ignore (Linux_fatfs.create_file t dirh name);
              file_of t dirh name));
      d_mkdir =
        (fun name ->
          enter (fun () ->
              let e = Linux_fatfs.make_dir t dirh name in
              dir_of t (Linux_fatfs.Chain e.Linux_fatfs.de_cluster)));
      d_unlink = (fun name -> enter (fun () -> Linux_fatfs.remove t dirh name ~want_dir:false));
      d_rmdir = (fun name -> enter (fun () -> Linux_fatfs.remove t dirh name ~want_dir:true));
      d_rename =
        (fun src_name dst_dir dst_name ->
          enter (fun () ->
              (* Only within the same FAT volume; foreign targets are
                 cross-device. *)
              match Com.query dst_dir.Io_if.d_unknown dirh_iid with
              | Result.Error _ -> Linux_fatfs.fail Error.Xdev
              | Ok tok ->
                  ignore (dst_dir.Io_if.d_unknown.Com.release ());
                  if tok.tok_fs != t then Linux_fatfs.fail Error.Xdev;
                  let e = find_entry t dirh src_name in
                  (match Linux_fatfs.dir_find t tok.tok_dirh dst_name with
                  | Some _ -> Linux_fatfs.remove t tok.tok_dirh dst_name ~want_dir:false
                  | None -> ());
                  let slot = Linux_fatfs.dir_free_slot t tok.tok_dirh in
                  Linux_fatfs.dir_write_slot t tok.tok_dirh slot
                    (Linux_fatfs.render_dirent ~name83:(Linux_fatfs.to_83 dst_name)
                       ~attr:e.Linux_fatfs.de_attr ~cluster:e.Linux_fatfs.de_cluster
                       ~size:e.Linux_fatfs.de_size);
                  (* Delete the old slot without freeing the chain. *)
                  (match Linux_fatfs.dir_read_slot t dirh e.Linux_fatfs.de_slot with
                  | Some raw ->
                      Bytes.set raw 0 Linux_fatfs.deleted_mark;
                      Linux_fatfs.dir_write_slot t dirh e.Linux_fatfs.de_slot raw
                  | None -> ())));
      d_readdir =
        (fun () ->
          enter (fun () ->
              List.map (fun e -> e.Linux_fatfs.de_name) (Linux_fatfs.dir_entries t dirh)));
      d_sync = (fun () -> Ok ()) }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.dir_iid, fun () -> view ());
             Iid.B (dirh_iid, fun () -> { tok_fs = t; tok_dirh = dirh }) ]))
  and unknown () = Lazy.force obj in
  view ()

let mkfs dev = enter (fun () -> Linux_fatfs.mkfs dev) |> Result.map (fun t -> dir_of t Linux_fatfs.Root)
let mount dev = enter (fun () -> Linux_fatfs.mount dev) |> Result.map (fun t -> dir_of t Linux_fatfs.Root)
