(* The entry discipline for every exported method: charge the boundary
   crossing, manufacture a current process for the encapsulated code (the
   NetBSD code checks permissions against one), translate Fs_error into
   error_t results. *)
let enter f =
  Cost.charge_glue_crossing Device_io;
  match f () with
  | v -> Ok v
  | exception Ffs.Fs_error e -> Result.Error e
  | exception Error.Error e -> Result.Error e

let stat_of (node : Ffs.inode) =
  { Io_if.st_ino = node.Ffs.ino;
    st_size = node.Ffs.i_size;
    st_kind = (match node.Ffs.i_kind with Ffs.K_dir -> Io_if.Directory | _ -> Io_if.Regular);
    st_nlink = node.Ffs.i_nlink }

let rec file_of fs (node : Ffs.inode) : Io_if.file =
  let rec view () =
    { Io_if.f_unknown = unknown ();
      f_read =
        (fun ~buf ~pos ~offset ~amount ->
          enter (fun () -> Ffs.read fs node ~off:offset ~len:amount ~dst:buf ~dst_pos:pos));
      f_write =
        (fun ~buf ~pos ~offset ~amount ->
          enter (fun () -> Ffs.write fs node ~off:offset ~len:amount ~src:buf ~src_pos:pos));
      f_getstat = (fun () -> enter (fun () -> stat_of node));
      f_setsize = (fun size -> enter (fun () -> Ffs.truncate fs node size));
      f_sync = (fun () -> enter (fun () -> Ffs.sync fs)) }
  (* The sendfile face: expose the file's buffer-cache blocks as pinned
     fragments.  A hole in the range cannot be loaned out (the mapping
     would alias the shared zero fill), so it reports Notsup and the
     caller falls back on f_read. *)
  and fmap =
    lazy
      { Io_if.fm_unknown = unknown ();
        fm_map_blocks =
          (fun ~offset ~amount ->
            match enter (fun () -> Ffs.map_blocks fs node ~off:offset ~len:amount) with
            | Ok (Some frags) -> Ok frags
            | Ok None -> Result.Error Error.Notsup
            | Result.Error _ as e -> (e :> (Io_if.file_frag list, Error.t) result)) }
  and obj =
    lazy
      (Com.create (fun _ ->
           [ Iid.B (Io_if.file_iid, fun () -> view ());
             Iid.B (Io_if.filemap_iid, fun () -> Lazy.force fmap) ]))
  and unknown () = Lazy.force obj in
  view ()

and dir_of fs (node : Ffs.inode) : Io_if.dir =
  let node_if ino =
    let child = Ffs.iget fs ino in
    match child.Ffs.i_kind with
    | Ffs.K_dir -> Io_if.Node_dir (dir_of fs child)
    | Ffs.K_file | Ffs.K_free -> Io_if.Node_file (file_of fs child)
  in
  let rec view () =
    { Io_if.d_unknown = unknown ();
      d_getstat = (fun () -> enter (fun () -> stat_of node));
      d_lookup =
        (fun name ->
          enter (fun () ->
              match Ffs.dir_lookup fs node name with
              | Some (_, ino) -> node_if ino
              | None -> Error.fail Error.Noent));
      d_create = (fun name -> enter (fun () -> file_of fs (Ffs.create_file fs node ~name)));
      d_mkdir = (fun name -> enter (fun () -> dir_of fs (Ffs.make_dir fs node ~name)));
      d_unlink = (fun name -> enter (fun () -> Ffs.unlink fs node ~name));
      d_rmdir = (fun name -> enter (fun () -> Ffs.remove_dir fs node ~name));
      d_rename =
        (fun src_name dst_dir dst_name ->
          enter (fun () ->
              (* The destination must be one of ours; recover its inode
                 through stat — the COM interface hides the rest. *)
              match dst_dir.Io_if.d_getstat () with
              | Ok st ->
                  let dnode = Ffs.iget fs st.Io_if.st_ino in
                  Ffs.rename fs node ~src_name dnode ~dst_name
              | Result.Error e -> Error.fail e));
      d_readdir = (fun () -> enter (fun () -> Ffs.dir_entries fs node));
      d_sync = (fun () -> enter (fun () -> Ffs.sync fs)) }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.dir_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()

(* The COM dir contract has no link method (the donor VFS exposed it via
   vnode ops the kit's public interface omits); offer it as a glue-level
   extension keyed by directory stat identities, like rename. *)
let link root ~from_dir ~from_name ~to_dir ~to_name =
  Cost.charge_glue_crossing Device_io;
  match root with
  | fs -> (
      match
        ( (from_dir : Io_if.dir).Io_if.d_getstat (),
          (to_dir : Io_if.dir).Io_if.d_getstat () )
      with
      | Ok a, Ok b -> (
          match
            Error.to_result (fun () ->
                Ffs.link fs ~from_dir:(Ffs.iget fs a.Io_if.st_ino) ~from_name
                  ~to_dir:(Ffs.iget fs b.Io_if.st_ino) ~to_name)
          with
          | Ok () -> Ok ()
          | Result.Error e -> Result.Error e
          | exception Ffs.Fs_error e -> Result.Error e)
      | Result.Error e, _ | _, Result.Error e -> Result.Error e)

let newfs dev = enter (fun () -> Ffs.newfs dev) |> Result.map (fun fs -> dir_of fs (Ffs.root fs))
let mount dev = enter (fun () -> Ffs.mount dev) |> Result.map (fun fs -> dir_of fs (Ffs.root fs))

(* [newfs] that also returns the file-system handle for glue-level
   extensions such as [link]. *)
let newfs_fs dev =
  enter (fun () -> Ffs.newfs dev) |> Result.map (fun fs -> fs, dir_of fs (Ffs.root fs))

let sync_all (root : Io_if.dir) = root.Io_if.d_sync ()
