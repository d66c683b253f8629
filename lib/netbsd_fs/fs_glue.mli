(** GLUE — exports the NetBSD-derived file system as OSKit COM components
    (Section 3.8).

    [mount] hands back the root as an [Io_if.dir].  The exported interface
    is deliberately the donor's internal VFS granularity — [lookup] takes a
    single pathname component — which is what made the secure file server
    possible without touching the file system internals.  Every call
    crosses the encapsulation boundary (glue charge + manufactured current
    process, Section 4.7.5). *)

(** Files exported here also carry the {!Io_if.filemap} face (reached by
    [Com.query]): response-sized byte ranges map to pinned buffer-cache
    fragments for the zero-copy sendfile path, with [Error.Notsup] for
    ranges that cross a hole. *)

(** [newfs blkio] formats the device and returns its mounted root. *)
val newfs : Io_if.blkio -> (Io_if.dir, Error.t) result

(** [mount blkio] mounts an existing file system. *)
val mount : Io_if.blkio -> (Io_if.dir, Error.t) result

(** Flush delayed writes (the [d_sync]/[f_sync] methods do this too). *)
val sync_all : Io_if.dir -> (unit, Error.t) result

(** [newfs] returning the file-system handle alongside the root, for the
    glue-level extensions below. *)
val newfs_fs : Io_if.blkio -> (Ffs.t * Io_if.dir, Error.t) result

(** [link fs ~from_dir ~from_name ~to_dir ~to_name] — hard link, a
    glue-level extension (the public COM dir contract omits it); both
    directories must belong to [fs]. *)
val link :
  Ffs.t ->
  from_dir:Io_if.dir ->
  from_name:string ->
  to_dir:Io_if.dir ->
  to_name:string ->
  (unit, Error.t) result
