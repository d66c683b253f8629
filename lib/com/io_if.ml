(** The OSKit's common I/O interface definitions.

    These are the behavioural contracts through which components are bound
    together at run time (Sections 4.2.2, 4.4): block devices, packet
    buffers, network send/receive, character streams, sockets, and
    VFS-granularity files and directories.  Each interface is a record of
    closures — the OCaml spelling of the paper's [ops] function-pointer
    tables (Figure 2) — plus the [Com.unknown] of the exporting object so
    clients can navigate between views.

    Per Section 4.4.3 these contracts deliberately carry {e no} common
    buffer-management implementation: packets cross component boundaries as
    {!bufio} objects, and each component re-wraps them into its own internal
    representation (skbuffs, mbufs, ...) behind its glue code. *)

(** {1 Block I/O} — Figure 2 of the paper. *)

type blkio = {
  bio_unknown : Com.unknown;
  getblocksize : unit -> int;
  bio_read : buf:bytes -> pos:int -> offset:int -> amount:int -> (int, Error.t) result;
      (** returns bytes actually read; short only at end of device *)
  bio_write : buf:bytes -> pos:int -> offset:int -> amount:int -> (int, Error.t) result;
  getsize : unit -> int;
  setsize : int -> (unit, Error.t) result;
}

let blkio_iid : blkio Iid.t =
  Iid.make ~name:"oskit.blkio"
    (Guid.make 0x4aa7dfe1l 0x7c74 0x11cf "\xb5\x00\x08\x00\x09\x53\xad\xc2")

(** Block mapping: an optional face beside {!blkio}, reached by
    [Com.query] from [bio_unknown], for a device that keeps its blocks in
    local memory (a RAM disk).  It is [bufio]'s [map] rule (Section 4.4.2)
    for a range of a device: [bm_map ~offset ~amount] grants direct access
    when the device stores [offset, offset+amount) as one whole page.
    [Some (page, start)]: the bytes are [page[start .. start+amount)] and
    may be read in place.  They never change under the holder: a later
    write to the range gives the device fresh bytes first (copy-on-write),
    so a mapping is a snapshot of the range as it was.  [None]: the range
    is not one stored page, and the caller reads it with [bio_read].  A
    device without the face is read by copying, as before. *)
type blkmap = {
  bm_unknown : Com.unknown;
  bm_map : offset:int -> amount:int -> (bytes * int) option;
}

let blkmap_iid : blkmap Iid.t = Iid.declare "oskit.blkmap"

(** {1 Buffer I/O}

    The extension of [blkio] for data that may live in local memory
    (Section 4.4.2): [map] grants direct access when the implementor stores
    the requested range contiguously — this is what lets the receive path
    avoid copies — and fails harmlessly otherwise, in which case the caller
    falls back on [read]. *)

type bufio = {
  buf_unknown : Com.unknown;
  buf_size : unit -> int;
  buf_read : buf:bytes -> pos:int -> offset:int -> amount:int -> (int, Error.t) result;
  buf_write : buf:bytes -> pos:int -> offset:int -> amount:int -> (int, Error.t) result;
  buf_map : unit -> (bytes * int) option;
      (** [Some (backing, start)]: the object's bytes live at
          [backing[start .. start+size)] and may be read in place *)
  buf_map_v : unit -> (bytes * int * int) list option;
      (** Vectored mapping: [Some frags] exposes the object's bytes as an
          ordered iovec of [(backing, off, len)] fragments that may be read
          in place.  This is what lets a discontiguous producer (an mbuf
          chain) cross a component boundary without being flattened: the
          consumer gathers the fragments itself — typically straight into a
          NIC's scatter-gather DMA ring.  A contiguous object returns a
          single fragment; [None] means in-place access is not available at
          all and the caller falls back on [buf_read]. *)
}

let bufio_iid : bufio Iid.t = Iid.declare "oskit.bufio"

(** {1 Network I/O}

    Push-style packet exchange.  When the client opens a device it passes
    the [netio] on which it wants received packets pushed and gets back the
    [netio] on which to push packets for transmission (Section 5). *)

type netio = {
  nio_unknown : Com.unknown;
  push : bufio list -> (unit, Error.t list) result;
      (** Deliver a burst of packets, in order, through ONE boundary
          crossing; a packet that crosses alone is a burst of one.  The
          burst is bounded by Cost.config.rx_batch: a NAPI-style receive
          poll's frames, or the frames one BSD [tcp_output] emits.  Every
          buffer is attempted.  [Error errs]: one error per refused
          buffer, in order. *)
}

let netio_iid : netio Iid.t = Iid.declare "oskit.netio"

(** {1 Ethernet devices} *)

type etherdev = {
  ed_unknown : Com.unknown;
  ed_ethaddr : unit -> string;  (** 6-byte MAC *)
  ed_open : recv:netio -> (netio, Error.t) result;
  ed_close : unit -> (unit, Error.t) result;
}

let etherdev_iid : etherdev Iid.t = Iid.declare "oskit.etherdev"

(** {1 Character devices} *)

type chario = {
  cio_unknown : Com.unknown;
  cio_read : buf:bytes -> pos:int -> amount:int -> (int, Error.t) result;
      (** blocking; 0 only at end of stream *)
  cio_write : buf:bytes -> pos:int -> amount:int -> (int, Error.t) result;
}

let chario_iid : chario Iid.t = Iid.declare "oskit.chario"

(** {1 Sockets} — the BSD socket contract the minimal C library binds file
    descriptors to. *)

type sockaddr = { sin_addr : int32; sin_port : int }

type sock_type = Sock_stream | Sock_dgram

type socket = {
  so_unknown : Com.unknown;
  so_bind : sockaddr -> (unit, Error.t) result;
  so_listen : backlog:int -> (unit, Error.t) result;
  so_accept : unit -> (socket * sockaddr, Error.t) result;
  so_connect : sockaddr -> (unit, Error.t) result;
  so_send : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  so_recv : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  so_sendto : buf:bytes -> pos:int -> len:int -> dst:sockaddr -> (int, Error.t) result;
  so_recvfrom : buf:bytes -> pos:int -> len:int -> (int * sockaddr, Error.t) result;
  so_getsockname : unit -> (sockaddr, Error.t) result;
  so_setsockopt : string -> int -> (unit, Error.t) result;
      (** Options by name; an option a stack does not know is [Notsup].
          FreeBSD TCP ({!Freebsd_glue}): ["sndbuf"], ["rcvbuf"],
          ["nonblock"] and ["nopush"] (TCP_NOPUSH: while nonzero, a
          sub-MSS tail of new data waits for more data or the FIN; a
          listener's setting passes to the connections it accepts, and
          clearing it sends the tail).  FreeBSD UDP: none.  Linux
          ({!Linux_sock_com}): ["nonblock"] only — Linux 2.0 had no cork. *)
  so_shutdown : unit -> (unit, Error.t) result;
  so_close : unit -> (unit, Error.t) result;
}

let socket_iid : socket Iid.t = Iid.declare "oskit.socket"

(** {1 Asynchronous I/O}

    The readiness view of a stream object — the OSKit's [oskit_asyncio]
    contract.  Where {!socket} is the blocking BSD personality, this is the
    select/poll personality: [poll] reports which of the condition bits are
    currently true, and [add_listener] registers an {!listener} whose
    [notify] fires whenever a masked condition {e becomes} true.  Exported
    by the same COM object as the socket view, so a reactor can navigate
    from either stack's socket to its readiness hooks through
    [Com.query]. *)

(** Condition masks ([OSKIT_ASYNCIO_READABLE] & co.). *)
let aio_read = 1

let aio_write = 2
let aio_exception = 4

type listener = {
  ls_unknown : Com.unknown;
  ls_notify : unit -> unit;
      (** Called at notification level (possibly from interrupt context):
          must not block, and must tolerate spurious invocations — the
          object promises only that a poll is worthwhile, not that any
          specific condition still holds by the time the listener runs. *)
}

let listener_iid : listener Iid.t = Iid.declare "oskit.listener"

type asyncio = {
  aio_unknown : Com.unknown;
  aio_poll : unit -> int;  (** current readiness, an [aio_*] bitmask *)
  aio_add_listener : listener -> int -> (int, Error.t) result;
      (** [add_listener l mask] arranges for [l.ls_notify] whenever a
          condition in [mask] becomes true; returns the readiness mask at
          registration time so the caller cannot miss an edge that fired
          before the listener was in place. *)
  aio_remove_listener : listener -> (unit, Error.t) result;
  aio_readable : unit -> int;
      (** Bytes available to read without blocking (0 if unknown). *)
}

let asyncio_iid : asyncio Iid.t = Iid.declare "oskit.asyncio"

(** [listener_create notify] wraps a plain callback as a COM listener. *)
let listener_create notify =
  let rec view () = { ls_unknown = unknown (); ls_notify = notify }
  and obj = lazy (Com.create (fun _self -> [ Iid.B (listener_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()

(** The listeners registered on one readiness source, oldest first: the
    source-side half of [aio_add_listener].  Both stacks' sockets keep
    one, and so does every synthetic source. *)
module Listeners = struct
  type t = { mutable regs : (listener * int) list (* (listener, mask) *) }

  let create () = { regs = [] }
  let length t = List.length t.regs
  let add t l mask = t.regs <- t.regs @ [ (l, mask) ]

  (** Drop [l]'s registrations (by physical equality); false if it had
      none. *)
  let remove t l =
    let rest = List.filter (fun (x, _) -> x != l) t.regs in
    let found = List.compare_lengths rest t.regs <> 0 in
    t.regs <- rest;
    found

  (** Notify, in registration order, every listener whose mask meets
      [readiness ()].  [readiness] runs only when something is
      registered, so a source nobody watches pays nothing. *)
  let notify t readiness =
    match t.regs with
    | [] -> ()
    | regs ->
        let ready = readiness () in
        List.iter (fun (l, mask) -> if ready land mask <> 0 then l.ls_notify ()) regs
end

(** [asyncio_view ~unknown ~poll ~listeners ()] builds an asyncio record
    over a source's readiness [poll] and its listener list.  [charge]
    runs once per add and per successful remove (the stacks charge a COM
    method call there).  Build it {e once} per underlying object (not
    per COM query) and hand out the same record. *)
let asyncio_view ~unknown ~poll ~listeners ?(charge = ignore) ?(readable = fun () -> 0) () =
  { aio_unknown = unknown ();
    aio_poll = poll;
    aio_add_listener =
      (fun l mask ->
        charge ();
        Listeners.add listeners l mask;
        Ok (poll ()));
    aio_remove_listener =
      (fun l ->
        if Listeners.remove listeners l then begin
          charge ();
          Ok ()
        end
        else Result.Error Error.Inval);
    aio_readable = readable }

(** The "socket factory" returned by a protocol stack's init and registered
    with the C library ([posix_set_socketcreator] in Section 5's listing). *)
type socket_factory = {
  sf_unknown : Com.unknown;
  sf_create : sock_type -> (socket, Error.t) result;
}

let socket_factory_iid : socket_factory Iid.t = Iid.declare "oskit.socket_factory"

(** {1 Files and directories}

    Deliberately VFS-granularity: [lookup] takes a {e single} path
    component, which is what let the secure file server of Section 3.8
    interpose permission checks without touching the file system's
    internals. *)

type kind = Regular | Directory

type stat = { st_ino : int; st_size : int; st_kind : kind; st_nlink : int }

type file = {
  f_unknown : Com.unknown;
  f_read : buf:bytes -> pos:int -> offset:int -> amount:int -> (int, Error.t) result;
  f_write : buf:bytes -> pos:int -> offset:int -> amount:int -> (int, Error.t) result;
  f_getstat : unit -> (stat, Error.t) result;
  f_setsize : int -> (unit, Error.t) result;
  f_sync : unit -> (unit, Error.t) result;
}

let file_iid : file Iid.t = Iid.declare "oskit.file"

type node = Node_file of file | Node_dir of dir

and dir = {
  d_unknown : Com.unknown;
  d_getstat : unit -> (stat, Error.t) result;
  d_lookup : string -> (node, Error.t) result;
  d_create : string -> (file, Error.t) result;
  d_mkdir : string -> (dir, Error.t) result;
  d_unlink : string -> (unit, Error.t) result;
  d_rmdir : string -> (unit, Error.t) result;
  d_rename : string -> dir -> string -> (unit, Error.t) result;
  d_readdir : unit -> (string list, Error.t) result;
  d_sync : unit -> (unit, Error.t) result;
}

let dir_iid : dir Iid.t = Iid.declare "oskit.dir"

(** {1 The sendfile content path: file block mapping + scatter send}

    Two optional faces that together give a zero-copy route from a file
    system's buffer cache to a protocol stack's transmit path.  A file may
    additionally export {!filemap}, exposing its bytes as pinned cache-block
    fragments; a socket may additionally export {!sendv}, accepting such
    fragments by reference.  Both are reached by [Com.query] from the
    primary face — a component that implements neither loses nothing, and
    callers fall back on the [f_read]/[so_send] copy path. *)

(** One mapped fragment: [fr_len] bytes at [fr_data[fr_off ..]], readable
    in place.  The mapping holds a pin (a buffer-cache reference) on the
    backing block; the block cannot be evicted or reused while pinned.
    [fr_hold] takes one more pin — a consumer that keeps the bytes beyond
    the mapping's lifetime (e.g. a socket buffer holding them until the
    peer acknowledges) takes its own hold and pairs it with its own
    [fr_release].  Every hold, including the mapping's original one, is
    returned with exactly one [fr_release].

    [fr_sums], when present, is a checksum memo over the whole of
    [fr_data]: slot [i] covers bytes [\[i * cksum_chunk, (i + 1) *
    cksum_chunk)] and holds their folded Internet-checksum partial sum,
    taken with the chunk's first byte as the high half of a word, or [-1]
    while that chunk has not been summed.  A consumer may sum an empty
    slot's chunk and store the result, and may add a filled slot instead
    of reading the chunk again.  The owner of the bytes resets every slot
    to [-1], in place, whenever the bytes may change, so a memo reached
    through any hold always describes the bytes as they are now.  Bytes
    mapped from a device ({!blkmap}) never change in place: their writer
    takes new bytes, and the new bytes get a new memo, while the old memo
    stays with the holds of the old bytes.  [None]: the bytes have no memo
    (httpd's header fragment, say). *)
type cksum_memo = int array

(** Bytes per checksum-memo slot.  Even, so every chunk starts at an even
    offset of the block. *)
let cksum_chunk = 64

type file_frag = {
  fr_data : bytes;
  fr_off : int;
  fr_len : int;
  fr_sums : cksum_memo option;
  fr_hold : unit -> unit;
  fr_release : unit -> unit;
}

(** Total byte length of a fragment list. *)
let frags_length frags = List.fold_left (fun a f -> a + f.fr_len) 0 frags

(** Release every fragment of a mapping (the caller's original holds). *)
let frags_release frags = List.iter (fun f -> f.fr_release ()) frags

type filemap = {
  fm_unknown : Com.unknown;
  fm_map_blocks : offset:int -> amount:int -> (file_frag list, Error.t) result;
      (** Map [amount] bytes of the file starting at [offset] as cache-block
          fragments (short at end of file; partial head/tail blocks appear
          as partial fragments).  Each returned fragment is pinned; the
          caller owns one release per fragment.  Fails ([Error.Notsup])
          when the range cannot be mapped — e.g. it crosses a hole — and
          the caller must fall back on [f_read]. *)
}

let filemap_iid : filemap Iid.t = Iid.declare "oskit.filemap"

type sendv = {
  sv_unknown : Com.unknown;
  sv_send_frags : frags:file_frag list -> pos:int -> (int, Error.t) result;
      (** Scatter send: append the fragment bytes from stream offset [pos]
          (within the concatenated fragments) into the socket, by
          reference where the stack supports it.  Returns bytes accepted;
          blocking/nonblocking semantics follow the socket's [so_send].
          The callee takes its own holds ({!field:file_frag.fr_hold}) for
          whatever it keeps in flight — the caller's mapping pins remain
          the caller's to release. *)
}

let sendv_iid : sendv Iid.t = Iid.declare "oskit.sendv"

(** {1 Helpers} *)

(** [bufio_of_bytes b] wraps plain contiguous bytes — the trivial bufio
    every component can produce.  [map] succeeds. *)
let bufio_of_bytes b =
  let rec view () =
    { buf_unknown = unknown ();
      buf_size = (fun () -> Bytes.length b);
      buf_read =
        (fun ~buf ~pos ~offset ~amount ->
          let n = max 0 (min amount (Bytes.length b - offset)) in
          Bytes.blit b offset buf pos n;
          Ok n);
      buf_write =
        (fun ~buf ~pos ~offset ~amount ->
          let n = max 0 (min amount (Bytes.length b - offset)) in
          Bytes.blit buf pos b offset n;
          Ok n);
      buf_map = (fun () -> Some (b, 0));
      buf_map_v = (fun () -> Some [ (b, 0, Bytes.length b) ]) }
  and obj = lazy (Com.create (fun _self -> [ Iid.B (bufio_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  view ()

(** [bufio_contents io] copies out the full contents (test/diagnostic aid;
    charges nothing). *)
let bufio_contents io =
  let n = io.buf_size () in
  match io.buf_map () with
  | Some (backing, start) -> Bytes.sub backing start n
  | None -> (
      let buf = Bytes.create n in
      match io.buf_read ~buf ~pos:0 ~offset:0 ~amount:n with
      | Ok k when k = n -> buf
      | Ok k -> Bytes.sub buf 0 k
      | Result.Error _ -> Bytes.empty)
