(* Span recording by interposition on COM faces.

   The benchmark hands the system a few COM interfaces of its own choosing
   (the httpd's listening socket and root directory, the C library's socket
   factory) and makes its own client calls.  In a traced run each of those
   is replaced by a wrapper that forwards every method and records a span
   around it; objects a wrapped method returns (accepted sockets, looked-up
   files) are wrapped in turn, and a delegating [Com.unknown.query] wraps
   the asyncio, sendv and filemap faces the httpd navigates to.  This is
   the separability argument of the paper (section 4.4) used as
   instrumentation: nothing inside lib/ changes.

   A wrapper charges nothing: it reads [Machine.now] and
   [Machine.cpu_busy_ns], which are free, so the traced run replays the
   untraced one exactly (the benchmark checks this). *)

type span = {
  sp_name : string;
  sp_layer : string;
  sp_flow : int;  (* client port of the connection: shared by both ends *)
  sp_pid : int;  (* 0 = client/peer machine, 1 = server machine *)
  sp_cpu : int;
  sp_v0 : int;  (* virtual ns *)
  sp_v1 : int;
  sp_busy : int;  (* executing CPU's busy ns inside the call; 0 if it waited *)
  sp_host_ns : int;
  sp_wait : bool;
}

type agg = {
  layer : string;
  mutable calls : int;
  mutable busy_ns : int;
  mutable wait_ns : int;
  mutable host_ns : int;
}

type t = {
  mutable spans : span list;  (* newest first, at most [keep] *)
  mutable kept : int;
  keep : int;
  by_name : (string * string, agg) Hashtbl.t;  (* (layer, call name) *)
  mutable server_busy : int;  (* busy ns inside non-waiting server-side spans *)
  mutable unseen : string list;  (* faces passed through unwrapped *)
}

let create ?(keep = 20_000) () =
  { spans = []; kept = 0; keep; by_name = Hashtbl.create 32; server_busy = 0; unseen = [] }

let note_unseen t name = if not (List.mem name t.unseen) then t.unseen <- name :: t.unseen

(* Where a wrapper runs: the machine whose clocks it reads, which side of
   the testbed that is, and whether its calls may block the caller. *)
type ctx = { tr : t; m : Machine.t; pid : int; may_suspend : bool }

let record ctx ~name ~layer ~flow f =
  let m = ctx.m in
  let cpu = Machine.cpu m in
  let v0 = Machine.now m and b0 = Machine.cpu_busy_ns m ~cpu in
  let h0 = Pb_util.host_now () in
  let finish () =
    let v1 = Machine.now m and b1 = Machine.cpu_busy_ns m ~cpu in
    let host_ns = int_of_float ((Pb_util.host_now () -. h0) *. 1e9) in
    let elapsed = v1 - v0 and busy = b1 - b0 in
    (* A call that may suspend, or that let its CPU go idle, reports its
       whole elapsed time as waiting: busy ns of other threads could have
       accrued while it slept. *)
    let wait = ctx.may_suspend || elapsed <> busy in
    let busy = if wait then 0 else busy in
    let t = ctx.tr in
    let a =
      match Hashtbl.find_opt t.by_name (layer, name) with
      | Some a -> a
      | None ->
          let a = { layer; calls = 0; busy_ns = 0; wait_ns = 0; host_ns = 0 } in
          Hashtbl.replace t.by_name (layer, name) a;
          a
    in
    a.calls <- a.calls + 1;
    a.host_ns <- a.host_ns + host_ns;
    if wait then a.wait_ns <- a.wait_ns + elapsed
    else begin
      a.busy_ns <- a.busy_ns + busy;
      if ctx.pid = 1 then t.server_busy <- t.server_busy + busy
    end;
    if t.kept < t.keep then begin
      t.kept <- t.kept + 1;
      t.spans <-
        { sp_name = name; sp_layer = layer; sp_flow = flow; sp_pid = ctx.pid; sp_cpu = cpu;
          sp_v0 = v0; sp_v1 = v1; sp_busy = busy; sp_host_ns = host_ns; sp_wait = wait }
        :: t.spans
    end
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ---- the wrappers ---- *)

let sock_layer = "freebsd_net"
let fs_layer = "netbsd_fs"

let wrap_aio ctx ~flow (a : Io_if.asyncio) : Io_if.asyncio =
  let r name f = record ctx ~name ~layer:sock_layer ~flow f in
  { a with
    Io_if.aio_poll = (fun () -> r "aio_poll" a.Io_if.aio_poll);
    aio_add_listener = (fun l mask -> r "aio_add_listener" (fun () -> a.Io_if.aio_add_listener l mask));
    aio_remove_listener = (fun l -> r "aio_remove_listener" (fun () -> a.Io_if.aio_remove_listener l));
    aio_readable = (fun () -> r "aio_readable" a.Io_if.aio_readable) }

let wrap_sendv ctx ~flow (v : Io_if.sendv) : Io_if.sendv =
  { v with
    Io_if.sv_send_frags =
      (fun ~frags ~pos ->
        record ctx ~name:"sv_send_frags" ~layer:sock_layer ~flow (fun () ->
            v.Io_if.sv_send_frags ~frags ~pos)) }

let wrap_filemap ctx ~flow (fm : Io_if.filemap) : Io_if.filemap =
  { fm with
    Io_if.fm_map_blocks =
      (fun ~offset ~amount ->
        record ctx ~name:"fm_map_blocks" ~layer:fs_layer ~flow (fun () ->
            fm.Io_if.fm_map_blocks ~offset ~amount)) }

(* A delegating IUnknown: queries go to the real object; the faces the
   benchmark knows come back wrapped, any other face passes through and is
   listed as unseen. *)
let wrap_unknown ctx ~flow (u : Com.unknown) : Com.unknown =
  let query : type a. a Iid.t -> (a, Error.t) result =
   fun iid ->
    match u.Com.query iid with
    | Error _ as e -> e
    | Ok v -> (
        match Iid.same_witness iid Io_if.asyncio_iid with
        | Some Iid.Eq -> Ok (wrap_aio ctx ~flow v)
        | None -> (
            match Iid.same_witness iid Io_if.sendv_iid with
            | Some Iid.Eq -> Ok (wrap_sendv ctx ~flow v)
            | None -> (
                match Iid.same_witness iid Io_if.filemap_iid with
                | Some Iid.Eq -> Ok (wrap_filemap ctx ~flow v)
                | None ->
                    note_unseen ctx.tr (Iid.name iid);
                    Ok v)))
  in
  { Com.query; addref = u.Com.addref; release = u.Com.release }

let rec wrap_socket ctx ~flow (s : Io_if.socket) : Io_if.socket =
  let r name f = record ctx ~name ~layer:sock_layer ~flow f in
  { Io_if.so_unknown = wrap_unknown ctx ~flow s.Io_if.so_unknown;
    so_bind = (fun a -> r "so_bind" (fun () -> s.Io_if.so_bind a));
    so_listen = (fun ~backlog -> r "so_listen" (fun () -> s.Io_if.so_listen ~backlog));
    so_accept =
      (fun () ->
        match r "so_accept" s.Io_if.so_accept with
        | Ok (c, peer) -> Ok (wrap_socket ctx ~flow:peer.Io_if.sin_port c, peer)
        | Error _ as e -> e);
    so_connect = (fun a -> r "so_connect" (fun () -> s.Io_if.so_connect a));
    so_send = (fun ~buf ~pos ~len -> r "so_send" (fun () -> s.Io_if.so_send ~buf ~pos ~len));
    so_recv = (fun ~buf ~pos ~len -> r "so_recv" (fun () -> s.Io_if.so_recv ~buf ~pos ~len));
    so_sendto =
      (fun ~buf ~pos ~len ~dst -> r "so_sendto" (fun () -> s.Io_if.so_sendto ~buf ~pos ~len ~dst));
    so_recvfrom =
      (fun ~buf ~pos ~len -> r "so_recvfrom" (fun () -> s.Io_if.so_recvfrom ~buf ~pos ~len));
    so_getsockname = (fun () -> r "so_getsockname" s.Io_if.so_getsockname);
    so_setsockopt = (fun k v -> r "so_setsockopt" (fun () -> s.Io_if.so_setsockopt k v));
    so_shutdown = (fun () -> r "so_shutdown" s.Io_if.so_shutdown);
    so_close = (fun () -> r "so_close" s.Io_if.so_close) }

let wrap_factory ctx (sf : Io_if.socket_factory) : Io_if.socket_factory =
  { sf with
    Io_if.sf_create =
      (fun typ ->
        match record ctx ~name:"sf_create" ~layer:sock_layer ~flow:0 (fun () -> sf.Io_if.sf_create typ) with
        | Ok s -> Ok (wrap_socket ctx ~flow:0 s)
        | Error _ as e -> e) }

let wrap_file ctx ~flow (f : Io_if.file) : Io_if.file =
  let r name g = record ctx ~name ~layer:fs_layer ~flow g in
  { f with
    Io_if.f_unknown = wrap_unknown ctx ~flow f.Io_if.f_unknown;
    f_read =
      (fun ~buf ~pos ~offset ~amount -> r "f_read" (fun () -> f.Io_if.f_read ~buf ~pos ~offset ~amount));
    f_getstat = (fun () -> r "f_getstat" f.Io_if.f_getstat) }

let rec wrap_dir ctx ~flow (d : Io_if.dir) : Io_if.dir =
  { d with
    Io_if.d_lookup =
      (fun name ->
        match record ctx ~name:"d_lookup" ~layer:fs_layer ~flow (fun () -> d.Io_if.d_lookup name) with
        | Ok (Io_if.Node_file f) -> Ok (Io_if.Node_file (wrap_file ctx ~flow f))
        | Ok (Io_if.Node_dir sub) -> Ok (Io_if.Node_dir (wrap_dir ctx ~flow sub))
        | Error _ as e -> e) }

(* ---- output ---- *)

(* Per (layer, call name), in a stable order. *)
let table t =
  Hashtbl.fold (fun (_, name) a acc -> (name, a) :: acc) t.by_name []
  |> List.sort (fun (n1, a1) (n2, a2) -> compare (a1.layer, n1) (a2.layer, n2))

let sum_calls t pred f =
  Hashtbl.fold (fun (_, name) a acc -> if pred name then acc + f a else acc) t.by_name 0

(* Chrome trace-event JSON ("X" complete events, microseconds of virtual
   time); loadable in chrome://tracing or Perfetto. *)
let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"flow\":%d,\"busy_ns\":%d,\"host_ns\":%d,\"wait\":%b}}\n"
        (if i = 0 then "" else ",")
        s.sp_name s.sp_layer s.sp_pid s.sp_cpu
        (float_of_int s.sp_v0 /. 1e3)
        (float_of_int (s.sp_v1 - s.sp_v0) /. 1e3)
        s.sp_flow s.sp_busy s.sp_host_ns s.sp_wait)
    (List.rev t.spans);
  output_string oc "]}\n";
  close_out oc
