(* An HTTP static-file server component, in both serving shapes the
 * paper's substrate supports:
 *
 *  - [serve_reactor_sharded]: event-driven.  The listen socket and every
 *    connection run non-blocking behind oskit_asyncio watches on
 *    {!Reactor}s, one per CPU; a connection's whole footprint is its
 *    small state record.  [serve_reactor] is the one-reactor case.
 *  - [serve_threaded]: thread-per-connection.  A blocking accept loop
 *    spawns a handler thread per connection, gated at [max_threads] —
 *    beyond the gate the accept queue fills and the stack's listen
 *    backlog starts dropping SYNs.
 *
 * Both serve the same files from an {!Io_if.dir} (the FFS/memfs path) and
 * speak to sockets only through the COM interfaces, so either protocol
 * stack works underneath.
 *
 * Each shape has one protocol engine; Cost.config.http_keepalive is a
 * parameter of it, not a choice between engines:
 *
 *  - off: the paper-era server.  GET only, exactly one request framed per
 *    connection, answered HTTP/1.0 with Connection: close whatever
 *    version the client spoke.  No idle reaper is armed, and a handler
 *    thread keeps its socket blocking (no nonblock option, no asyncio
 *    face — both are COM calls that charge glue cycles).
 *  - on: HTTP/1.1 persistent connections with bounded pipelining.
 *    Requests are parsed ahead (up to http_pipeline_max), responses go
 *    out strictly in order, idle connections are closed after
 *    http_idle_timeout_ns, and a connection is cut after
 *    http_max_reqs_per_conn requests (0 = unlimited).
 *
 * Every response carries Content-Length.  With Cost.config.httpd_guard a
 * reactor connection that has framed no request within
 * httpd_header_deadline_ns is cut (Slowloris), and in both shapes a
 * request header over httpd_max_header_bytes is cut.
 *
 * Body path (Cost.config.sendfile): a 200 body is served zero-copy when
 * the socket exports the {!Io_if.sendv} face and the file the
 * {!Io_if.filemap} face — the file's buffer-cache blocks are loaned to the
 * socket as pinned fragments and ride the scatter-gather transmit path to
 * the wire with no body copy.  Anything that cannot map (Linux sockets,
 * files with holes, flag off) takes the copy path, which counts every
 * body it copies.
 *)

type stats = {
  mutable accepted : int;
  mutable requests : int;  (* well-formed requests parsed *)
  mutable responses : int;  (* 200s completed *)
  mutable not_found : int;
  mutable protocol_errors : int;  (* malformed request or EOF mid-request *)
  mutable shed : int;  (* reactor mode: accepted then dropped, over max_conns *)
  mutable bytes_out : int;
  mutable active : int;
  mutable peak_active : int;  (* high-water concurrent connections *)
  (* overload guards (Cost.config.httpd_guard) *)
  mutable shed_503 : int;  (* answered 503 + Retry-After over the high-water mark *)
  mutable deadline_closed : int;  (* closed: no request framed by the deadline *)
  mutable hdr_overflow : int;  (* closed: request headers over the byte bound *)
  (* keep-alive (Cost.config.http_keepalive) *)
  mutable reused : int;  (* requests served on an already-used connection *)
  mutable pipelined : int;  (* requests parsed while a response was still queued *)
  mutable idle_closed : int;  (* closed by the keep-alive idle timeout *)
  mutable capped : int;  (* connections cut by http_max_reqs_per_conn *)
  (* body path (Cost.config.sendfile) *)
  mutable sendfile_bodies : int;  (* bodies served from mapped cache blocks *)
  mutable sendfile_fallbacks : int;  (* sendfile wanted, had to copy *)
  mutable body_bytes_copied : int;  (* 200 body bytes through the copy path *)
}

let make_stats () =
  { accepted = 0; requests = 0; responses = 0; not_found = 0; protocol_errors = 0;
    shed = 0; bytes_out = 0; active = 0; peak_active = 0; shed_503 = 0;
    deadline_closed = 0; hdr_overflow = 0; reused = 0; pipelined = 0; idle_closed = 0;
    capped = 0; sendfile_bodies = 0; sendfile_fallbacks = 0; body_bytes_copied = 0 }

(* The per-connection memory the two serving modes pay — what the
   equal-memory comparison in bench/httpbench divides a RAM budget by.  A
   parked handler thread owns a kernel stack; a reactor connection owns a
   state record (socket, watch, request buffer). *)
let thread_stack_bytes = 32 * 1024
let conn_state_bytes = 2 * 1024

(* A one-shot timer at its exact deadline; the server never cancels one. *)
let callout_after ~ns f = ignore (Kclock.callout_after ~ns f)

(* ---- request framing (shared by both serving shapes) ----
 *
 * A request ends at the first "\r\n\r\n" or "\n\n".  The original server
 * re-ran a substring search over the whole buffer after every recv —
 * quadratic in the request size when headers arrive in drips.  The
 * scanner below keeps a resume cursor and looks at every received byte
 * exactly once, so framing is O(bytes received) however the bytes are
 * chopped; the terminator test looks {e backward} from the cursor, which
 * is why no rewind is ever needed. *)

type reqbuf = {
  mutable rb_data : bytes;
  mutable rb_len : int;  (* bytes received and not discarded *)
  mutable rb_start : int;  (* start of the current (unconsumed) request *)
  mutable rb_scan : int;  (* next byte the terminator scan will test *)
}

let rb_create () = { rb_data = Bytes.create 512; rb_len = 0; rb_start = 0; rb_scan = 0 }

let rb_append rb src n =
  if rb.rb_start = rb.rb_len && rb.rb_start > 0 then begin
    (* Everything consumed: restart at the origin instead of growing. *)
    rb.rb_len <- 0;
    rb.rb_start <- 0;
    rb.rb_scan <- 0
  end;
  let need = rb.rb_len + n in
  if need > Bytes.length rb.rb_data then begin
    let cap = ref (2 * Bytes.length rb.rb_data) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let d = Bytes.create !cap in
    Bytes.blit rb.rb_data 0 d 0 rb.rb_len;
    rb.rb_data <- d
  end;
  Bytes.blit src 0 rb.rb_data rb.rb_len n;
  rb.rb_len <- rb.rb_len + n

(* Unconsumed bytes (the partial request still being received). *)
let rb_pending rb = rb.rb_len - rb.rb_start

(* Advance the cursor to the end of the first terminator at or after it,
   or to rb_len if none; never looks back before rb_start, so requests on
   a reused connection cannot fuse across a boundary. *)
let rb_find_term rb =
  let d = rb.rb_data in
  let rec go i =
    if i >= rb.rb_len then begin
      rb.rb_scan <- rb.rb_len;
      None
    end
    else if
      Bytes.get d i = '\n'
      && ((i - 1 >= rb.rb_start && Bytes.get d (i - 1) = '\n')
         || (i - 3 >= rb.rb_start
            && Bytes.get d (i - 1) = '\r'
            && Bytes.get d (i - 2) = '\n'
            && Bytes.get d (i - 3) = '\r'))
    then begin
      rb.rb_scan <- i + 1;
      Some i
    end
    else go (i + 1)
  in
  go (max rb.rb_scan rb.rb_start)

(* Consume and return the next framed request. *)
let rb_next_request rb =
  match rb_find_term rb with
  | None -> None
  | Some i ->
      let req = Bytes.sub_string rb.rb_data rb.rb_start (i + 1 - rb.rb_start) in
      rb.rb_start <- i + 1;
      rb.rb_scan <- i + 1;
      if rb.rb_start = rb.rb_len then begin
        rb.rb_len <- 0;
        rb.rb_start <- 0;
        rb.rb_scan <- 0
      end;
      Some req

(* Walk [path] one component at a time — the VFS-granularity lookup the
   interface insists on (and what lets an interposer check each step). *)
let resolve (root : Io_if.dir) path =
  let comps = List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path) in
  if List.mem ".." comps then Result.Error Error.Acces
  else
    let rec walk node = function
      | [] -> Ok node
      | c :: rest -> (
          match node with
          | Io_if.Node_file _ -> Result.Error Error.Notdir
          | Io_if.Node_dir d -> Result.bind (d.Io_if.d_lookup c) (fun n -> walk n rest))
    in
    walk (Io_if.Node_dir root) comps

let read_file (f : Io_if.file) =
  match f.Io_if.f_getstat () with
  | Result.Error _ as e -> e
  | Ok st ->
      let buf = Bytes.create st.Io_if.st_size in
      let rec go off =
        if off >= Bytes.length buf then Ok buf
        else
          match f.Io_if.f_read ~buf ~pos:off ~offset:off ~amount:(Bytes.length buf - off) with
          | Ok 0 -> Ok (Bytes.sub buf 0 off)
          | Ok n -> go (off + n)
          | Result.Error _ as e -> e
      in
      go 0

let aio_of (sock : Io_if.socket) =
  Cost.count_com_call ();
  match Com.query sock.Io_if.so_unknown Io_if.asyncio_iid with
  | Ok a -> a
  | Result.Error e -> Error.fail e

(* The optional COM faces of the zero-copy path: a socket that can accept
   loaned fragments, a file that can loan its cache blocks.  Either may be
   absent (the Linux stack exports no sendv; a memfs file no filemap) —
   absence simply means the copy fallback. *)
let sendv_of (sock : Io_if.socket) =
  Cost.count_com_call ();
  match Com.query sock.Io_if.so_unknown Io_if.sendv_iid with
  | Ok v -> Some v
  | Result.Error _ -> None

let filemap_of (f : Io_if.file) =
  Cost.count_com_call ();
  match Com.query f.Io_if.f_unknown Io_if.filemap_iid with
  | Ok v -> Some v
  | Result.Error _ -> None

(* Load shedding above the high-water mark (Cost.config.httpd_shed_hiwat):
   a well-formed refusal the client can act on, instead of a silent drop. *)
let resp_503 =
  "HTTP/1.0 503 Service Unavailable\r\nServer: oskit-httpd\r\nRetry-After: 1\r\n\
   Content-Length: 0\r\nConnection: close\r\n\r\n"

(* ---- the protocol engine's response side ---- *)

(* One queued response.  [rs_data] is the header (plus the body, when it
   went through the copy path); [rs_frags] is the mapped body for the
   sendfile path ([] = none).  The connection owns one release per
   fragment and drops them the moment the body is fully handed to the
   socket — the socket takes its own holds for bytes still in flight. *)
type resp = {
  rs_data : bytes;
  rs_frags : Io_if.file_frag list;
  rs_blen : int;  (* total mapped body bytes *)
  rs_close : bool;  (* close the connection after this response *)
  mutable rs_hsent : int;
  mutable rs_bsent : int;
  mutable rs_released : bool;
}

let release_resp r =
  if not r.rs_released then begin
    r.rs_released <- true;
    List.iter (fun f -> f.Io_if.fr_release ()) r.rs_frags
  end

let resp_header ~v11 ~status ~reason ~len ~keep =
  Printf.sprintf
    "HTTP/%s %d %s\r\nServer: oskit-httpd\r\nContent-Type: application/octet-stream\r\n\
     Content-Length: %d\r\nConnection: %s\r\n\r\n"
    (if v11 then "1.1" else "1.0")
    status reason len
    (if keep then "keep-alive" else "close")

(* Request line and the Connection header.  Returns
   (path option, spoke 1.1, asked close, asked keep-alive).  Runs of
   spaces in the request line separate tokens like one space. *)
let parse_head raw =
  match String.index_opt raw '\n' with
  | None -> (None, false, false, false)
  | Some i ->
      let line = String.trim (String.sub raw 0 i) in
      let toks = List.filter (fun s -> s <> "") (String.split_on_char ' ' line) in
      let path, v11 =
        match toks with
        | "GET" :: path :: rest ->
            ( Some path,
              match rest with
              | v :: _ -> String.length v >= 8 && String.sub v 0 8 = "HTTP/1.1"
              | [] -> false )
        | _ -> (None, false)
      in
      let conn = ref "" in
      List.iteri
        (fun idx l ->
          if idx > 0 then
            match String.index_opt l ':' with
            | Some j when String.lowercase_ascii (String.trim (String.sub l 0 j)) = "connection"
              ->
                conn :=
                  String.lowercase_ascii
                    (String.trim (String.sub l (j + 1) (String.length l - j - 1)))
            | Some _ | None -> ())
        (String.split_on_char '\n' raw);
      (path, v11, !conn = "close", !conn = "keep-alive")

(* Build the response to [raw], the [nth] request framed on its
   connection.  Keep-alive off, every response is HTTP/1.0 with
   Connection: close; on, the client's version and Connection header
   decide, and the request cap forces a close.  [sv] present means the
   socket can take loaned fragments. *)
let build_response st root ~(sv : Io_if.sendv option) ~nth raw =
  let ka = Cost.config.http_keepalive in
  let max_reqs = Cost.config.http_max_reqs_per_conn in
  if nth > 1 then st.reused <- st.reused + 1;
  let capped = ka && max_reqs > 0 && nth >= max_reqs in
  if capped then st.capped <- st.capped + 1;
  let path, v11, asked_close, asked_keep = parse_head raw in
  let v11 = ka && v11 in
  let keep = ka && (if v11 then not asked_close else asked_keep) && not capped in
  let copied ~status ~reason ~keep body =
    { rs_data =
        Bytes.cat (Bytes.of_string (resp_header ~v11 ~status ~reason ~len:(Bytes.length body) ~keep)) body;
      rs_frags = [];
      rs_blen = 0;
      rs_close = not keep;
      rs_hsent = 0;
      rs_bsent = 0;
      rs_released = true }
  in
  match path with
  | None ->
      st.protocol_errors <- st.protocol_errors + 1;
      copied ~status:400 ~reason:"Bad Request" ~keep:false (Bytes.of_string "bad request\n")
  | Some path -> (
      st.requests <- st.requests + 1;
      match resolve root path with
      | Ok (Io_if.Node_file f) -> (
          let fallback () =
            Cost.count_sendfile_fallback ();
            st.sendfile_fallbacks <- st.sendfile_fallbacks + 1;
            None
          in
          let mapped =
            if not Cost.config.Cost.sendfile then None
            else
              match Option.bind sv (fun _ -> filemap_of f) with
              | None -> fallback ()
              | Some fm -> (
                  match f.Io_if.f_getstat () with
                  | Result.Error _ -> None (* the copy path reports the error *)
                  | Ok fst -> (
                      match fm.Io_if.fm_map_blocks ~offset:0 ~amount:fst.Io_if.st_size with
                      | Ok frags -> Some frags
                      | Result.Error _ -> fallback () (* a hole, or an fs that cannot loan *)))
          in
          match mapped with
          | Some frags ->
              let blen = Io_if.frags_length frags in
              Cost.count_sendfile_body ();
              st.sendfile_bodies <- st.sendfile_bodies + 1;
              st.responses <- st.responses + 1;
              st.bytes_out <- st.bytes_out + blen;
              (* The header rides as the leading fragment of the same
                 sendv call (sendfile(2)'s hdtr headers): one submission,
                 and a small response stays a single segment instead of a
                 header segment plus a body segment.  The header bytes
                 are fresh and never touched again, so loaning them needs
                 no pin. *)
              let hdr =
                Bytes.of_string (resp_header ~v11 ~status:200 ~reason:"OK" ~len:blen ~keep)
              in
              let hfrag =
                { Io_if.fr_data = hdr;
                  fr_off = 0;
                  fr_len = Bytes.length hdr;
                  fr_hold = (fun () -> ());
                  fr_release = (fun () -> ()) }
              in
              { rs_data = Bytes.create 0;
                rs_frags = hfrag :: frags;
                rs_blen = Bytes.length hdr + blen;
                rs_close = not keep;
                rs_hsent = 0;
                rs_bsent = 0;
                rs_released = false }
          | None -> (
              match read_file f with
              | Ok body ->
                  st.responses <- st.responses + 1;
                  st.bytes_out <- st.bytes_out + Bytes.length body;
                  Cost.count_http_body_copy (Bytes.length body);
                  st.body_bytes_copied <- st.body_bytes_copied + Bytes.length body;
                  copied ~status:200 ~reason:"OK" ~keep body
              | Result.Error _ ->
                  st.not_found <- st.not_found + 1;
                  copied ~status:500 ~reason:"Internal Server Error" ~keep
                    (Bytes.of_string "io error\n")))
      | Ok (Io_if.Node_dir _) | Result.Error _ ->
          st.not_found <- st.not_found + 1;
          copied ~status:404 ~reason:"Not Found" ~keep (Bytes.of_string "not found\n"))

(* ---- event-driven mode ---- *)

(* One accepted connection on [reactor] (in the sharded mode, the one
   pinned to the connection's RSS home CPU): frame requests with the
   resume-cursor scanner, parse ahead up to http_pipeline_max, answer
   strictly in order, and stay open until the peer leaves, a response
   says close, the idle timeout fires, or the request cap cuts us off.
   Keep-alive off, the first framed request's response says close, so
   exactly one is framed.  Footprint stays O(1) per connection: the
   request buffer, the bounded response queue, one watch, and at most two
   callouts. *)
let reactor_conn ~reactor st root (c : Io_if.socket) =
  st.accepted <- st.accepted + 1;
  st.active <- st.active + 1;
  if st.active > st.peak_active then st.peak_active <- st.active;
  ignore (c.Io_if.so_setsockopt "nonblock" 1);
  let caio = aio_of c in
  let sv = if Cost.config.Cost.sendfile then sendv_of c else None in
  let pipeline_max = max 1 Cost.config.http_pipeline_max in
  let rb = rb_create () in
  let scratch = Bytes.create 2048 in
  let pending : resp Queue.t = Queue.create () in
  let reqs = ref 0 in
  let wref = ref None in
  let closed = ref false in
  let closing = ref false in (* a Connection: close response is queued *)
  let cur_mask = ref Io_if.aio_read in
  let idle_gen = ref 0 in
  (* Idempotent: a callout can fire after the connection already finished
     (or it was torn down twice by racing read/write errors); only the
     first close may touch the counts. *)
  let finish () =
    if not !closed then begin
      closed := true;
      (match !wref with Some w -> Reactor.unwatch reactor w | None -> ());
      (* Unsent mapped bodies still hold cache pins: drop them. *)
      Queue.iter release_resp pending;
      Queue.clear pending;
      ignore (c.Io_if.so_close ());
      st.active <- st.active - 1
    end
  in
  (* Idle reaper: one self-re-arming callout per connection.  [idle_gen]
     moves on every received byte; if a full period passes with no
     movement and nothing left to write, the connection is cut. *)
  let rec arm_idle () =
    let ns = Cost.config.http_idle_timeout_ns in
    if ns > 0 then begin
      let gen = !idle_gen in
      callout_after ~ns (fun () ->
          if not !closed then begin
            if gen = !idle_gen && Queue.is_empty pending then begin
              st.idle_closed <- st.idle_closed + 1;
              finish ()
            end
            else arm_idle ()
          end)
    end
  in
  let rec update_mask () =
    if not !closed then begin
      let m =
        (if Queue.length pending < pipeline_max && not !closing then Io_if.aio_read else 0)
        lor (if not (Queue.is_empty pending) then Io_if.aio_write else 0)
      in
      let m = if m = 0 then Io_if.aio_read else m in
      if m <> !cur_mask then begin
        cur_mask := m;
        match !wref with Some w -> Reactor.rewatch reactor w ~mask:m | None -> ()
      end
    end
  and parse_loop () =
    if (not !closed) && (not !closing) && Queue.length pending < pipeline_max then
      match rb_next_request rb with
      | None -> ()
      | Some raw ->
          if not (Queue.is_empty pending) then st.pipelined <- st.pipelined + 1;
          incr reqs;
          let r = build_response st root ~sv ~nth:!reqs raw in
          Queue.push r pending;
          if r.rs_close then closing := true else parse_loop ()
  and on_writable () =
    if not !closed then
      match Queue.peek_opt pending with
      | None -> ()
      | Some r ->
          if r.rs_hsent < Bytes.length r.rs_data then (
            match
              c.Io_if.so_send ~buf:r.rs_data ~pos:r.rs_hsent
                ~len:(Bytes.length r.rs_data - r.rs_hsent)
            with
            | Ok n ->
                r.rs_hsent <- r.rs_hsent + n;
                if r.rs_hsent >= Bytes.length r.rs_data then on_writable ()
            | Result.Error Error.Wouldblock -> ()
            | Result.Error _ -> finish ())
          else if r.rs_bsent < r.rs_blen then (
            match sv with
            | None -> finish () (* unreachable: mapped bodies need the face *)
            | Some sv_ -> (
                match sv_.Io_if.sv_send_frags ~frags:r.rs_frags ~pos:r.rs_bsent with
                | Ok n ->
                    r.rs_bsent <- r.rs_bsent + n;
                    if r.rs_bsent >= r.rs_blen then begin
                      release_resp r;
                      complete_resp ()
                    end
                    else if n > 0 then on_writable ()
                | Result.Error Error.Wouldblock -> ()
                | Result.Error _ -> finish ()))
          else complete_resp ()
  and complete_resp () =
    match Queue.pop pending with
    | r ->
        release_resp r;
        if r.rs_close then finish ()
        else begin
          (* Below the parse-ahead cap again: frame what is buffered. *)
          parse_loop ();
          update_mask ();
          if not (Queue.is_empty pending) then on_writable ()
        end
    | exception Queue.Empty -> ()
  in
  let on_readable () =
    match c.Io_if.so_recv ~buf:scratch ~pos:0 ~len:(Bytes.length scratch) with
    | Ok 0 ->
        (* Peer departed.  Mid-request it is a protocol error; between
           requests (or before the first) it is how connections end. *)
        if rb_pending rb > 0 then st.protocol_errors <- st.protocol_errors + 1;
        finish ()
    | Ok n ->
        incr idle_gen;
        rb_append rb scratch n;
        parse_loop ();
        if
          Cost.config.httpd_guard
          && (not !closing)
          && Queue.length pending < pipeline_max
          && rb_pending rb > Cost.config.httpd_max_header_bytes
        then begin
          (* Unbounded drip-fed headers are the other half of the
             Slowloris hold: cap the buffer and cut the connection. *)
          st.hdr_overflow <- st.hdr_overflow + 1;
          finish ()
        end
        else begin
          update_mask ();
          if not (Queue.is_empty pending) then on_writable ()
        end
    | Result.Error Error.Wouldblock -> ()
    | Result.Error _ ->
        if rb_pending rb > 0 then st.protocol_errors <- st.protocol_errors + 1;
        finish ()
  in
  let cb ready =
    if ready land Io_if.aio_read <> 0 && not !closed then on_readable ();
    if ready land Io_if.aio_write <> 0 && not !closed then on_writable ()
  in
  wref := Some (Reactor.watch reactor caio ~mask:Io_if.aio_read cb);
  if Cost.config.httpd_guard then
    (* Slowloris defense: the first request must be framed within the
       deadline, or the connection is cut.  Dripping bytes keeps the idle
       reaper quiet, never this. *)
    callout_after ~ns:Cost.config.httpd_header_deadline_ns (fun () ->
        if (not !closed) && !reqs = 0 then begin
          st.deadline_closed <- st.deadline_closed + 1;
          finish ()
        end);
  if Cost.config.http_keepalive then arm_idle ()

(* SMP sharded serving: the acceptor lives on [reactors.(0)] (listen
   sockets accept on CPU 0), and each accepted connection migrates to the
   reactor of its flow's RSS home CPU — [home] maps the peer address to
   that CPU, and the caller drives [reactors.(i)] with a loop thread
   pinned to CPU [i].  From then on the connection's socket I/O, protocol
   work, and wakeups all stay on its home CPU; the shared [stats] record
   is bumped from whichever CPU runs the event (serialized virtual time
   makes that safe — it is the accept queue, not the counters, that needs
   the stack-side lock).

   Registers the listen watch and returns immediately; the caller drives
   the reactor loops.  The nonblocking accept drain sheds above the guard
   high-water mark, and above [max_conns] — the memory budget's
   connection cap — new connections are accepted and immediately dropped,
   which keeps the accept queue draining. *)
let serve_reactor_sharded ~reactors ~home ~root ~(sock : Io_if.socket)
    ?(max_conns = max_int) () =
  let st = make_stats () in
  ignore (sock.Io_if.so_setsockopt "nonblock" 1);
  let rec accept_drain () =
    match sock.Io_if.so_accept () with
    | Ok (c, peer) ->
        if
          Cost.config.httpd_guard
          && Cost.config.httpd_shed_hiwat > 0
          && st.active >= Cost.config.httpd_shed_hiwat
        then begin
          (* Above the high-water mark: tell the client to come back
             (best-effort — the socket buffer of a fresh connection takes
             the whole response) instead of silently dropping it. *)
          st.shed_503 <- st.shed_503 + 1;
          let b = Bytes.of_string resp_503 in
          ignore (c.Io_if.so_send ~buf:b ~pos:0 ~len:(Bytes.length b));
          ignore (c.Io_if.so_close ())
        end
        else if st.active >= max_conns then begin
          st.shed <- st.shed + 1;
          ignore (c.Io_if.so_close ())
        end
        else reactor_conn ~reactor:reactors.(home peer mod Array.length reactors) st root c;
        accept_drain ()
    | Result.Error _ -> () (* Wouldblock: drained *)
  in
  ignore
    (Reactor.watch reactors.(0) (aio_of sock) ~mask:Io_if.aio_read (fun _ -> accept_drain ()));
  st

(* The single-reactor server: the sharded one with every connection at
   home on [reactor]. *)
let serve_reactor ~reactor ~root ~sock ?max_conns () =
  serve_reactor_sharded ~reactors:[| reactor |] ~home:(fun _ -> 0) ~root ~sock ?max_conns ()

(* ---- thread-per-connection mode ---- *)

(* Park the calling thread until [aio] reports a condition in [mask] or
   [ns] elapses (ns <= 0: no timeout).  Returns true when ready — the
   timed wait a keep-alive handler thread needs between requests, built
   from a COM listener racing a clock callout for one waker. *)
let wait_ready_or_timeout (aio : Io_if.asyncio) ~mask ~ns =
  if aio.Io_if.aio_poll () land mask <> 0 then true
  else begin
    let ready = ref false in
    let woke = ref false in
    let listener = ref None in
    Thread.suspend (fun waker ->
        let wake r () =
          if not !woke then begin
            woke := true;
            ready := r;
            waker ()
          end
        in
        let l = Io_if.listener_create (fun () -> wake true ()) in
        listener := Some l;
        (match aio.Io_if.aio_add_listener l mask with
        | Ok m when m land mask <> 0 -> wake true ()
        | Ok _ | Result.Error _ -> ());
        if ns > 0 then callout_after ~ns (wake false));
    (match !listener with
    | Some l -> ignore (aio.Io_if.aio_remove_listener l)
    | None -> ());
    !ready
  end

(* The handler thread: the reactor connection's protocol engine,
   serialized — frame, respond, write, repeat; pipelined requests already
   buffered are answered back-to-back in arrival order.  Keep-alive on,
   the socket is nonblocking so the idle wait can race the timeout;
   keep-alive off, one blocking request/response and the thread is done. *)
let handle_blocking st root (c : Io_if.socket) =
  let caio =
    if Cost.config.http_keepalive then begin
      ignore (c.Io_if.so_setsockopt "nonblock" 1);
      Some (aio_of c)
    end
    else None
  in
  let wait mask =
    match caio with
    | Some aio -> wait_ready_or_timeout aio ~mask ~ns:Cost.config.http_idle_timeout_ns
    | None -> false
  in
  let sv = if Cost.config.Cost.sendfile then sendv_of c else None in
  let rb = rb_create () in
  let scratch = Bytes.create 2048 in
  let reqs = ref 0 in
  let rec push_bytes buf off len =
    if len = 0 then true
    else
      match c.Io_if.so_send ~buf ~pos:off ~len with
      | Ok 0 | Result.Error Error.Wouldblock -> wait Io_if.aio_write && push_bytes buf off len
      | Ok n -> push_bytes buf (off + n) (len - n)
      | Result.Error _ -> false
  in
  let rec push_frags sv_ r pos =
    if pos >= r.rs_blen then true
    else
      match sv_.Io_if.sv_send_frags ~frags:r.rs_frags ~pos with
      | Ok 0 | Result.Error Error.Wouldblock -> wait Io_if.aio_write && push_frags sv_ r pos
      | Ok n -> push_frags sv_ r (pos + n)
      | Result.Error _ -> false
  in
  let send_resp r =
    let ok = push_bytes r.rs_data 0 (Bytes.length r.rs_data) in
    let ok =
      ok
      && (r.rs_blen = 0
         || match sv with Some sv_ -> push_frags sv_ r 0 | None -> false)
    in
    release_resp r;
    ok
  in
  let rec serve () =
    match rb_next_request rb with
    | Some raw ->
        incr reqs;
        if rb_pending rb > 0 then st.pipelined <- st.pipelined + 1;
        let r = build_response st root ~sv ~nth:!reqs raw in
        if send_resp r && not r.rs_close then serve ()
    | None ->
        if Cost.config.httpd_guard && rb_pending rb > Cost.config.httpd_max_header_bytes
        then st.hdr_overflow <- st.hdr_overflow + 1
        else (
          match c.Io_if.so_recv ~buf:scratch ~pos:0 ~len:(Bytes.length scratch) with
          | Ok n when n > 0 ->
              rb_append rb scratch n;
              serve ()
          | Result.Error Error.Wouldblock ->
              if wait Io_if.aio_read then serve () else st.idle_closed <- st.idle_closed + 1
          | Ok _ | Result.Error _ ->
              if rb_pending rb > 0 then st.protocol_errors <- st.protocol_errors + 1)
  in
  serve ();
  ignore (c.Io_if.so_close ())

(* Spawns the blocking accept loop via [spawn] and returns immediately.
   At [max_threads] in-flight handlers the acceptor parks, the accept
   queue backs up, and the listen backlog does the dropping — exactly the
   thread-per-connection failure mode the reactor exists to avoid. *)
let serve_threaded ~spawn ~root ~(sock : Io_if.socket) ?(max_threads = max_int) () =
  let st = make_stats () in
  let gate = Sleep_record.create ~name:"httpd_gate" () in
  let rec loop () =
    if st.active >= max_threads then begin
      Sleep_record.sleep gate;
      loop ()
    end
    else
      match sock.Io_if.so_accept () with
      | Ok (c, _peer) ->
          st.accepted <- st.accepted + 1;
          st.active <- st.active + 1;
          if st.active > st.peak_active then st.peak_active <- st.active;
          spawn (fun () ->
              handle_blocking st root c;
              st.active <- st.active - 1;
              Sleep_record.wakeup gate);
          loop ()
      | Result.Error _ -> () (* listener closed: acceptor exits *)
  in
  spawn loop;
  st
