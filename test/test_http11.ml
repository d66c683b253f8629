(* The HTTP/1.1 keep-alive engine and the sendfile content path (PR 10):
   the O(bytes) request scanner under one-byte drips, keep-alive
   sequences byte-exact against N separate HTTP/1.0 connections,
   pipelined responses strictly in order, the idle timeout and the
   per-connection request cap, sendfile-vs-copy body byte-exactness
   across block boundaries (also under 2% loss), buffer-cache pin and
   eviction hardening, and the flags-off world untouched. *)

let ok = Endpoint.ok

(* ---- knob scoping: set the PR-10 knobs for [f], restore after ---- *)

let with_http11 ?(keepalive = true) ?(sendfile = false) ?(sg = false) ?(max_reqs = 0) f =
  Cost.with_config
    { Cost.config with
      Cost.http_keepalive = keepalive;
      sendfile;
      sg_tx = sg;
      http_max_reqs_per_conn = max_reqs }
    f

(* ---- the server: Httpbench's, on the FreeBSD stack, one pattern file
   per size on a 4 MB disk ---- *)

let file_name i = Printf.sprintf "f%d.bin" i

let site sizes =
  { (Httpbench.file_site (Array.of_list sizes)) with Httpbench.disk_bytes = 4 * 1024 * 1024 }

(* Serve [sizes] from [stack] (native FreeBSD by default) in [shape] with
   a backlog of 16, [loss] on the wire (netem seed 29); [client] runs on
   host A from 3 ms, and the testbed runs until [until].  Returns the
   server's counts. *)
let serve_to ?loss ?(stack = Endpoint.Freebsd) ?(shape = Httpbench.Reactor) ~sizes ~until
    client =
  let s = Httpbench.serve ~site:(site sizes) ~backlog:16 ~stack ~shape ~until () in
  Option.iter
    (fun loss ->
      Wire.set_netem s.Httpbench.testbed.Clientos.wire
        (Some (Netem.create ~seed:29 ~policy:{ Netem.default_policy with loss } ())))
    loss;
  Clientos.spawn s.Httpbench.client.Endpoint.host ~name:"client" (fun () ->
      Kclock.sleep_ns 3_000_000;
      client s);
  Clientos.run s.Httpbench.testbed ~until;
  s.Httpbench.stats ()

let connect s = ok (Httpbench.connect s)

(* TCP segments the client dropped for a bad checksum. *)
let client_rcvbadsum (s : Httpbench.served) =
  match s.Httpbench.client.Endpoint.stack with
  | Endpoint.Bsd st -> st.Bsd_socket.tcp.Tcp.stats.Tcp.rcvbadsum
  | Endpoint.Lx _ -> Alcotest.fail "the HTTP client runs on the FreeBSD stack"

let get_request fi = Printf.sprintf "GET /%s HTTP/1.1\r\nHost: b\r\n\r\n" (file_name fi)
let status_of hdr = if String.length hdr >= 12 then String.sub hdr 9 3 else "???"

(* ------------------------------------------------------------------ *)
(* The request scanner: one-byte drips cost one cursor step per byte
   (the PR-10 fix for the quadratic re-scan), split and back-to-back
   requests frame exactly, and "\n\r\n" alone never terminates.        *)

let test_scanner_drip () =
  let req = "GET /f0.bin HTTP/1.1\r\nHost: x\r\nX-Pad: abcdefgh\r\n\r\n" in
  let rb = Httpd.rb_create () in
  let n = String.length req in
  String.iteri
    (fun i c ->
      Httpd.rb_append rb (Bytes.make 1 c) 1;
      (* Resume cursor: every appended byte is examined exactly once —
         after a miss the scan cursor sits at the buffer end, never
         rewound by the next drip. *)
      if i < n - 1 then begin
        Alcotest.(check (option string))
          (Printf.sprintf "no request after %d bytes" (i + 1))
          None (Httpd.rb_next_request rb);
        Alcotest.(check int)
          (Printf.sprintf "cursor caught up at byte %d" (i + 1))
          rb.Httpd.rb_len rb.Httpd.rb_scan
      end)
    req;
  Alcotest.(check (option string)) "the final byte completes the request" (Some req)
    (Httpd.rb_next_request rb);
  Alcotest.(check (option string)) "and nothing is left" None (Httpd.rb_next_request rb)

let test_scanner_pipelined_and_terminators () =
  (* Two back-to-back requests in one append frame separately. *)
  let r1 = "GET /a HTTP/1.1\r\n\r\n" and r2 = "GET /b HTTP/1.1\n\n" in
  let rb = Httpd.rb_create () in
  let both = Bytes.of_string (r1 ^ r2) in
  Httpd.rb_append rb both (Bytes.length both);
  Alcotest.(check (option string)) "first request" (Some r1) (Httpd.rb_next_request rb);
  Alcotest.(check (option string)) "second request (bare-LF form)" (Some r2)
    (Httpd.rb_next_request rb);
  (* "\n\r\n" matches neither "\r\n\r\n" nor "\n\n" — exactly the old
     substring semantics. *)
  let rb2 = Httpd.rb_create () in
  let s = Bytes.of_string "GET /c HTTP/1.1\n\r\n" in
  Httpd.rb_append rb2 s (Bytes.length s);
  Alcotest.(check (option string)) "LF CR LF does not terminate" None
    (Httpd.rb_next_request rb2);
  (* A header bigger than the 512-byte initial buffer still frames. *)
  let big = "GET /d HTTP/1.1\r\nX-Pad: " ^ String.make 700 'a' ^ "\r\n\r\n" in
  let rb3 = Httpd.rb_create () in
  String.iter (fun c -> Httpd.rb_append rb3 (Bytes.make 1 c) 1) big;
  Alcotest.(check (option string)) "growth preserves the drip scan" (Some big)
    (Httpd.rb_next_request rb3)

(* ------------------------------------------------------------------ *)
(* Keep-alive sequence: the same GETs over one persistent connection
   return statuses and bodies byte-identical to N separate HTTP/1.0
   connections, in both serving shapes.                                 *)

let sizes3 = [ 1000; 4096; 300 ]

let keepalive_sequence shape =
  let reqs = [ 0; 1; 2; 0; 2 ] in
  let ka_results = ref [] and ka_done = ref false in
  let st =
    with_http11 (fun () ->
        serve_to ~shape ~sizes:sizes3
          ~until:(fun () -> !ka_done)
          (fun s ->
            let c = connect s in
            let next = Httpbench.reader c in
            List.iter
              (fun fi ->
                Httpbench.send_string c (get_request fi);
                match next () with
                | Some (hdr, body) -> ka_results := (status_of hdr, body) :: !ka_results
                | None -> ka_results := ("eof", "") :: !ka_results)
              reqs;
            c.close ();
            ka_done := true))
  in
  let h10_results = ref [] and h10_done = ref false in
  ignore
    (with_http11 ~keepalive:false (fun () ->
         serve_to ~sizes:sizes3
           ~until:(fun () -> !h10_done)
           (fun s ->
             List.iter
               (fun fi ->
                 let c = connect s in
                 Httpbench.send_string c
                   (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" (file_name fi));
                 let resp = Httpbench.drain c in
                 let body = Option.value ~default:"" (Httpbench.body_of resp) in
                 h10_results := (status_of resp, body) :: !h10_results;
                 c.close ())
               reqs;
             h10_done := true)));
  Alcotest.(check (list (pair string string)))
    "keep-alive sequence matches N fresh HTTP/1.0 connections" !h10_results !ka_results;
  Alcotest.(check int) "one connection carried all requests" 1 st.Httpd.accepted;
  Alcotest.(check int) "every request after the first counted as reuse"
    (List.length reqs - 1) st.Httpd.reused

let test_keepalive_sequence_reactor () = keepalive_sequence Httpbench.Reactor
let test_keepalive_sequence_threaded () = keepalive_sequence Httpbench.Threads

(* ------------------------------------------------------------------ *)
(* Pipelining: a burst of requests sent before any response is read
   comes back strictly in request order.                                *)

let test_pipelined_in_order () =
  let order = [ 2; 0; 1; 2; 1; 0 ] in
  let got = ref [] and done_f = ref false in
  let st =
    with_http11 (fun () ->
        serve_to ~sizes:sizes3
          ~until:(fun () -> !done_f)
          (fun s ->
            let c = connect s in
            let b = Buffer.create 256 in
            List.iter (fun fi -> Buffer.add_string b (get_request fi)) order;
            Httpbench.send_string c (Buffer.contents b);
            let next = Httpbench.reader c in
            List.iter
              (fun _ ->
                match next () with
                | Some (_, body) -> got := body :: !got
                | None -> ())
              order;
            c.close ();
            done_f := true))
  in
  let expect =
    List.map
      (fun fi ->
        String.init (List.nth sizes3 fi) (fun i -> Char.chr (Httpbench.pattern ~file:fi i)))
      order
  in
  Alcotest.(check (list string)) "responses in request order" expect (List.rev !got);
  Alcotest.(check bool) "server saw pipelined requests" true (st.Httpd.pipelined > 0)

(* ------------------------------------------------------------------ *)
(* Idle timeout: a connection left open past Httpd.idle_timeout_ns (5 s
   of virtual time) is closed by the server and counted.                *)

let test_idle_timeout () =
  let eof = ref false and served = ref false in
  let st =
    with_http11 (fun () ->
        serve_to ~sizes:sizes3
          ~until:(fun () -> !eof)
          (fun s ->
            let c = connect s in
            Httpbench.send_string c (get_request 0);
            let next = Httpbench.reader c in
            (match next () with Some _ -> served := true | None -> ());
            (* Go idle: the next read must see the server's close, not
               hang forever. *)
            (match next () with None -> eof := true | Some _ -> ());
            c.close ()))
  in
  Alcotest.(check bool) "the request before the idle gap was served" true !served;
  Alcotest.(check bool) "the idle connection saw EOF" true !eof;
  Alcotest.(check int) "one idle close counted" 1 st.Httpd.idle_closed;
  Alcotest.(check int) "not a protocol error" 0 st.Httpd.protocol_errors

(* ------------------------------------------------------------------ *)
(* Request cap: http_max_reqs_per_conn cuts the connection after N
   requests, advertising Connection: close on the last response.        *)

let test_max_reqs_cap () =
  let hdrs = ref [] and eof = ref false in
  let st =
    with_http11 ~max_reqs:2 (fun () ->
        serve_to ~sizes:sizes3
          ~until:(fun () -> !eof)
          (fun s ->
            let c = connect s in
            let next = Httpbench.reader c in
            for fi = 0 to 1 do
              Httpbench.send_string c (get_request fi);
              match next () with
              | Some (hdr, _) -> hdrs := hdr :: !hdrs
              | None -> ()
            done;
            (* The server hung up after the capped response. *)
            Httpbench.send_string c (get_request 2);
            (match next () with None -> eof := true | Some _ -> ());
            c.close ()))
  in
  let has hdr line = Httpbench.index_of (String.lowercase_ascii hdr) line <> None in
  (match !hdrs with
  | [ second; first ] ->
      Alcotest.(check bool) "first response keeps the connection" true
        (has first "connection: keep-alive");
      Alcotest.(check bool) "capped response advertises close" true
        (has second "connection: close")
  | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l));
  Alcotest.(check bool) "request past the cap saw EOF" true !eof;
  Alcotest.(check int) "one connection capped" 1 st.Httpd.capped

(* ------------------------------------------------------------------ *)
(* Sendfile vs copy: for file sizes spanning block boundaries, the
   mapped zero-copy body is byte-identical to the copy-path body — with
   and without 2% loss on the wire.                                     *)

let fetch_one ~sendfile ~loss size =
  let body = ref None and done_f = ref false and served = ref None in
  let st =
    with_http11 ~sendfile ~sg:sendfile (fun () ->
        serve_to ?loss ~sizes:[ size ]
          ~until:(fun () -> !done_f)
          (fun s ->
            served := Some s;
            let c = connect s in
            Httpbench.send_string c (get_request 0);
            (match Httpbench.reader c () with
            | Some (hdr, b) when status_of hdr = "200" -> body := Some b
            | _ -> ());
            c.close ();
            done_f := true))
  in
  (!body, st, client_rcvbadsum (Option.get !served))

let prop_sendfile_byte_exact =
  QCheck.Test.make ~name:"http11: sendfile body byte-exact across block edges (+loss)"
    ~count:10
    QCheck.(triple (int_bound 3) (int_range (-3) 3) bool)
    (fun (blocks, delta, lossy) ->
      let size = max 1 ((blocks * 4096) + delta) in
      let loss = if lossy then Some 0.02 else None in
      let expect = String.init size (fun i -> Char.chr (Httpbench.pattern ~file:0 i)) in
      let sf_body, sf_st, sf_badsum = fetch_one ~sendfile:true ~loss size in
      let cp_body, cp_st, cp_badsum = fetch_one ~sendfile:false ~loss size in
      (* A wrong checksum that a retransmit later repairs still delivers
         exact bytes: the client must also have dropped none. *)
      sf_body = Some expect && cp_body = Some expect
      && sf_badsum = 0 && cp_badsum = 0
      && sf_st.Httpd.sendfile_bodies = 1
      && sf_st.Httpd.sendfile_fallbacks = 0
      && sf_st.Httpd.body_bytes_copied = 0
      && cp_st.Httpd.sendfile_bodies = 0
      && cp_st.Httpd.body_bytes_copied = size)

(* ------------------------------------------------------------------ *)
(* Warm resend, then invalidation: one file of four blocks served four
   times by sendfile under 2% loss, so the same cached blocks are resent
   through their checksum memos; then, in the same testbed, rewritten
   across a block edge with f_write, truncated to two blocks and regrown
   with new bytes into the same (freed and reused) cache blocks, and
   served twice more.  Every body must be the file's bytes at the time,
   and the client must have dropped no segment for a bad checksum: a
   memo that outlived a write would give the new bytes the old sums,
   and every resend of them too, so the run gives up after a minute.    *)

let warm_bytes = (3 * 4096) + 1000

let warm_resend_then_rewrite stack () =
  let body0 = String.init warm_bytes (fun i -> Char.chr (Httpbench.pattern ~file:0 i)) in
  let patch = String.init 300 (fun i -> Char.chr (((i * 7) + 1) land 0xff)) in
  let cut = 5000 in
  let regrown = String.init (warm_bytes - cut) (fun i -> Char.chr (((i * 13) + 5) land 0xff)) in
  let body1 = String.sub body0 0 4000 ^ patch ^ String.sub body0 4300 (cut - 4300) ^ regrown in
  let got = ref [] and done_f = ref false and served = ref None and reused = ref false in
  let gave_up () =
    match !served with
    | Some s -> Machine.now s.Httpbench.client.Endpoint.host.Clientos.machine > 60_000_000_000
    | None -> false
  in
  let st =
    with_http11 ~sendfile:true ~sg:true (fun () ->
        serve_to ~loss:0.02 ~stack ~sizes:[ warm_bytes ]
          ~until:(fun () -> !done_f || gave_up ())
          (fun s ->
            served := Some s;
            let c = connect s in
            let next = Httpbench.reader c in
            let fetch () =
              Httpbench.send_string c (get_request 0);
              got := (match next () with Some (_, b) -> b | None -> "") :: !got
            in
            for _ = 1 to 4 do
              fetch ()
            done;
            let f =
              match ok (s.Httpbench.root.Io_if.d_lookup (file_name 0)) with
              | Io_if.Node_file f -> f
              | Io_if.Node_dir _ -> Alcotest.fail "f0.bin is a directory"
            in
            (* The cache buffers behind the file's blocks, by identity. *)
            let blocks () =
              let fm = ok (Com.query f.Io_if.f_unknown Io_if.filemap_iid) in
              let frags = ok (fm.Io_if.fm_map_blocks ~offset:0 ~amount:warm_bytes) in
              Io_if.frags_release frags;
              List.map (fun fr -> fr.Io_if.fr_data) frags
            in
            let before = blocks () in
            let write at str =
              let n = String.length str in
              ignore (ok (f.Io_if.f_write ~buf:(Bytes.of_string str) ~pos:0 ~offset:at ~amount:n))
            in
            write 4000 patch;
            ok (f.Io_if.f_setsize cut);
            write cut regrown;
            reused := List.for_all2 ( == ) before (blocks ());
            fetch ();
            fetch ();
            c.close ();
            done_f := true))
  in
  Alcotest.(check bool) "the regrown file reuses the freed cache blocks" true !reused;
  Alcotest.(check (list string)) "bodies before and after the rewrite"
    [ body0; body0; body0; body0; body1; body1 ]
    (List.rev !got);
  Alcotest.(check int) "every body by sendfile" 6 st.Httpd.sendfile_bodies;
  let s = Option.get !served in
  Alcotest.(check bool) "the server retransmitted" true
    ((Endpoint.stats s.Httpbench.server.Endpoint.stack).Endpoint.rexmits > 0);
  Alcotest.(check int) "client segments dropped for a bad checksum" 0 (client_rcvbadsum s)

(* ------------------------------------------------------------------ *)
(* The shared response reader, which decides byte-exactness for the
   bench and for the tests above: over a connection whose receives
   return a canned stream cut at arbitrary points, pipelined responses
   read back whole and in order, and a response with no Content-Length
   or cut short mid-body reads as None.                                 *)

(* A connection whose receives return [stream] in the pieces the offsets
   [cuts] make, each capped at the caller's length, then EOF. *)
let canned stream cuts =
  let len = String.length stream in
  let ends = ref (List.sort_uniq compare (len :: List.filter (fun c -> c > 0 && c < len) cuts)) in
  let at = ref 0 in
  let recv ~buf ~pos ~len =
    match !ends with
    | [] -> Ok 0
    | e :: rest ->
        let n = min len (e - !at) in
        Bytes.blit_string stream !at buf pos n;
        at := !at + n;
        if !at = e then ends := rest;
        Ok n
  in
  { Endpoint.send = (fun ~buf:_ ~pos:_ ~len -> Ok len); recv; close = ignore; nodelay = ignore;
    sock = Endpoint.Fd 0 }

let header body = Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d" (String.length body)
let response body = header body ^ "\r\n\r\n" ^ body

let prop_reader_framing =
  QCheck.Test.make ~name:"http11: the response reader frames any cut of the stream"
    ~count:200
    QCheck.(
      pair (list_of_size Gen.(1 -- 5) (string_of_size Gen.(0 -- 6000))) (list (int_bound 30_000)))
    (fun (bodies, cuts) ->
      let whole = String.concat "" (List.map response bodies) in
      let reads stream =
        let next = Httpbench.reader (canned stream cuts) in
        List.map (fun _ -> next ()) (bodies @ [ "" ])
      in
      let expect = List.map (fun b -> Some (header b, b)) bodies @ [ None ] in
      let cut = response "xy" in
      reads whole = expect
      && reads (whole ^ "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nxy") = expect
      && reads (whole ^ String.sub cut 0 (String.length cut - 1)) = expect)

(* ------------------------------------------------------------------ *)
(* Buffer-cache hardening: true-LRU eviction, pinned buffers are never
   victims, and an all-pinned cache grows instead of evicting.          *)

let test_buf_lru_and_pins () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:4 dev in
  (* Fill: 0 1 2 3, all released. *)
  for i = 0 to 3 do
    Buf.brelse bc (Buf.bread bc i)
  done;
  (* Touch 0 so 1 becomes the true LRU, then fault 4: 1 must go. *)
  Buf.brelse bc (Buf.bread bc 0);
  Buf.brelse bc (Buf.bread bc 4);
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "one eviction under pressure" 1 s.Buf.cs_evictions;
  Alcotest.(check int) "cache stays at max_bufs" 4 s.Buf.cs_cached;
  (* 0 survived (recently used): a re-read hits. *)
  let h0 = bc.Buf.hits in
  Buf.brelse bc (Buf.bread bc 0);
  Alcotest.(check int) "recently-used block survived" (h0 + 1) bc.Buf.hits;
  (* 1 was the victim: a re-read misses. *)
  let m0 = bc.Buf.misses in
  Buf.brelse bc (Buf.bread bc 1);
  Alcotest.(check int) "LRU block was the victim" (m0 + 1) bc.Buf.misses

let test_buf_pinned_never_evicted () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:2 dev in
  let b0 = Buf.bread bc 0 in
  Buf.pin_held bc b0;
  (* Churn far past the cache size: the pinned block must survive. *)
  for i = 1 to 8 do
    Buf.brelse bc (Buf.bread bc i)
  done;
  let h0 = bc.Buf.hits in
  let again = Buf.bread bc 0 in
  Alcotest.(check int) "pinned block still resident" (h0 + 1) bc.Buf.hits;
  Alcotest.(check bool) "same buffer, refs intact" true (again == b0 && b0.Buf.b_refs = 2);
  Buf.brelse bc again;
  Buf.unpin bc b0;
  let s = Buf.cache_stats bc in
  Alcotest.(check (pair int int)) "pin/unpin accounted" (1, 1) (s.Buf.cs_pins, s.Buf.cs_unpins);
  Alcotest.(check bool) "evictions happened around the pin" true (s.Buf.cs_evictions > 0)

let test_buf_all_pinned_grows () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:2 dev in
  (* Three blocks, all pinned: nothing is evictable, so the cache grows
     past max_bufs (BSD under wired pages) rather than stealing bytes
     that may be queued for DMA. *)
  let bs = List.init 3 (fun i -> Buf.bread bc i) in
  List.iter (fun b -> Buf.pin_held bc b) bs;
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "no evictions with everything pinned" 0 s.Buf.cs_evictions;
  Alcotest.(check int) "cache grew past max_bufs" 3 s.Buf.cs_cached;
  List.iter (fun b -> Buf.unpin bc b) bs

(* ------------------------------------------------------------------ *)
(* Flags off: the stock HTTP/1.0 engine runs, and none of the new
   keep-alive/sendfile counters move.                                   *)

let test_flags_off_untouched () =
  let resp = ref "" and done_f = ref false in
  let st =
    serve_to ~sizes:sizes3
      ~until:(fun () -> !done_f)
      (fun s ->
        let c = connect s in
        Httpbench.send_string c "GET /f1.bin HTTP/1.0\r\n\r\n";
        resp := Httpbench.drain c;
        c.close ();
        done_f := true)
  in
  let expect = String.init 4096 (fun i -> Char.chr (Httpbench.pattern ~file:1 i)) in
  Alcotest.(check bool) "stock HTTP/1.0 close-per-request response" true
    (Httpbench.exact_200 !resp expect);
  Alcotest.(check int) "no reuse counted" 0 st.Httpd.reused;
  Alcotest.(check int) "no pipelining counted" 0 st.Httpd.pipelined;
  Alcotest.(check int) "no idle closes" 0 st.Httpd.idle_closed;
  Alcotest.(check int) "no caps" 0 st.Httpd.capped;
  (* The harness's testbed started with zeroed counters; the flags-off run
     must not have moved the sendfile ones at all, and its one copied body
     is counted like any other. *)
  Alcotest.(check int) "no sendfile bodies" 0 Cost.counters.Cost.sendfile_bodies;
  Alcotest.(check int) "no sendfile fallbacks" 0 Cost.counters.Cost.sendfile_fallbacks;
  Alcotest.(check (pair int int)) "one counted body copy of 4096 bytes" (1, 4096)
    (Cost.counters.Cost.http_body_copies, Cost.counters.Cost.http_body_copied_bytes)

(* ------------------------------------------------------------------ *)
(* Edge requests pinned in every cell of {reactor, threads} x
   keep-alive {off, on}, so both serving shapes answer alike in both
   modes: a doubled space still separates the request line's tokens; a
   connection that leaves before sending a byte is not a protocol error;
   a header over the byte bound counts as an overflow only; and
   keep-alive off answers an HTTP/1.1 request with HTTP/1.0 and
   Connection: close.                                                   *)

let padded_header =
  "GET /f0.bin HTTP/1.0\r\n"
  ^ String.concat "" (List.init 20 (fun _ -> "X-Padding: 0123456789abcdef\r\n"))

(* name, bytes sent (None: connect and leave), the header bound
   (Cost.config.httpd_max_header_bytes, 0 = unbounded), expected (status
   line, Connection) with keep-alive off and on ("" = no response),
   protocol_errors, hdr_overflow *)
let engine_edges =
  [ ( "doubled space", Some "GET  /f0.bin HTTP/1.0\r\n\r\n", 0,
      ("HTTP/1.0 200 OK", "close"), ("HTTP/1.0 200 OK", "close"), 0, 0 );
    ("zero bytes", None, 0, ("", ""), ("", ""), 0, 0);
    ("header over the bound", Some padded_header, 256, ("", ""), ("", ""), 0, 1);
    ( "HTTP/1.1 request line", Some (get_request 0), 0,
      ("HTTP/1.0 200 OK", "close"), ("HTTP/1.1 200 OK", "keep-alive"), 0, 0 ) ]

let edge_cell ~shape ~keepalive (name, send, bound, off, on, perr, hov) =
  let cell =
    Printf.sprintf "%s, %s, keep-alive %b" name (Httpbench.shape_name shape) keepalive
  in
  let got = ref ("", "") and done_f = ref false in
  (* The server's counts, once the client has the server. *)
  let stats = ref None in
  let until () =
    !done_f && match !stats with Some st -> (st ()).Httpd.active = 0 | None -> false
  in
  let st =
    Cost.with_config
      { Cost.config with Cost.httpd_max_header_bytes = bound }
      (fun () ->
        with_http11 ~keepalive (fun () ->
            serve_to ~shape ~sizes:sizes3 ~until (fun s ->
                stats := Some s.Httpbench.stats;
                let c = connect s in
                Option.iter
                  (fun req ->
                    Httpbench.send_string c req;
                    match Httpbench.reader c () with
                    | Some (hdr, _) ->
                        let conn = Httpbench.header_value hdr "connection" in
                        got := (Httpbench.line_at hdr 0, Option.value ~default:"" conn)
                    | None -> ())
                  send;
                c.close ();
                done_f := true)))
  in
  let status, conn = if keepalive then on else off in
  Alcotest.(check (pair string string)) (cell ^ ": status line, Connection") (status, conn) !got;
  Alcotest.(check int) (cell ^ ": protocol_errors") perr st.Httpd.protocol_errors;
  Alcotest.(check int) (cell ^ ": hdr_overflow") hov st.Httpd.hdr_overflow

let test_engine_edges () =
  List.iter
    (fun case ->
      List.iter
        (fun shape ->
          List.iter (fun keepalive -> edge_cell ~shape ~keepalive case) [ false; true ])
        [ Httpbench.Reactor; Httpbench.Threads ])
    engine_edges

(* ------------------------------------------------------------------ *)
(* Corked replies: the httpd sets "nopush" on its listener, so a
   close-per-request reply leaves with its FIN, and a keep-alive engine
   uncorks when its response queue drains.                              *)

(* [n] sequential HTTP/1.0 GETs of a 1000-byte file from [stack] in
   [shape], keep-alive off.  Returns the server's TCP segments (see
   Test_tcp_behavior.tap_segments), the count of byte-exact responses,
   the frames the wire carried and the virtual time the last response
   was drained. *)
let http10_gets ~stack ~shape n =
  with_http11 ~keepalive:false @@ fun () ->
  let finished = ref false and exact = ref 0 and end_ns = ref 0 in
  let s =
    Httpbench.serve ~site:(site [ 1000 ]) ~backlog:16 ~stack ~shape
      ~until:(fun () -> !finished)
      ()
  in
  let wire = s.Httpbench.testbed.Clientos.wire in
  let sent = Test_tcp_behavior.tap_segments wire ~sport:Httpbench.server_port in
  Clientos.spawn s.Httpbench.client.Endpoint.host ~name:"client" (fun () ->
      Kclock.sleep_ns 3_000_000;
      for _ = 1 to n do
        let c = connect s in
        Httpbench.send_string c (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" (file_name 0));
        if Httpbench.exact_200 (Httpbench.drain c) s.Httpbench.bodies.(0) then incr exact;
        c.close ()
      done;
      end_ns := Kclock.now_ns ();
      (* Long enough for the last connection's closing ACKs. *)
      Kclock.sleep_ns 10_000_000;
      finished := true);
  Clientos.run s.Httpbench.testbed ~until:(fun () -> !finished);
  sent (), !exact, Wire.frames_carried wire, !end_ns

let http10_requests = 5

(* FreeBSD: SYN-ACK, the reply with its FIN, and the ACK of the client's
   FIN — three segments per request, where an uncorked reply sends its
   FIN apart (four). *)
let reply_carries_fin shape () =
  let n = http10_requests in
  let segs, exact, _, _ = http10_gets ~stack:Endpoint.Freebsd ~shape n in
  Alcotest.(check int) "every body byte-exact" n exact;
  Alcotest.(check int) "three server segments per request" (3 * n) (List.length segs);
  Alcotest.(check int) "each reply carries its FIN" n
    (List.length
       (List.filter (fun (flags, len) -> len > 0 && flags land Tcp.th_fin <> 0) segs))

(* Linux refuses "nopush" (Linux 2.0 had no cork), so its replies leave as
   before: the segment and frame counts and the virtual time are the ones
   the uncorked httpd gave. *)
let linux_uncorked shape ~frames ~end_ns () =
  let tb = Clientos.make_testbed () in
  let lx =
    Clientos.linux_host tb.Clientos.host_a ~ip:Httpbench.server_ip
      ~mask:(Oskit.ip_of_string "255.255.255.0")
  in
  let sock = Linux_sock_com.socket_com lx (Linux_inet.socket lx) in
  Alcotest.(check bool) "the Linux socket refuses nopush" true
    (sock.Io_if.so_setsockopt "nopush" 1 = Error Error.Notsup);
  let n = http10_requests in
  let segs, exact, got_frames, got_end_ns = http10_gets ~stack:Endpoint.Linux ~shape n in
  Alcotest.(check int) "every body byte-exact" n exact;
  Alcotest.(check int) "no reply carries its FIN" 0
    (List.length
       (List.filter (fun (flags, len) -> len > 0 && flags land Tcp.th_fin <> 0) segs));
  Alcotest.(check int) "frames on the wire" frames got_frames;
  Alcotest.(check int) "virtual time of the last response" end_ns got_end_ns

(* Keep-alive: a lone sub-MSS reply is pushed when the response queue
   drains, not held until a timer (the 5 s idle reaper) closes the
   connection under it. *)
let lone_reply_not_held shape () =
  let lat = ref [] and finished = ref false in
  let st =
    with_http11 (fun () ->
        serve_to ~shape ~sizes:[ 1000 ]
          ~until:(fun () -> !finished)
          (fun s ->
            let c = connect s in
            let next = Httpbench.reader c in
            for _ = 1 to 2 do
              let t0 = Kclock.now_ns () in
              Httpbench.send_string c (get_request 0);
              match next () with
              | Some (hdr, body) when status_of hdr = "200" && body = s.Httpbench.bodies.(0) ->
                  lat := (Kclock.now_ns () - t0) :: !lat
              | _ -> lat := max_int :: !lat
            done;
            c.close ();
            finished := true))
  in
  List.iteri
    (fun i ns ->
      Alcotest.(check bool)
        (Printf.sprintf "reply %d byte-exact within 10 ms (%d ns)" (2 - i) ns)
        true (ns < 10_000_000))
    !lat;
  Alcotest.(check int) "no idle close" 0 st.Httpd.idle_closed

(* ------------------------------------------------------------------ *)
(* The gathered sender: the queued sendfile replies of a pipelined burst
   leave in one sv_send_frags call, each reply's pins go the moment its
   last byte is handed over, and a queue of mapped replies is never
   re-corked.                                                           *)

(* Files 0-3 straddle the 48 KB send buffer together; files 4-7 fit in it. *)
let burst_sizes = [ 40 * 1024; 1024; 30 * 1024; 2 * 1024; 1024; 2 * 1024; 1024; 2 * 1024 ]

(* Over one keep-alive connection to an OSKit sendfile server in [shape],
   two bursts of four pipelined GETs: files 0-3, whose replies overrun
   the send buffer, so the socket takes them over several calls as ACKs
   free space; then files 4-7, whose replies all fit, so the burst leaves
   in one call.  Handing each reply over in a call of its own took 28
   and 4 calls, and re-corking behind each queued reply 3 cork toggles. *)
let gathered_burst shape () =
  let got = ref [] and finished = ref false and served = ref None in
  let calls = ref [] in
  let st =
    with_http11 ~sendfile:true ~sg:true (fun () ->
        serve_to ~stack:Endpoint.Oskit ~shape ~sizes:burst_sizes
          ~until:(fun () -> !finished)
          (fun s ->
            served := Some s;
            let c = connect s in
            let next = Httpbench.reader c in
            let send_calls () = (s.Httpbench.stats ()).Httpd.send_calls in
            List.iter
              (fun files ->
                let c0 = send_calls () in
                Httpbench.send_string c (String.concat "" (List.map get_request files));
                List.iter
                  (fun _ -> got := (match next () with Some (_, b) -> b | None -> "") :: !got)
                  files;
                calls := (send_calls () - c0) :: !calls)
              [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ];
            c.close ();
            (* Long enough for the server to see the close and the last ACKs. *)
            Kclock.sleep_ns 50_000_000;
            finished := true))
  in
  let s = Option.get !served in
  Alcotest.(check (list string)) "bodies byte-exact" (Array.to_list s.Httpbench.bodies)
    (List.rev !got);
  Alcotest.(check int) "every body by sendfile" 8 st.Httpd.sendfile_bodies;
  (match !calls with
  | [ fitting; overrunning ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%d calls hand over the overrunning burst" overrunning)
        true (overrunning < 28);
      Alcotest.(check int) "the fitting burst leaves in one call" 1 fitting
  | _ -> Alcotest.fail "two bursts");
  Alcotest.(check int) "the connection closed" 0 st.Httpd.active;
  let cs = Buf.cache_stats s.Httpbench.bufcache in
  Alcotest.(check int) "every pin returned" cs.Buf.cs_pins cs.Buf.cs_unpins;
  Alcotest.(check bool)
    (Printf.sprintf "%d buffers cached, within max_bufs" cs.Buf.cs_cached)
    true
    (cs.Buf.cs_cached <= s.Httpbench.bufcache.Buf.max_bufs);
  Alcotest.(check bool)
    (Printf.sprintf "%d cork toggles over two bursts" st.Httpd.cork_toggles)
    true (st.Httpd.cork_toggles <= 1)

(* An OSKit TCP socket whose sendv face takes [takes] bytes on its
   successive calls, and what it took, in order. *)
let scripted_socket takes =
  let wire = Buffer.create 1024 in
  let send_frags ~frags ~pos =
    let n = min (List.hd !takes) (Io_if.frags_length frags - pos) in
    takes := List.tl !takes;
    ignore
      (List.fold_left
         (fun (skip, need) (f : Io_if.file_frag) ->
           if skip >= f.Io_if.fr_len then (skip - f.Io_if.fr_len, need)
           else begin
             let k = min need (f.Io_if.fr_len - skip) in
             Buffer.add_subbytes wire f.Io_if.fr_data (f.Io_if.fr_off + skip) k;
             (0, need - k)
           end)
         (pos, n) frags);
    Ok n
  in
  let rec sv = lazy { Io_if.sv_unknown = Lazy.force obj; sv_send_frags = send_frags }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.sendv_iid, fun () -> Lazy.force sv) ])) in
  let tb = Clientos.make_testbed () in
  let sock =
    match (Endpoint.setup Endpoint.Oskit tb.Clientos.host_b ~addr:Httpbench.server_ip).stack with
    | Endpoint.Bsd bsd -> Freebsd_glue.socket_com bsd (Bsd_socket.tcp_socket bsd)
    | Endpoint.Lx _ -> Alcotest.fail "the OSKit configuration runs the FreeBSD stack"
  in
  ({ sock with Io_if.so_unknown = Lazy.force obj }, wire)

(* Two queued sendfile replies, 40 KB and 30 KB, over a socket that takes
   50 KB on the first call: the call ends inside the second reply, so it
   returns the first reply's pins and keeps the second's; the next call
   finishes the second and returns the rest. *)
let test_partial_gather () =
  with_http11 ~sendfile:true ~sg:true @@ fun () ->
  let sizes = [ 40 * 1024; 30 * 1024 ] in
  let root, bodies, bc = Httpbench.make_root (site sizes) in
  let sock, wire = scripted_socket (ref [ 50 * 1024; max_int ]) in
  let cn = Httpd.conn_create ~corks:false (Httpd.make_stats ()) root sock in
  let reqs = get_request 0 ^ get_request 1 in
  Httpd.rb_append cn.Httpd.rb (Bytes.of_string reqs) (String.length reqs);
  let cs0 = Buf.cache_stats bc in
  Httpd.frame cn;
  let blocks =
    List.of_seq (Seq.map (fun r -> List.length r.Httpd.rs_frags - 1) (Queue.to_seq cn.Httpd.q))
  in
  let returned () = (Buf.cache_stats bc).Buf.cs_unpins - cs0.Buf.cs_unpins in
  let pinned () = (Buf.cache_stats bc).Buf.cs_pinned in
  (match blocks with
  | [ b0; b1 ] ->
      Alcotest.(check bool) "the first call ends inside the second reply" true
        (Httpd.send cn = Httpd.Full);
      Alcotest.(check int) "one reply left" 1 (Queue.length cn.Httpd.q);
      Alcotest.(check int) "the first reply's pins returned at once" b0 (returned ());
      Alcotest.(check int) "the second's still held" b1 (pinned ());
      Alcotest.(check bool) "the second call finishes it" true (Httpd.send cn = Httpd.Handed);
      Alcotest.(check int) "its pins returned" (b0 + b1) (returned ());
      Alcotest.(check int) "nothing pinned" 0 (pinned ())
  | l -> Alcotest.failf "expected 2 queued replies, got %d" (List.length l));
  let next = Httpbench.reader (canned (Buffer.contents wire) []) in
  let got = List.map (fun _ -> Option.map snd (next ())) sizes in
  Alcotest.(check (list (option string))) "both replies byte-exact"
    (List.map Option.some (Array.to_list bodies))
    got

let suite =
  [ Alcotest.test_case "scanner: one-byte drips, cursor never rewinds" `Quick
      test_scanner_drip;
    Alcotest.test_case "scanner: pipelined framing, terminator semantics, growth"
      `Quick test_scanner_pipelined_and_terminators;
    Alcotest.test_case "keep-alive sequence == N fresh 1.0 connections (reactor)"
      `Quick test_keepalive_sequence_reactor;
    Alcotest.test_case "keep-alive (threads) sequence == N fresh 1.0 connections"
      `Quick test_keepalive_sequence_threaded;
    Alcotest.test_case "pipelined responses come back strictly in order" `Quick
      test_pipelined_in_order;
    Alcotest.test_case "idle timeout closes and is counted" `Quick test_idle_timeout;
    Alcotest.test_case "http_max_reqs_per_conn caps with Connection: close" `Quick
      test_max_reqs_cap;
    QCheck_alcotest.to_alcotest prop_sendfile_byte_exact;
    Alcotest.test_case "sendfile: warm resend under loss, then rewrite (FreeBSD)" `Quick
      (warm_resend_then_rewrite Endpoint.Freebsd);
    Alcotest.test_case "sendfile (OSKit): warm resend under loss, then rewrite" `Quick
      (warm_resend_then_rewrite Endpoint.Oskit);
    QCheck_alcotest.to_alcotest prop_reader_framing;
    Alcotest.test_case "buf cache: true-LRU eviction" `Quick test_buf_lru_and_pins;
    Alcotest.test_case "buf cache: pinned buffers are never evicted" `Quick
      test_buf_pinned_never_evicted;
    Alcotest.test_case "buf cache: all-pinned cache grows, never steals" `Quick
      test_buf_all_pinned_grows;
    Alcotest.test_case "flags off: stock 1.0 engine, new counters untouched" `Quick
      test_flags_off_untouched;
    Alcotest.test_case "one engine: edge requests x shape x keep-alive pinned" `Quick
      test_engine_edges;
    Alcotest.test_case "corked 1.0 reply: data+FIN, 3 segments (reactor)" `Quick
      (reply_carries_fin Httpbench.Reactor);
    Alcotest.test_case "corked 1.0 reply (threads): data+FIN, 3 segments" `Quick
      (reply_carries_fin Httpbench.Threads);
    Alcotest.test_case "linux refuses the cork: 1.0 frames unmoved (reactor)" `Quick
      (linux_uncorked Httpbench.Reactor ~frames:52 ~end_ns:6_963_425);
    Alcotest.test_case "linux refuses the cork (threads): 1.0 frames unmoved" `Quick
      (linux_uncorked Httpbench.Threads ~frames:52 ~end_ns:6_955_425);
    Alcotest.test_case "keep-alive lone reply not held: reactor" `Quick
      (lone_reply_not_held Httpbench.Reactor);
    Alcotest.test_case "keep-alive lone reply not held: threads" `Quick
      (lone_reply_not_held Httpbench.Threads);
    Alcotest.test_case "gathered burst: one sendv (reactor)" `Quick
      (gathered_burst Httpbench.Reactor);
    Alcotest.test_case "gathered burst (threads): one sendv" `Quick
      (gathered_burst Httpbench.Threads);
    Alcotest.test_case "sender: a partial call ends in reply 2" `Quick test_partial_gather ]
