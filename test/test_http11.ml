(* The HTTP/1.1 keep-alive engine and the sendfile content path (PR 10):
   the O(bytes) request scanner under one-byte drips, keep-alive
   sequences byte-exact against N separate HTTP/1.0 connections,
   pipelined responses strictly in order, the idle timeout and the
   per-connection request cap, sendfile-vs-copy body byte-exactness
   across block boundaries (also under 2% loss), buffer-cache pin and
   eviction hardening, and the flags-off world untouched. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* ---- knob scoping: set the PR-10 knobs for [f], restore after ---- *)

let with_http11 ?(keepalive = true) ?(sendfile = false) ?(sg = false)
    ?(idle_ns = 5_000_000_000) ?(max_reqs = 0) ?(pipeline_max = 8) f =
  Cost.with_config
    { Cost.config with
      Cost.http_keepalive = keepalive;
      sendfile;
      sg_tx = sg;
      http_idle_timeout_ns = idle_ns;
      http_max_reqs_per_conn = max_reqs;
      http_pipeline_max = pipeline_max }
    f

(* ---- the server: Httpbench's, on the FreeBSD stack, one pattern file
   per size on a 4 MB disk ---- *)

let file_name i = Printf.sprintf "f%d.bin" i

let site sizes =
  { (Httpbench.file_site (Array.of_list sizes)) with Httpbench.disk_bytes = 4 * 1024 * 1024 }

(* Serve [sizes] in [shape] with a backlog of 16, [loss] on the wire
   (netem seed 29); [client] runs on host A from 3 ms, and the testbed
   runs until [until].  Returns the server's counts. *)
let serve_to ?loss ?(shape = Httpbench.Reactor) ~sizes ~until client =
  let s =
    Httpbench.serve ~site:(site sizes) ~backlog:16 ~stack:Endpoint.Freebsd ~shape ~until ()
  in
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
(* Idle timeout: a connection left open past http_idle_timeout_ns is
   closed by the server and counted.                                    *)

let test_idle_timeout () =
  let eof = ref false and served = ref false in
  let st =
    with_http11 ~idle_ns:50_000_000 (fun () ->
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
  let body = ref None and done_f = ref false in
  let st =
    with_http11 ~sendfile ~sg:sendfile (fun () ->
        serve_to ?loss ~sizes:[ size ]
          ~until:(fun () -> !done_f)
          (fun s ->
            let c = connect s in
            Httpbench.send_string c (get_request 0);
            (match Httpbench.reader c () with
            | Some (hdr, b) when status_of hdr = "200" -> body := Some b
            | _ -> ());
            c.close ();
            done_f := true))
  in
  (!body, st)

let prop_sendfile_byte_exact =
  QCheck.Test.make ~name:"http11: sendfile body byte-exact across block edges (+loss)"
    ~count:10
    QCheck.(triple (int_bound 3) (int_range (-3) 3) bool)
    (fun (blocks, delta, lossy) ->
      let size = max 1 ((blocks * 4096) + delta) in
      let loss = if lossy then Some 0.02 else None in
      let expect = String.init size (fun i -> Char.chr (Httpbench.pattern ~file:0 i)) in
      let sf_body, sf_st = fetch_one ~sendfile:true ~loss size in
      let cp_body, cp_st = fetch_one ~sendfile:false ~loss size in
      sf_body = Some expect && cp_body = Some expect
      && sf_st.Httpd.sendfile_bodies = 1
      && sf_st.Httpd.sendfile_fallbacks = 0
      && sf_st.Httpd.body_bytes_copied = 0
      && cp_st.Httpd.sendfile_bodies = 0
      && cp_st.Httpd.body_bytes_copied = size)

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
  { Endpoint.send = (fun ~buf:_ ~pos:_ ~len -> Ok len); recv; close = ignore; sock = Endpoint.Fd 0 }

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
    Buf.brelse (Buf.bread bc i)
  done;
  (* Touch 0 so 1 becomes the true LRU, then fault 4: 1 must go. *)
  Buf.brelse (Buf.bread bc 0);
  Buf.brelse (Buf.bread bc 4);
  let s = Buf.cache_stats bc in
  Alcotest.(check int) "one eviction under pressure" 1 s.Buf.cs_evictions;
  Alcotest.(check int) "cache stays at max_bufs" 4 s.Buf.cs_cached;
  (* 0 survived (recently used): a re-read hits. *)
  let h0 = bc.Buf.hits in
  Buf.brelse (Buf.bread bc 0);
  Alcotest.(check int) "recently-used block survived" (h0 + 1) bc.Buf.hits;
  (* 1 was the victim: a re-read misses. *)
  let m0 = bc.Buf.misses in
  Buf.brelse (Buf.bread bc 1);
  Alcotest.(check int) "LRU block was the victim" (m0 + 1) bc.Buf.misses

let test_buf_pinned_never_evicted () =
  let dev = Mem_blkio.make ~bytes:(1024 * 1024) () in
  let bc = Buf.create ~bsize:4096 ~max_bufs:2 dev in
  let b0 = Buf.bread bc 0 in
  Buf.pin_held bc b0;
  (* Churn far past the cache size: the pinned block must survive. *)
  for i = 1 to 8 do
    Buf.brelse (Buf.bread bc i)
  done;
  let h0 = bc.Buf.hits in
  let again = Buf.bread bc 0 in
  Alcotest.(check int) "pinned block still resident" (h0 + 1) bc.Buf.hits;
  Alcotest.(check bool) "same buffer, refs intact" true (again == b0 && b0.Buf.b_refs = 2);
  Buf.brelse again;
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
  (* The harness's reset_globals zeroed the counters; the flags-off run must
     not have moved the sendfile ones at all, and its one copied body is
     counted like any other. *)
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

(* name, bytes sent (None: connect and leave), guard with a 256-byte
   header bound, expected (status line, Connection) with keep-alive off
   and on ("" = no response), protocol_errors, hdr_overflow *)
let engine_edges =
  [ ( "doubled space", Some "GET  /f0.bin HTTP/1.0\r\n\r\n", false,
      ("HTTP/1.0 200 OK", "close"), ("HTTP/1.0 200 OK", "close"), 0, 0 );
    ("zero bytes", None, false, ("", ""), ("", ""), 0, 0);
    ("header over the bound", Some padded_header, true, ("", ""), ("", ""), 0, 1);
    ( "HTTP/1.1 request line", Some (get_request 0), false,
      ("HTTP/1.0 200 OK", "close"), ("HTTP/1.1 200 OK", "keep-alive"), 0, 0 ) ]

let edge_cell ~shape ~keepalive (name, send, guard, off, on, perr, hov) =
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
      { Cost.config with Cost.httpd_guard = guard; httpd_max_header_bytes = 256 }
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

let suite =
  [ Alcotest.test_case "scanner: one-byte drips, cursor never rewinds" `Quick
      test_scanner_drip;
    Alcotest.test_case "scanner: pipelined framing, terminator semantics, growth"
      `Quick test_scanner_pipelined_and_terminators;
    Alcotest.test_case "keep-alive sequence == N fresh 1.0 connections (reactor)"
      `Quick test_keepalive_sequence_reactor;
    Alcotest.test_case "keep-alive sequence == N fresh 1.0 connections (threads)"
      `Quick test_keepalive_sequence_threaded;
    Alcotest.test_case "pipelined responses come back strictly in order" `Quick
      test_pipelined_in_order;
    Alcotest.test_case "idle timeout closes and is counted" `Quick test_idle_timeout;
    Alcotest.test_case "http_max_reqs_per_conn caps with Connection: close" `Quick
      test_max_reqs_cap;
    QCheck_alcotest.to_alcotest prop_sendfile_byte_exact;
    QCheck_alcotest.to_alcotest prop_reader_framing;
    Alcotest.test_case "buf cache: true-LRU eviction" `Quick test_buf_lru_and_pins;
    Alcotest.test_case "buf cache: pinned buffers are never evicted" `Quick
      test_buf_pinned_never_evicted;
    Alcotest.test_case "buf cache: all-pinned cache grows, never steals" `Quick
      test_buf_all_pinned_grows;
    Alcotest.test_case "flags off: stock 1.0 engine, new counters untouched" `Quick
      test_flags_off_untouched;
    Alcotest.test_case "one engine: edge requests x shape x keep-alive pinned" `Quick
      test_engine_edges ]
