(* Integration tests: TCP transfers across the three network
   configurations of the paper's evaluation, on the simulated testbed,
   through the stream harness (Netbench): every ordered pair of
   configurations must carry a patterned stream byte-exact. *)

(* [bytes] from [sender] to [receiver] in [send_chunk]-byte sends. *)
let transfer ?(models = "3c905", "tulip") ?(recv_chunk = 8192) ?send_chunk sender receiver
    ~bytes =
  let send_chunk = Option.value send_chunk ~default:bytes in
  let r =
    Netbench.stream
      { Netbench.ttcp with sender; receiver; models; bytes; send_chunk; recv_chunk }
  in
  Alcotest.(check bool) "transfer completed" true r.completed;
  Alcotest.(check int) "received size" bytes r.received;
  Alcotest.(check bool) "payload integrity" true r.byte_exact

(* The 3x3 matrix: sizes that are a multiple of neither the send chunk,
   the receive chunk nor the MSS. *)
let matrix sender receiver () =
  transfer sender receiver ~send_chunk:1000 ~bytes:(37 * 1000);
  transfer sender receiver ~send_chunk:65_537 ~bytes:(3 * 65_537)

let configs = Netbench.[ Oskit; Freebsd; Linux ]

let suite =
  [ Alcotest.test_case "freebsd-native 256KB transfer" `Quick (fun () ->
        transfer Netbench.Freebsd Netbench.Freebsd ~bytes:(256 * 1024));
    Alcotest.test_case "oskit-config 256KB transfer" `Quick (fun () ->
        transfer ~models:("NE2000", "tulip") Netbench.Oskit Netbench.Oskit ~bytes:(256 * 1024));
    Alcotest.test_case "linux-native 256KB transfer" `Quick (fun () ->
        transfer ~models:("3c59x", "lance") Netbench.Linux Netbench.Linux ~bytes:(256 * 1024));
    Alcotest.test_case "oskit->freebsd interop 64KB" `Quick (fun () ->
        transfer ~models:("eepro100", "tulip") ~recv_chunk:4096 Netbench.Oskit Netbench.Freebsd
          ~bytes:(64 * 1024));
    Alcotest.test_case "freebsd tiny (1 byte)" `Quick (fun () ->
        transfer Netbench.Freebsd Netbench.Freebsd ~bytes:1);
    Alcotest.test_case "oskit odd size (12345)" `Quick (fun () ->
        transfer ~models:("NE2000", "tulip") Netbench.Oskit Netbench.Oskit ~bytes:12345) ]
  @ List.concat_map
      (fun s ->
        List.map
          (fun r ->
            Alcotest.test_case
              (Printf.sprintf "interop matrix: %s->%s byte-exact" (Netbench.config_name s)
                 (Netbench.config_name r))
              `Quick (matrix s r))
          configs)
      configs
