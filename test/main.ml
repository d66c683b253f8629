let suites =
    [ "com", Test_com.suite;
      "machine", Test_machine.suite;
      "kern", Test_kern.suite;
      "lmm", Test_lmm.suite;
      "kalloc", Test_kalloc.suite;
      "amm", Test_amm.suite;
      "libc", Test_libc.suite;
      "memdebug", Test_memdebug.suite;
      "boot", Test_boot.suite;
      "fs", Test_fs.suite;
      "netparts", Test_netparts.suite;
      "net", Test_net.suite;
      "glue", Test_glue.suite;
      "netem", Test_netem.suite;
      "sg", Test_sg.suite;
      "tcp-behavior", Test_tcp_behavior.suite;
      "misc", Test_misc.suite;
      "vm", Test_vm.suite;
      "chardev", Test_chardev.suite;
      "posix-net", Test_posix_net.suite;
      "fatfs", Test_fatfs.suite;
      "misc2", Test_misc2.suite;
      "advanced", Test_advanced.suite;
      "asyncio", Test_asyncio.suite;
      "fastpath", Test_fastpath.suite;
      "demux", Test_demux.suite;
      "time-wait", Test_time_wait.suite;
      "ports", Test_ports.suite;
      "longfat", Test_longfat.suite;
      "overload", Test_overload.suite;
      "smp", Test_smp.suite;
      "event", Test_event.suite;
      "http11", Test_http11.suite;
      "bench-record", Test_bench_record.suite ]

(* The runner's listing cuts a case name at 35 characters, so two cases
   of one suite that agree that far print alike, and a list of passing
   tests, one name a line, cannot tell them apart or miss one.  Refuse to
   run such a suite. *)
let printed name = if String.length name <= 37 then name else String.sub name 0 35

let () =
  List.iter
    (fun (suite, cases) ->
      let rec check = function
        | [] -> ()
        | (name, _, _) :: rest ->
            List.iter
              (fun (other, _, _) ->
                if printed other = printed name then
                  failwith
                    (Printf.sprintf "suite %s: %S and %S print alike as %S" suite name other
                       (printed name)))
              rest;
            check rest
      in
      check cases)
    suites;
  Alcotest.run "oskit" suites
