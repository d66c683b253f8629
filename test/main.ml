let () =
  Alcotest.run "oskit"
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
      "ports", Test_ports.suite;
      "longfat", Test_longfat.suite;
      "overload", Test_overload.suite;
      "smp", Test_smp.suite;
      "event", Test_event.suite;
      "http11", Test_http11.suite;
      "bench-record", Test_bench_record.suite ]
