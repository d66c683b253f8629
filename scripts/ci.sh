#!/bin/sh
# Tier-1 gate: full build, test suites, and smoke runs of the allocator
# bench (tiny workload — we only check it runs and prints the speedup
# table), the chaos bench (fixed-seed lossy-link soak: ttcp through
# netem at 0–5% loss in all three configurations; the bench itself fails
# if any cell is not byte-exact), the scatter-gather smoke (fixed
# seed; asserts sg send >= default send, zero flatten copies on the sg
# path, and byte-exactness with sg on under loss),
# and the rtt smoke (receive fast path: flags-on transfers stay
# byte-exact under netem loss, the header-prediction run must strictly
# reduce mean RTT with zero fallbacks on a clean in-order wire, and
# batched RX must average more than one frame per poll under http load),
# and the longfat smoke (window scaling + NewReno + autotuning:
# byte-exact under 1% loss at 10 ms RTT in both stacks, scaled windows
# >= 5x the seed throughput at 50 ms, autotuned buffers >= 90% of manual
# BDP sizing, and the persist probe fires in a forced zero-window run),
# and the overload smoke (survival under deliberate abuse: with the SYN
# defense on, a 10x spoofed SYN flood must leave every legitimate client
# served at >= 70% of clean goodput on both stacks; a 1% injected
# allocation-failure soak must stay byte-exact with zero crashes; and
# the guarded httpd must reclaim Slowloris-parked connections by header
# deadline and still serve late legitimate clients),
# and the file smoke (the HTTP/1.1 + sendfile content path: keep-alive
# req/s strictly above close-per-request at 64 clients, zero body bytes
# copied and zero fallbacks on warm-cache sendfile hits, every body
# byte-exact in both serving shapes, and the Linux rows carrying the
# counted copy fallback — that stack exports no sendv face).
# A bench section name the harness does not know must fail the run, so a
# typo or a deleted section cannot pass silently.
# Finally, every committed baseline is regenerated with --json (table1
# with --sg, table2, rtt, http, file, overload, smp, event, longfat — no
# section rewrites its file without --json) and all nine BENCH_*.json
# files must be bit-identical to the committed ones, so any change to a
# charged cycle, a wire byte or a counter shows up as a reviewable diff.
# These sections check their own rows too, and fail loudly on
# regression: http (every response byte-exact, no protocol errors, the
# reactor holding >= 4x the threaded concurrency at 256 clients and
# serving >= the threaded req/s at 64), smp (byte-exact, no netisr drop,
# no spinlock contention on the per-flow hot path, >= 3x at 4 CPUs from
# 1024 clients, 4 CPUs strictly faster than 1 at 256 with steering
# fired), event (kqueue dispatch work flat as idle watches grow 100 ->
# 10000; the timing wheel firing nothing early, nothing more than one
# granule late and nothing missed, at under 1% of the every-tick scan's
# work) and file.
# Every bench run installs its cost configuration as a profile value
# (Cost.with_config); the fields a section does not vary stay at the
# paper defaults — ncpus=1 — so the SMP layer must cost nothing when off.
# A grep must find no bench, bin, example or test code assigning a
# Cost.config field or calling Cost.reset_config (test_machine's
# reset_config tests excepted), so nothing flips globals around a run
# again: a run that needs other costs passes Cost.with_config a profile.
# Nothing may read or write the three ignored Cost.config fields, kq,
# timer_wheel and pcb_hash: a grep for them must find nothing outside
# perfbench.
# The RFC header layouts live once, in lib/inet's codec, which is also
# the one place their length fields are checked before use: a grep for
# the expression that writes the TCP data-offset byte must find nothing
# outside lib/inet, so no stack, bench or test grows its own header
# writer (and, beside it, its own unchecked parser) back.
# BSD TCP keeps its per-connection bookkeeping O(1) in the number of live
# pcbs — TIME_WAIT ones included — through the hashed demux, a listener
# index, per-listener SYN_RCVD queues, per-pcb list nodes and a port use
# table: in lib/freebsd_net/tcp.ml a grep must find the full pcb list
# touched only by its push_front and is_empty and by the pcb_list
# accessor, so no segment, SYN, bind or close grows a walk over the whole
# population back.
# Last, each perfbench workload (paper_net, http_close, http_keepalive)
# runs once for about a second with its trace on, which also turns on
# perfbench's own trace-neutrality and shard checks; the run fails unless
# its result line reports "correct": true and "failed": 0.
set -eux

dune build
if grep -rnE '(Cost\.config|\bc)\.(Cost\.)?[a-z_]+ *<-|\.Cost\.[a-z_]+ *<-|Cost\.reset_config' \
  bench bin examples test | grep -v '^test/test_machine\.ml:[0-9]*: *Cost\.reset_config ();$'; then
  echo "code sets the live Cost.config instead of passing a profile" >&2
  exit 1
fi
if grep -rnE "(config|Cost)\.(kq|timer_wheel|pcb_hash)\b" lib bench bin examples test; then
  echo "ignored Cost.config field used outside perfbench" >&2
  exit 1
fi
if grep -rnE "/ 4\) lsl 4" lib bench test bin examples | grep -v '^lib/inet/'; then
  echo "TCP header written outside lib/inet's codec" >&2
  exit 1
fi
if grep -nE '\.pcbs\b|pcb_list' lib/freebsd_net/tcp.ml \
  | grep -vE 'Dlist\.(push_front|is_empty) t\.pcbs\b|:let pcb_list t = Dlist\.to_list t\.pcbs$'; then
  echo "BSD TCP walks its pcb list outside the pcb_list accessor" >&2
  exit 1
fi
dune runtest
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- alloc
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- chaos
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- sgsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- rttsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- longfatsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- overloadsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- filesmoke
if dune exec bench/main.exe -- nosuchsection; then
  echo "bench driver accepted an unknown section" >&2
  exit 1
fi
dune exec bench/main.exe -- table1 --sg --json
for section in table2 rtt http file overload smp event longfat; do
  dune exec bench/main.exe -- "$section" --json
done
git diff --exit-code BENCH_table1.json BENCH_table2.json BENCH_rtt.json \
  BENCH_http.json BENCH_file.json BENCH_overload.json BENCH_smp.json \
  BENCH_event.json BENCH_longfat.json
for workload in paper_net http_close http_keepalive; do
  last=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 \
    --trace 1 | tail -n 1)
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench $workload: $last" >&2; exit 1 ;;
  esac
done
