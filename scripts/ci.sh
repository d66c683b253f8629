#!/bin/sh
# Tier-1 gate: full build, the test suites, greps that keep removed
# designs from growing back, every bench section once, and a short run of
# each perfbench workload.
# Each of the sixteen bench sections runs once, with --json.  A section
# checks its records against the one bound table at the end of
# bench/main.ml — every gate the bench has is a row there, commented —
# and fails on any violation or on a bound that matches no record.  It
# then rewrites its committed BENCH_<section>.json and its generated
# tables in EXPERIMENTS.md (alloc, wall-clock, writes neither), and
# `git status` must find those files unchanged and nothing untracked, so
# any change to a charged cycle, a wire byte, a counter or a line count
# shows up as a reviewable diff.
# A section name the harness does not know must fail the run with exit
# status 2, so a typo or a deleted section (sgsmoke, say) cannot pass
# silently.
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
for section in table1 table2 table3 footprint vmnet alloc glue copies chaos \
  rtt http longfat overload smp event file; do
  dune exec bench/main.exe -- "$section" --json
done
if [ -n "$(git status --porcelain -- 'BENCH_*.json' EXPERIMENTS.md)" ]; then
  git status --porcelain -- 'BENCH_*.json' EXPERIMENTS.md >&2
  echo "bench records differ from the committed BENCH files or EXPERIMENTS.md" >&2
  exit 1
fi
status=0
dune exec bench/main.exe -- sgsmoke || status=$?
if [ "$status" -ne 2 ]; then
  echo "bench driver did not reject an unknown section (exit $status)" >&2
  exit 1
fi
for workload in paper_net http_close http_keepalive; do
  last=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 \
    --trace 1 | tail -n 1)
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench $workload: $last" >&2; exit 1 ;;
  esac
done
