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
# The Internet checksum is summed once too, in the same codec: a grep for
# the one's-complement fold's end-around carry must find nothing outside
# lib/inet, so no stack, bench or test grows a second checksum loop.
# BSD TCP keeps its per-connection bookkeeping O(1) in the number of live
# pcbs — TIME_WAIT ones included — through the hashed demux, a listener
# index, per-listener SYN_RCVD queues, per-pcb list nodes and a port use
# table: in lib/freebsd_net/tcp.ml a grep must find the full pcb list
# touched only by its push_front and is_empty and by the pcb_list
# accessor, so no segment, SYN, bind or close grows a walk over the whole
# population back.
# Every ttcp- or rtcp-shaped run goes through one component library,
# lib/ttcp: its endpoints (lib/ttcp/endpoint.ml) and its ttcp and rtcp
# workloads, which the example kernels call directly and the bench, the
# tests and bin/ call through the stream harness, bench/netbench.ml.  A
# grep must find so_accept, Linux_inet.accept and Posix.accept nowhere in
# bench/, bin/, lib/ttcp or the ttcp and rtcp examples outside the
# endpoint file, nor in the tests that moved onto its endpoints
# (test_http11, test_overload, test_smp, test_ports), so no second copy
# grows back beside it; the two examples must call no socket layer
# (Posix, Bsd_socket, Linux_inet) at all; and `type stack_stats` and `let
# setup config host` must be defined in the endpoint file only, in lib,
# bench, bin, examples or test.
# Every httpd a bench section or a test runs is built by the one HTTP
# harness, bench/httpbench.ml (Httpbench.serve): a grep must find no call
# of an Httpd.serve_ function in bench/, test/ or bin/ outside that file.
# The example kernels are the measured kernels: run from their defaults
# (only a pairing or a system on the command line), ttcp prints each
# paper-profile Table 1 cell (X -> FreeBSD for send, FreeBSD -> X for
# receive) and rtcp each Table 2 cell, equal to the committed BENCH cell
# at the digits the file keeps, under a header naming the cell's pairing
# and scale (blocks and block size, or trips).
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
if grep -rnF "land 0xffff) + (" lib bench test bin examples | grep -v '^lib/inet/'; then
  echo "Internet checksum folded outside lib/inet's codec" >&2
  exit 1
fi
if grep -nE '\.pcbs\b|pcb_list' lib/freebsd_net/tcp.ml \
  | grep -vE 'Dlist\.(push_front|is_empty) t\.pcbs\b|:let pcb_list t = Dlist\.to_list t\.pcbs$'; then
  echo "BSD TCP walks its pcb list outside the pcb_list accessor" >&2
  exit 1
fi
if grep -rnE 'so_accept|Linux_inet\.accept|Posix\.accept' bench bin lib/ttcp \
  examples/ttcp.ml examples/rtcp.ml test/test_http11.ml test/test_overload.ml \
  test/test_smp.ml test/test_ports.ml \
  | grep -v '^lib/ttcp/endpoint\.ml:'; then
  echo "TCP accept loop outside lib/ttcp's endpoints" >&2
  exit 1
fi
if grep -nE '(Posix|Bsd_socket|Linux_inet)\.' examples/ttcp.ml examples/rtcp.ml; then
  echo "example kernel calls a socket layer instead of lib/ttcp's endpoints" >&2
  exit 1
fi
if grep -rn 'Httpd\.serve_' bench test bin | grep -v '^bench/httpbench\.ml:'; then
  echo "httpd served outside the HTTP harness, bench/httpbench.ml" >&2
  exit 1
fi
if grep -rnE '^ *(type stack_stats\b|let setup config host\b)' lib bench bin examples test \
  | grep -v '^lib/ttcp/endpoint\.ml:'; then
  echo "endpoint or stats type defined outside lib/ttcp/endpoint.ml" >&2
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
cell() { # BENCH_FILE SYSTEM KEY: the paper-profile cell's value of KEY
  grep "\"system\": \"$2\", \"profile\": \"\"," "$1" | sed -n "s/.*\"$3\": \([0-9.]*\).*/\1/p"
}
kernel() { # WANT HEADER LABEL EXAMPLE ARGS...
  want=$1 header=$2 label=$3 exe=$4
  shift 4
  out=$("_build/default/examples/$exe.exe" "$@")
  got=$(echo "$out" | sed -n "s/^  $label: *\([0-9.]*\) .*/\1/p")
  case "$out" in
    *"$header"*) ;;
    *) got="$got, not under '$header'" ;;
  esac
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "$out" >&2
    echo "$exe $*: $label $got; the committed cell is '$want'" >&2
    exit 1
  fi
}
for system in OSKit Linux FreeBSD; do
  arg=$(echo "$system" | tr 'A-Z' 'a-z')
  # OSKit is both examples' default system: it runs with no argument.
  default=$arg
  if [ "$system" = OSKit ]; then default=""; fi
  t1=BENCH_table1.json t2=BENCH_table2.json
  scale="$(cell $t1 "$system" blocks) blocks x $(cell $t1 "$system" blocksize) bytes"
  kernel "$(cell $t1 "$system" send_mbit)" "ttcp: $system -> FreeBSD, $scale" \
    send ttcp $default
  kernel "$(cell $t1 "$system" recv_mbit)" "ttcp: FreeBSD -> $system, $scale" \
    receive ttcp freebsd "$arg"
  kernel "$(cell $t2 "$system" rtt_us)" \
    "rtcp: $system, $(cell $t2 "$system" trips) one-byte round trips" \
    "round-trip time" rtcp $default
done
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
