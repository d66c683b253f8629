#!/bin/sh
# Tier-1 gate: full build, the test suites, greps that keep removed
# designs from growing back, every bench section once, and a short run of
# each perfbench workload.
# Each of the sixteen bench sections runs once, with --json.  A section
# checks its records against the one bound table at the end of
# bench/main.ml — every gate the bench has is a row there, commented —
# and fails on any violation or on a bound that matches no record.  It
# then rewrites its committed BENCH_<section>.json and its generated
# tables in EXPERIMENTS.md, and `git status` must find those files
# unchanged and nothing untracked, so any change to a charged cycle, a
# wire byte, a counter, an LMM node visited or a line count shows up as a
# reviewable diff.
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
# Both TCP stacks keep their connections in one table, lib/inet's
# Conn_table, which keeps the bookkeeping O(1) in the number of live
# connections — TIME_WAIT ones included — through the hashed demux, a
# listener index, per-listener accept and SYN_RCVD queues, per-connection
# list nodes and a port use table.  In lib/inet/conn_table.ml a grep must
# find the full connection list touched only by its push_front and
# is_empty and by the to_list accessor, and in the two stacks' TCP files
# that accessor called only by BSD's pcb_list, so no segment, SYN, bind or
# close grows a walk over the whole population back.  Neither TCP file
# may keep a socks list, test the CPU count (the accept lock's one-CPU
# rule lives in the table), or file a connection in the demux hash, the
# port table or the TIME_WAIT queue itself (Demux.add, Port_alloc.use,
# Tw_queue.add): only the table does.  A connection entering TIME_WAIT
# is swapped for a compact record (Tw_queue.tw), and the table alone
# files, queues, expires and releases those records, as it files
# everything else: neither TCP file may call the queue's add, remove,
# expire or reclaim or mark a record queued (tw_queued).
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
# A simulation's state lives on its machines (Machine.key), never in a
# table keyed by a machine's name: every testbed names its hosts "pc-a"
# and "pc-b", so such a table cross-wires two testbeds.  A grep must find
# Machine.name nowhere in lib/ outside lib/machine.  Clientos.make_testbed
# starts every simulation, and its reset_globals is the one owner of the
# state runs still share (driver table, buffer pools, counters, the
# allocation-failure injector re-seeded from the installed profile, the
# RSS key), so a run is a function of its profile alone.  A grep must find
# no call of reset_globals or Bus.clear, and no hand reset of those
# globals (Memfault.reset, Rss.reboot, Mbuf.pool_reset,
# Skbuff.pool_reset), in bench/, test/, bin/ or examples/; only the unit
# tests of RSS and of the pools themselves, test/test_smp.ml and
# test/test_kalloc.ml, may reset them.  Nor may code outside lib/ build a
# FreeBSD stack by hand (Bsd_socket.create_stack, Native_if.attach): a
# two-host rig is make_testbed and Clientos.freebsd_host.
# The example kernels are the measured kernels: run from their defaults
# (only a pairing or a system on the command line), ttcp prints each
# paper-profile Table 1 cell (X -> FreeBSD for send, FreeBSD -> X for
# receive) and rtcp each Table 2 cell, equal to the committed BENCH cell
# at the digits the file keeps, under a header naming the cell's pairing
# and scale (blocks and block size, or trips).
# A setting is a parameter of one path, not a switch between two: the
# two NIC drivers keep one receive loop at any CPU count (the netisr
# dispatches a frame in place when it is on its home CPU, as every frame
# is at one CPU), so a grep must find no `ncpus <= 1` or `ncpus > 1` test
# in lib/linux_dev/linux_eth_drv.ml or lib/freebsd_net/native_if.ml; and
# BSD TCP retires a dead connection's socket buffers whatever the
# sendfile knob says, so a grep must find no read of it in
# lib/freebsd_net/tcp.ml.
# The event core keeps only what its two clients run: the reactor adds
# level-triggered knotes and re-arms them itself, and BSD TCP arms its
# tick wheels at most 128 ticks ahead.  So a grep must find no kqueue
# edge or one-shot mode and no oskit_kqueue COM face (ev_oneshot,
# ev_clear, kqueue_iid, kqueue_view) in lib, bench, test, bin or
# examples, and no cascade in lib/event, so neither the unused modes nor
# the multi-level wheel grows back without a client.
# A readiness registration passes through one listener list on its
# source (Io_if.Listeners, shared by both stacks and every synthetic
# source) and one knote the reactor's watch owns, which carries the watch
# back to dispatch.  So a grep must find no per-stack listener record or
# id counter (ready_listener, next_lid), no reactor table of watches by
# id (by_id) and no separate kqueue module (Kqueue.) in lib, bench, test,
# bin or examples, so no second id table grows back beside them.
# A frame has one path each way between the card and the stack: a netio
# has one push, which takes a burst (a lone frame is a burst of one), the
# Linux driver has one upcall, an ifnet one driver entry, a card one ring
# model (a card without RSS has one queue), and every driver drains a
# queue with one loop, Netisr.rx_drain, which pops a budget of frames at
# a time and slices each chunk by home CPU: an interrupt drains with a
# budget of 1, the Linux driver's NAPI poll with rx_batch.  So a grep
# must find no vectored second path, per-queue pop, driver poll loop or
# driver-side slicing (push_v, netif_rx_v, set_vectored_xmit, pop_rx_q,
# napi_drain, group_by_cpu, Nic.pop_rx) in lib, bench, test, bin,
# examples or perfbench, no call in lib of the one pop
# (Nic.pop_rx_burst) outside lib/smp/netisr.ml, and `let rec rx_drain`
# defined in no more than one file under lib.
# A buffer-cache miss on a device that keeps its blocks in memory maps
# the block instead of copying it, and there is one such path: the buffer
# cache asks the device's block-mapping face (Io_if.blkmap), and the RAM
# disk gives a handed-out page fresh bytes before writing it
# (copy-on-write).  So a grep must find bm_map called nowhere but
# lib/netbsd_fs/buf.ml (io_if.ml declares it, mem_blkio.ml defines it)
# and Physmem.unshare nowhere but lib/fdev/mem_blkio.ml, so no second
# mapping path grows back beside them.
# Every charged cycle names its layer (Cost.charge), and a CPU's busy
# time is the sum of its ledger row.  So a grep must find no untagged
# charge (charge_cycles, or charge_ns outside lib/machine/cost.ml), no
# has_sink guard and no knob-zeroing debug_costs tool in lib, bench,
# test, bin or examples.
# A setting with one value in use is a constant, and a guard is its own
# bound: every limit is on when positive and off at 0, with no boolean
# switch above it (httpd_header_deadline_ns, httpd_max_header_bytes and
# httpd_shed_hiwat, like tw_max, icmp_ratelimit and
# http_max_reqs_per_conn).  So a grep must find none of the folded
# settings (httpd_guard, syncache_size, http_idle_timeout_ns), the test
# hook on the charge path (set_sink) or the hand-kept length of the Linux
# retransmission queue (rexmt_q_len) in lib, bench, test, bin or
# examples.
# Last, each perfbench workload (paper_net, http_close, http_keepalive)
# runs once for about a second with its trace on, which also turns on
# perfbench's own trace-neutrality and shard checks; the run fails unless
# its result line reports "correct": true and "failed": 0.  The same
# result lines gate who pays the glue: http_close serves from a native
# FreeBSD kernel, which crosses no glue, so its
# fdev.glue_crossings_per_pkt must be exactly 0; http_keepalive serves
# from the OSKit configuration, so its must be above 0, and under the
# batched glue each tcp_output's frames cross as one burst, and the
# httpd hands a pipelined burst of sendfile replies to the socket in one
# sendv call with no re-cork, so it must also stay below 0.36 (about
# 0.29; handing each reply over in a call of its own, re-corked behind
# each queued reply, gives about 0.40, and one crossing per transmitted
# frame about 0.9).  They also gate
# the checksum memo: http_keepalive resends cached file blocks by
# sendfile, and a block's bytes are summed once while the file holds the
# block, evicted from the cache or not, so its
# cost.cksum_bytes_per_payload_byte must stay below 1.35 (summing every
# sent byte again, with the client's verification, gives about 2.1, and a
# memo that died with its buffer about 1.48).  They gate the file
# system's device I/O too: a buffer-cache miss maps the RAM disk's page
# instead of copying the block, it reads a file's last direct block only
# as far as the file's last fragment and writes a block out as soon as a
# write fills it, so http_keepalive's cost.copy_bytes_per_payload_byte
# must stay below 1.10 (about 1.02 at one second; copying every missed
# block gives about 1.37-1.38, and also reading every block whole and
# flushing the blocks file creation left dirty inside the run 1.43-1.46).
# And they gate the cork:
# the httpd corks its listener (TCP_NOPUSH), so each http_close reply
# leaves with its FIN and the request costs 8 frames on the wire, where
# a reply that sends its FIN apart costs 9: machine.frames_per_op must
# stay below 8.5.  And they gate the segment rules: each TCP sender sends
# a short segment only as its donor's Nagle and silly-window test allows,
# so paper_net's bulk transfers leave in full segments and its
# machine.frames_per_op must stay below 4.35 (about 4.23; 4.46 with the
# BSD senders' rule alone, 4.71 with neither).
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
if grep -nE '\.all\b|to_list' lib/inet/conn_table.ml \
  | grep -vE 'Dlist\.(push_front|is_empty) t\.all\b|:let to_list t = Dlist\.to_list t\.all$'; then
  echo "the connection table walks its list outside the to_list accessor" >&2
  exit 1
fi
if grep -nE 'pcb_list|to_list' lib/freebsd_net/tcp.ml lib/linux_net/linux_inet.ml \
  | grep -vE '^lib/freebsd_net/tcp\.ml:[0-9]+:let pcb_list t = Conn_table\.to_list t\.conns$'; then
  echo "a TCP stack walks its connection list outside the pcb_list accessor" >&2
  exit 1
fi
if grep -nE '\bsocks *:|\.socks\b|ncpus( [a-z_.]+)? *(<|>|=)|Demux\.add|Port_alloc\.use|Tw_queue\.(add|remove|expire|reclaim)\b|tw_queued *(=|<-)' \
  lib/freebsd_net/tcp.ml lib/linux_net/linux_inet.ml; then
  echo "a TCP stack keeps connection bookkeeping beside lib/inet's Conn_table" >&2
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
if grep -rn 'Machine\.name\b' lib | grep -v '^lib/machine/'; then
  echo "machine name used outside lib/machine: keep per-machine state on the machine" >&2
  exit 1
fi
if grep -rnE 'reset_globals|Bus\.clear' bench test bin examples \
  || grep -rnE 'Memfault\.reset|Rss\.reboot|(Mbuf|Skbuff)\.pool_reset' bench test bin examples \
  | grep -vE '^test/test_(smp|kalloc)\.ml:' \
  || grep -rnE 'Bsd_socket\.create_stack|Native_if\.attach' bench test bin examples; then
  echo "simulation reset or FreeBSD stack built outside Clientos.make_testbed" >&2
  exit 1
fi
if grep -nE 'ncpus( [a-z_]+)? *(<= *1|> *1)' lib/linux_dev/linux_eth_drv.ml \
  lib/freebsd_net/native_if.ml; then
  echo "a NIC driver forks its receive loop on the CPU count" >&2
  exit 1
fi
if grep -nE '\.(Cost\.)?sendfile\b' lib/freebsd_net/tcp.ml; then
  echo "BSD TCP reads the sendfile knob" >&2
  exit 1
fi
if grep -rnE 'ev_oneshot|ev_clear|kqueue_iid|kqueue_view' lib bench test bin examples \
  || grep -rn 'cascade' lib/event; then
  echo "a removed event-core design grew back: a kqueue mode, its COM face or a wheel cascade" >&2
  exit 1
fi
if grep -rnE 'ready_listener|next_lid|by_id|Kqueue\.' lib bench test bin examples; then
  echo "a readiness id table grew back beside the shared listener list and the reactor's knotes" >&2
  exit 1
fi
if grep -rnE 'push_v|netif_rx_v|set_vectored_xmit|pop_rx_q|napi_drain|group_by_cpu|Nic\.pop_rx\b' \
  lib bench test bin examples perfbench \
  || grep -rn 'Nic\.pop_rx_burst' lib | grep -v '^lib/smp/netisr\.ml:' \
  || [ "$(grep -rl 'let rec rx_drain' lib | wc -l)" -gt 1 ]; then
  echo "a second frame path grew back beside the one push, upcall, driver entry and drain loop" >&2
  exit 1
fi
if grep -rnE 'charge_cycles|has_sink|debug_costs' lib bench test bin examples \
  || grep -rn 'charge_ns' lib bench test bin examples | grep -v '^lib/machine/cost\.ml:'; then
  echo "a charge without a layer, or the knob-zeroing tool, grew back" >&2
  exit 1
fi
if grep -rn 'bm_map' lib bench test bin examples perfbench \
  | grep -vE '^lib/netbsd_fs/buf\.ml:|^lib/com/io_if\.ml:|^lib/fdev/mem_blkio\.ml:[0-9]+:.* bm_map = ' \
  || grep -rn 'Physmem\.unshare' lib bench test bin examples perfbench \
  | grep -v '^lib/fdev/mem_blkio\.ml:'; then
  echo "a second block-mapping path grew back beside the buffer cache's" >&2
  exit 1
fi
if grep -rnE '\b(httpd_guard|syncache_size|http_idle_timeout_ns|set_sink|rexmt_q_len)\b' \
  lib bench test bin examples; then
  echo "a folded switch, one-value setting, charge hook or hand-kept length grew back" >&2
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
gate() { # NAME WANT: fail unless per-layer metric NAME of $last satisfies WANT of v
  v=$(echo "$last" | sed -n "s/.*\"$1\": {\"value\": \([-+.0-9eE]*\),.*/\1/p")
  if [ -z "$v" ] || ! awk -v v="$v" "BEGIN { exit !($2) }"; then
    echo "perfbench $workload: $1 '$v', want $2" >&2
    exit 1
  fi
}
for workload in paper_net http_close http_keepalive; do
  last=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 \
    --trace 1 | tail -n 1)
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench $workload: $last" >&2; exit 1 ;;
  esac
  case "$workload" in
    paper_net)
      gate 'machine\.frames_per_op' 'v < 4.35'
      ;;
    http_close)
      gate 'fdev\.glue_crossings_per_pkt' 'v == 0'
      gate 'machine\.frames_per_op' 'v < 8.5'
      ;;
    http_keepalive)
      gate 'fdev\.glue_crossings_per_pkt' 'v > 0 && v < 0.36'
      gate 'cost\.cksum_bytes_per_payload_byte' 'v < 1.35'
      gate 'cost\.copy_bytes_per_payload_byte' 'v < 1.10'
      ;;
  esac
done
