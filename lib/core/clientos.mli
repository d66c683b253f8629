(** Client-OS assembly recipes (Section 4.5's "recipes" made executable).

    These helpers wire components into the three network configurations the
    paper's evaluation compares, on a simulated two-PC testbed:

    - {!oskit_host}: the OSKit configuration of Section 5 — Linux drivers
      under the FreeBSD protocol stack, every boundary crossed through COM
      interfaces and glue code, POSIX sockets from the minimal C library.
      The body of [oskit_host] is the paper's initialization listing,
      line for line.
    - {!freebsd_host}: monolithic FreeBSD — same encapsulated stack code,
      bound natively to an mbuf-native driver, no COM, no glue.
    - {!linux_host}: monolithic Linux — the Linux inet stack over the same
      Linux drivers, skbuffs end to end.

    All three run identical TCP wire formats, so any pair can
    interoperate. *)

(** One simulated PC plus its kernel environment. *)
type host = {
  machine : Machine.t;
  kernel : Kernel.t;
  nic : Nic.t;
}

type testbed = {
  world : World.t;
  wire : Wire.t;
  host_a : host;
  host_b : host;
}

(** Start a fresh simulation ({!reset_globals}) and build two PCs on one
    100 Mbps segment: host A ("pc-a", MAC 02:00:00:00:00:01) and host B
    ("pc-b", 02:00:00:00:00:02), each with one NIC on its bus.  Each
    machine carries its own state (bus inventory, scheduler, netisr), so
    testbeds built one after another, or alive at once, share none of it.
    [models] picks the NIC chip each "card" reports to probes (default
    ["3c905"], ["tulip"]).  [bandwidth_bps]/[latency_ns] override the wire
    (defaults 100 Mbps, 1 us) — the longfat bench stretches latency to
    emulate WAN RTTs. *)
val make_testbed :
  ?models:string * string ->
  ?ram_bytes:int ->
  ?bandwidth_bps:int ->
  ?latency_ns:int ->
  unit ->
  testbed

(** {2 Network configurations} *)

(** The OSKit configuration (paper Section 5).  Returns the POSIX
    environment with the socket factory registered, plus the underlying
    stack for diagnostics. *)
val oskit_host : host -> ip:int32 -> mask:int32 -> Posix.env * Freebsd_glue.stack

(** Monolithic FreeBSD baseline: use [Bsd_socket] calls directly on the
    returned stack. *)
val freebsd_host : host -> ip:int32 -> mask:int32 -> Bsd_socket.stack

(** Monolithic Linux baseline. *)
val linux_host : host -> ip:int32 -> mask:int32 -> Linux_inet.stack

(** [spawn host f] runs [f] as a process-level thread on the host; [cpu]
    pins it to that CPU (default: the spawning CPU). *)
val spawn : host -> ?cpu:int -> ?name:string -> (unit -> unit) -> unit

(** Run the world until [until] is true (checked between events), with a
    progress fuel bound. *)
val run : testbed -> until:(unit -> bool) -> unit

(** Reset the state the simulation's components still share process-wide:
    the registered driver table, the mbuf and skbuff buffer pools, the
    cost counters, the allocation-failure injector (re-seeded from the
    installed profile) and the RSS key (the boot seed) — not the cost
    configuration, which experiments own.  It is the one place a run is
    made a function of its profile alone: {!make_testbed} calls it, so a
    harness installs its profile first and then builds its testbed, and
    resets none of these by hand.  A harness that builds its machines
    itself calls it first. *)
val reset_globals : unit -> unit
