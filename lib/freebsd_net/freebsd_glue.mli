(** GLUE — exports the encapsulated FreeBSD networking as OSKit COM
    components (Section 5).

    [init] is the paper's [oskit_freebsd_net_init]: it builds a stack
    instance and returns the socket-factory COM interface to register with
    the C library.  [open_ether_if] is [oskit_freebsd_net_open_ether_if]:
    it binds the stack to any [etherdev] — in the paper's headline
    configuration, a Linux driver — by exchanging [netio] callbacks.
    [ifconfig] completes the listing in Section 5.

    Buffer translation (Section 4.7.3): outbound mbuf chains are exported
    as [bufio] objects whose [map] succeeds only when the chain is a single
    contiguous run — multi-mbuf chains force the receiving component to
    copy (Table 1's send-path copy).  Inbound [bufio]s that map are wrapped
    as external-storage mbufs without copying (Table 1's receive-path
    parity with native FreeBSD). *)

type stack = Bsd_socket.stack

(** Build a stack for one machine.  [hwaddr] is used until a device is
    bound (it is replaced by the device's address at [open_ether_if]). *)
val init : Machine.t -> stack

(** Returns the socket factory to hand to
    [Posix.set_socket_factory]. *)
val socket_factory : stack -> Io_if.socket_factory

(** Bind the stack to an Ethernet device via COM netio exchange. *)
val open_ether_if : stack -> Io_if.etherdev -> (unit, Error.t) result

val ifconfig : stack -> addr:int32 -> mask:int32 -> unit

(** Export an mbuf chain as bufio (for tests and ablations). *)
val bufio_of_mbuf : Mbuf.mbuf -> Io_if.bufio

(** Import a bufio as an mbuf chain; snd of result is true if a copy was
    needed.  [cache] memoises the recognition-query verdict for one
    producer binding ({!Recognition}). *)
val mbuf_of_bufio : ?cache:Recognition.t -> Io_if.bufio -> Mbuf.mbuf * bool

(** Wrap one already-connected TCP pcb wrapper as a COM socket (used by the
    factory for [accept]). *)
val socket_com : stack -> Bsd_socket.tsock -> Io_if.socket
