(* One host of the two-PC testbed, set up in any of the three system
   configurations the paper's evaluation compares (they interoperate on
   the wire), behind one connection interface.  The ttcp and rtcp
   workloads (Workload), the bench harnesses and the network tests all
   reach TCP through it, so every configuration runs the same way. *)

type config = Oskit | Freebsd | Linux

let config_name = function Oskit -> "OSKit" | Freebsd -> "FreeBSD" | Linux -> "Linux"

let config_of_string = function
  | "oskit" -> Oskit
  | "freebsd" -> Freebsd
  | "linux" -> Linux
  | s -> invalid_arg ("unknown configuration " ^ s ^ " (oskit|freebsd|linux)")

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

(* The testbed's two addresses: host A is 10.0.0.1, host B 10.0.0.2. *)
let addr_a = ip "10.0.0.1"
let addr_b = ip "10.0.0.2"

(* Every workload listens on one port with a backlog of 2. *)
let port = 5001

let ok = function
  | Ok v -> v
  | Error e -> failwith ("endpoint: " ^ Error.to_string e)

(* Position-dependent payload so delivery is provably byte-exact: any
   duplicated, reordered, or corrupted byte that leaks through TCP lands at
   the wrong position and is caught at the receiver. *)
let pattern pos = (pos * 131) lxor (pos lsr 8) land 0xff

(* The native stack under an endpoint (the OSKit configuration's is the
   FreeBSD stack behind its COM glue), and a connection's native socket
   (under the OSKit configuration, a POSIX descriptor). *)
type stack = Bsd of Bsd_socket.stack | Lx of Linux_inet.stack
type sock = Bsd_sock of Bsd_socket.tsock | Lx_sock of Linux_inet.sock | Fd of int

type conn = {
  send : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  recv : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  close : unit -> unit;
  nodelay : unit -> unit;  (* set TCP_NODELAY: a short write need not wait for an ACK *)
  sock : sock;
}

(* [listen ~port ~backlog] binds and listens, and returns the accept call
   for that socket; [connect] makes a fresh socket and connects it.  Both
   run inside a thread of [host]. *)
type t = {
  host : Clientos.host;
  stack : stack;
  listen : port:int -> backlog:int -> unit -> (conn, Error.t) result;
  connect : dst:int32 -> port:int -> (conn, Error.t) result;
}

let setup config host ~addr =
  match config with
  | Oskit ->
      let env, stack = Clientos.oskit_host host ~ip:addr ~mask in
      (* An accepted descriptor closes; a connected one shuts down, as
         ttcp does. *)
      let conn fd close =
        { send = (fun ~buf ~pos ~len -> Posix.send env fd buf ~pos ~len);
          recv = (fun ~buf ~pos ~len -> Posix.recv env fd buf ~pos ~len);
          close = (fun () -> ignore (close env fd));
          nodelay = (fun () -> ok (Posix.setsockopt env fd "nodelay" 1));
          sock = Fd fd }
      in
      let listen ~port ~backlog =
        let fd = ok (Posix.socket env Io_if.Sock_stream) in
        ok (Posix.bind env fd { Io_if.sin_addr = addr; sin_port = port });
        ok (Posix.listen env fd ~backlog);
        fun () -> Result.map (fun (c, _) -> conn c Posix.close) (Posix.accept env fd)
      in
      let connect ~dst ~port =
        let fd = ok (Posix.socket env Io_if.Sock_stream) in
        Posix.connect env fd { Io_if.sin_addr = dst; sin_port = port }
        |> Result.map (fun () -> conn fd Posix.shutdown)
      in
      { host; stack = Bsd stack; listen; connect }
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:addr ~mask in
      let conn s =
        { send = Bsd_socket.so_send s;
          recv = Bsd_socket.so_recv s;
          close = (fun () -> ignore (Bsd_socket.so_close s));
          nodelay = (fun () -> Bsd_socket.so_set_nodelay s true);
          sock = Bsd_sock s }
      in
      let listen ~port ~backlog =
        let ls = Bsd_socket.tcp_socket stack in
        ok (Bsd_socket.so_bind ls ~port);
        ok (Bsd_socket.so_listen ls ~backlog);
        fun () -> Result.map conn (Bsd_socket.so_accept ls)
      in
      let connect ~dst ~port =
        let s = Bsd_socket.tcp_socket stack in
        Result.map (fun () -> conn s) (Bsd_socket.so_connect s ~dst ~dport:port)
      in
      { host; stack = Bsd stack; listen; connect }
  | Linux ->
      let stack = Clientos.linux_host host ~ip:addr ~mask in
      let conn s =
        { send = Linux_inet.send stack s;
          recv = Linux_inet.recv stack s;
          close = (fun () -> Linux_inet.close stack s);
          nodelay = (fun () -> Linux_inet.set_nodelay s true);
          sock = Lx_sock s }
      in
      let listen ~port ~backlog =
        let ls = Linux_inet.socket stack in
        Linux_inet.bind stack ls ~port;
        Linux_inet.listen stack ls ~backlog;
        fun () -> Result.map conn (Linux_inet.accept stack ls)
      in
      let connect ~dst ~port =
        let s = Linux_inet.socket stack in
        Result.map (fun () -> conn s) (Linux_inet.connect stack s ~dst ~dport:port)
      in
      { host; stack = Lx stack; listen; connect }

(* A workload's two endpoints: [a] on host A, [b] on host B (set up
   first). *)
let pair (tb : Clientos.testbed) ~a ~b =
  let b = setup b tb.Clientos.host_b ~addr:addr_b in
  (setup a tb.Clientos.host_a ~addr:addr_a, b)

(* A stack's protocol counters, read when called: retransmissions prove
   loss was real; checksum and duplicate drops prove the receiver
   discarded what netem damaged or repeated. *)
type stack_stats = {
  rexmits : int;         (* data retransmissions *)
  badsum : int;          (* IP + TCP checksum drops *)
  dups : int;            (* duplicate-segment drops *)
  nomem_drops : int;     (* dropped for want of a buffer: segments, frames, driver refusals *)
  persist_probes : int;  (* zero-window probes (the Linux stack's persist timer) *)
}

let stats = function
  | Bsd st ->
      let s = st.Bsd_socket.tcp.Tcp.stats and ip = st.Bsd_socket.ip in
      { rexmits = s.Tcp.sndrexmitpack + s.Tcp.fastrexmit;
        badsum = ip.Ip.badsum + s.Tcp.rcvbadsum;
        dups = s.Tcp.rcvdup;
        nomem_drops = s.Tcp.nomem_drops + ip.Ip.nomem_drops + st.Bsd_socket.ifp.Netif.if_onomem;
        persist_probes = 0 }
  | Lx st ->
      { rexmits = st.Linux_inet.rexmits;
        badsum = st.Linux_inet.ipbadsum + st.Linux_inet.tcpbadsum;
        dups = st.Linux_inet.rcvdup;
        nomem_drops = st.Linux_inet.nomem_drops;
        persist_probes = st.Linux_inet.persist_probes }

(* A connection's receive buffer (0 under the OSKit configuration). *)
let rcv_buf = function
  | Bsd_sock s -> s.Bsd_socket.pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat
  | Lx_sock s -> s.Linux_inet.rcv_buf_max
  | Fd _ -> 0
