(* Receive-side scaling: a keyed, direction-symmetric hash of the IP
   4-tuple, used to steer every frame of a flow to one fixed CPU.

   Symmetry matters: the server's (laddr, lport, raddr, rport) is the
   client's tuple reversed, and retransmissions, ACKs, and the app's
   replies must all land on the same protocol shard.  We feed the mixer
   only order-independent combinations (xor and sum) of the two endpoints,
   so swapping them cannot change the hash — the Toeplitz-with-symmetric-
   key trick, without carrying the Toeplitz matrix around.

   The secret is seeded, not random: a reboot with the same seed steers
   every tuple identically, which the deterministic replays (and the
   committed benches) rely on. *)

let default_seed = 0x5eed

(* SplitMix64's finalizer.  Inlined wherever it is used, its Int64
   values stay unboxed: a hash allocates nothing. *)
let[@inline always] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let derive seed = mix (Int64.logxor (Int64.of_int seed) 0x5851F42D4C957F2DL)

let secret = ref (derive default_seed)
let reboot ?(seed = default_seed) () = secret := derive seed

let[@inline always] step h k = mix (Int64.add (Int64.logxor h (Int64.of_int k)) 0x9E3779B97F4A7C15L)

(* The hash of addresses given as unsigned 32-bit ints. *)
let hash ~proto ~a ~port_a ~b ~port_b =
  let h = !secret in
  let h = step h proto in
  let h = step h (a lxor b) in
  let h = step h (a + b) in
  let h = step h ((port_a lxor port_b) lor ((port_a + port_b) lsl 17)) in
  Int64.to_int (Int64.shift_right_logical h 2)

let flow_hash ~proto ~addr_a ~port_a ~addr_b ~port_b =
  hash ~proto ~a:(Int32.to_int addr_a land 0xffffffff) ~port_a
    ~b:(Int32.to_int addr_b land 0xffffffff) ~port_b

let cpu_of_hash ~ncpus h = if ncpus <= 1 then 0 else h mod ncpus

let cpu_of_flow ~ncpus ~proto ~addr_a ~port_a ~addr_b ~port_b =
  cpu_of_hash ~ncpus (flow_hash ~proto ~addr_a ~port_a ~addr_b ~port_b)

(* ---- steering straight off the wire ---- *)

let u8 f off = Char.code (Bytes.get f off)
let u16 f off = (u8 f off lsl 8) lor u8 f (off + 1)
let u32 f off = (u16 f off lsl 16) lor u16 f (off + 2)

(* [cpu_of_frame ~ncpus frame] parses an Ethernet frame just far enough to
   steer it: TCP/UDP over IPv4 hashes its 4-tuple; everything else — ARP,
   ICMP, IP fragments (later fragments carry no ports), runts — goes to
   CPU 0, the default protocol CPU.  Pure computation, no cycle charge: a
   real NIC computes RSS in hardware as the frame DMAs in. *)
let cpu_of_frame ~ncpus frame =
  if ncpus <= 1 then 0
  else
    let len = Bytes.length frame in
    if len < 34 || u16 frame 12 <> 0x0800 then 0
    else
      let ihl = u8 frame 14 land 0xf in
      let proto = u8 frame (14 + 9) in
      let frag = u16 frame (14 + 6) in
      let l4 = 14 + (ihl * 4) in
      if
        (proto <> 6 && proto <> 17)
        || frag land 0x3fff <> 0 (* MF or nonzero offset *)
        || len < l4 + 4
      then 0
      else
        cpu_of_hash ~ncpus
          (hash ~proto ~a:(u32 frame (14 + 12)) ~port_a:(u16 frame l4) ~b:(u32 frame (14 + 16))
             ~port_b:(u16 frame (l4 + 2)))
