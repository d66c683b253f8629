(* Socket-buffer autotuning (Cost.config.tcp_autotune), shared by both TCP
   stacks.  [rcv] and [snd] take the current buffer size and return the
   size to use from here, capped at [sockbuf_max]. *)

(* The ceiling for autotuned socket buffers and the basis for the wscale
   each stack requests: 2 MB covers the 100 Mbit x 50 ms = 625 KB
   bandwidth-delay product of the longfat bench's worst path, with room
   for jumbo-frame rounding. *)
let sockbuf_max = 2 * 1024 * 1024

(* The window scale both stacks ask for on SYN: the smallest shift that
   makes the largest buffer autotuning could reach representable in the
   16-bit window field. *)
let request_scale () =
  let rec go s = if s < 14 && 0xffff lsl s < sockbuf_max then go (s + 1) else s in
  go 0

let grow buf =
  if buf < sockbuf_max then min sockbuf_max (2 * buf) else buf

(* Receive side, the clump detector.  Arrivals come in clumps of at most
   one window, separated by RTT-scale gaps when the flow is window-limited;
   a clump that covered most of the buffer means our advertised window was
   the limiter, so double it.  A path-limited flow arrives smoothly — no
   gaps, no growth.  Neither stack's coarse RTT estimate can size buffers
   at millisecond RTTs, so the RTT is inferred structurally instead. *)
type clump = {
  mutable ts : int; (* ns of the last in-order arrival; 0 = idle *)
  mutable bytes : int;
}

let clump () = { ts = 0; bytes = 0 }
let gap_ns = 2_000_000

let rcv c machine ~dlen ~buf =
  if not Cost.config.tcp_autotune then buf
  else begin
    let now = Machine.now machine in
    let buf =
      if c.ts > 0 && now - c.ts > gap_ns then begin
        let full = c.bytes * 2 >= buf in
        c.bytes <- 0;
        if full then grow buf else buf
      end
      else buf
    in
    c.ts <- now;
    c.bytes <- c.bytes + dlen;
    buf
  end

(* Send side: when the network (peer window x cwnd, [net]) can carry more
   than we can buffer, the buffer is the limiter — double it. *)
let snd ~net ~buf = if Cost.config.tcp_autotune && 2 * net >= buf then grow buf else buf
