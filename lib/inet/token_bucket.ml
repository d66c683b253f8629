(* Token bucket on generated error responses — a TCP RST answering a
   segment no connection claims, a UDP port unreachable — so a scan
   cannot turn a stack into a packet amplifier.  Depth and refill rate are
   Cost.config.icmp_ratelimit per second; 0 = unlimited, the donor
   behaviour.  Each stack owns its own buckets and counts what they
   refuse. *)

type t = { machine : Machine.t; mutable tokens : float; mutable ts : int }

(* Starts full, at the rate configured when the stack is built. *)
let create machine = { machine; tokens = float_of_int Cost.config.icmp_ratelimit; ts = 0 }

let allow b =
  let rate = Cost.config.icmp_ratelimit in
  rate = 0
  || begin
       let now = Machine.now b.machine in
       let elapsed = now - b.ts in
       b.ts <- now;
       b.tokens <-
         Float.min (float_of_int rate)
           (b.tokens +. (float_of_int rate *. float_of_int elapsed /. 1e9));
       b.tokens >= 1.0
       && begin
            b.tokens <- b.tokens -. 1.0;
            true
          end
     end
