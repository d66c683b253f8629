type t = {
  machine : Machine.t;
  irq : int;
  baud : int;
  rx_fifo : int Queue.t;
  out_buf : Buffer.t;
  mutable peer : t option;
  mutable line_free : int; (* local time when the tx line is next idle *)
}

let create ~machine ~irq ?(baud = 115200) () =
  { machine; irq; baud; rx_fifo = Queue.create (); out_buf = Buffer.create 256;
    peer = None; line_free = 0 }

let connect a b =
  a.peer <- Some b;
  b.peer <- Some a

let bit_ns t = 1_000_000_000 / t.baud
let byte_ns t = 10 * bit_ns t (* 8N1: start + 8 data + stop *)

let deliver dst b =
  Queue.add b dst.rx_fifo;
  Machine.raise_irq dst.machine ~irq:dst.irq

let write_byte t b =
  let b = b land 0xff in
  Cost.charge Wire 20;
  match t.peer with
  | None -> Buffer.add_char t.out_buf (Char.chr b)
  | Some dst ->
      let start = max (Machine.now t.machine) t.line_free in
      let finish = start + byte_ns t in
      t.line_free <- finish;
      ignore (World.at (Machine.world t.machine) finish (fun () -> deliver dst b))

let write_string t s = String.iter (fun c -> write_byte t (Char.code c)) s
let read_byte t = Queue.take_opt t.rx_fifo
let input_pending t = Queue.length t.rx_fifo

let inject t s =
  String.iter (fun c -> Queue.add (Char.code c) t.rx_fifo) s;
  if String.length s > 0 then Machine.raise_irq t.machine ~irq:t.irq

let captured_output t = Buffer.contents t.out_buf
let clear_captured t = Buffer.clear t.out_buf
