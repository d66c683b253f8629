(* ENCAPSULATED LEGACY CODE — FreeBSD 2.x character drivers (sio.c for the
 * 16550 serial ports, a syscons-style console), reduced to the tty core
 * the paper's eight imported drivers share: an input queue filled at
 * interrupt level (the donor's clists), blocking reads at process level
 * via the emulated sleep/wakeup, and optional canonical echoing on the
 * console.  Because of Section 4.7.2's symbol-prefix discipline these
 * live behind their own module namespace; the donor's `wakeup' here is
 * the FDEV_FREEBSD_wakeup of the paper, spelled as a module path.
 *)

let clist_limit = 256 (* donor TTYHOG-ish input limit *)

type tty = {
  t_name : string;
  t_model : string;
  hw : Serial.t;
  t_canq : int Queue.t; (* input clist *)
  t_rsel : Sleep_record.t; (* reader sleeping on input *)
  mutable t_echo : bool;
  mutable t_overflows : int;
  mutable opened : bool;
}

let supported_models =
  [ "sio-16550"; "sio-16450"; "cyclades"; "digiboard"; "rocketport"; "syscons"; "pcvt";
    "stallion" ]

let rint tty () =
  (* Receive interrupt: drain the UART FIFO into the clist. *)
  let rec drain () =
    match Serial.read_byte tty.hw with
    | None -> ()
    | Some c ->
        if Queue.length tty.t_canq >= clist_limit then tty.t_overflows <- tty.t_overflows + 1
        else begin
          Queue.add c tty.t_canq;
          if tty.t_echo then Serial.write_byte tty.hw c
        end;
        Sleep_record.wakeup tty.t_rsel;
        drain ()
  in
  drain ()

(* A probe names the ports it finds on its machine tty0, tty1, ... in bus
   order. *)
let probe_ttys osenv =
  Bus.hardware (Osenv.machine osenv)
  |> List.filter_map (function
       | Bus.Hw_serial { model; serial } when List.mem model supported_models ->
           Some (model, serial)
       | Bus.Hw_serial _ | Bus.Hw_nic _ | Bus.Hw_disk _ -> None)
  |> List.mapi (fun i (model, serial) ->
         { t_name = "tty" ^ string_of_int i;
           t_model = model;
           hw = serial;
           t_canq = Queue.create ();
           t_rsel = Sleep_record.create ~name:"ttyin" ();
           t_echo = false;
           t_overflows = 0;
           opened = false })

let tty_open osenv tty =
  if not tty.opened then begin
    match Osenv.irq_request osenv ~irq:4 ~handler:(rint tty) with
    | Ok () -> tty.opened <- true
    | Error _ ->
        (* Line already claimed (several ports share IRQ4 on the PC):
           chain off polling via a timeout, as the donor's shared-IRQ
           fallback does. *)
        let rec poll () =
          rint tty ();
          ignore (Osenv.timeout osenv ~ns:1_000_000 poll)
        in
        tty.opened <- true;
        poll ()
  end

(* Blocking read: at least one byte. *)
let tty_read tty ~buf ~pos ~amount =
  let rec take n =
    if n >= amount then n
    else
      match Queue.take_opt tty.t_canq with
      | Some c ->
          Bytes.set buf (pos + n) (Char.chr c);
          take (n + 1)
      | None -> n
  in
  let rec wait () =
    let n = take 0 in
    if n > 0 then n
    else begin
      Sleep_record.sleep tty.t_rsel;
      wait ()
    end
  in
  if amount = 0 then 0 else wait ()

let tty_write tty ~buf ~pos ~amount =
  Cost.charge Driver (50 * amount) (* donor's per-char output path *);
  for i = 0 to amount - 1 do
    Serial.write_byte tty.hw (Char.code (Bytes.get buf (pos + i)))
  done;
  amount
