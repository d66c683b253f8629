type trapno =
  | T_divide
  | T_debug
  | T_breakpoint
  | T_overflow
  | T_bounds
  | T_invalid_opcode
  | T_no_device
  | T_double_fault
  | T_gpf
  | T_page_fault
  | T_alignment

let numbering =
  [ T_divide, 0; T_debug, 1; T_breakpoint, 3; T_overflow, 4; T_bounds, 5;
    T_invalid_opcode, 6; T_no_device, 7; T_double_fault, 8; T_gpf, 13;
    T_page_fault, 14; T_alignment, 17 ]

let trapno_to_int t = List.assoc t numbering
let trapno_of_int n = List.find_map (fun (t, i) -> if i = n then Some t else None) numbering

type frame = {
  mutable eax : int32;
  mutable ebx : int32;
  mutable ecx : int32;
  mutable edx : int32;
  mutable esi : int32;
  mutable edi : int32;
  mutable ebp : int32;
  mutable esp : int32;
  mutable eip : int32;
  mutable eflags : int32;
  mutable cr2 : int32;
  mutable err : int32;
  trapno : trapno;
}

let make_frame ?(eip = 0l) ?(cr2 = 0l) ?(err = 0l) trapno =
  { eax = 0l; ebx = 0l; ecx = 0l; edx = 0l; esi = 0l; edi = 0l; ebp = 0l;
    esp = 0l; eip; eflags = 0x202l; cr2; err; trapno }

type breakpoint = { addr : int32; len : int }

type table = {
  machine : Machine.t;
  handlers : (trapno, frame -> [ `Handled | `Unhandled ]) Hashtbl.t;
  mutable panic_log : frame list;
  breakpoints : breakpoint option array;
}

let create machine =
  { machine; handlers = Hashtbl.create 16; panic_log = []; breakpoints = Array.make 4 None }

let set_handler t trapno f = Hashtbl.replace t.handlers trapno f
let clear_handler t trapno = Hashtbl.remove t.handlers trapno

let deliver t frame =
  Cost.charge Irq Cost.config.irq_entry_cycles;
  let fallthrough () =
    t.panic_log <- t.panic_log @ [ frame ];
    `Panic
  in
  match Hashtbl.find_opt t.handlers frame.trapno with
  | Some f -> ( match f frame with `Handled -> `Handled | `Unhandled -> fallthrough ())
  | None -> fallthrough ()

let panics t = t.panic_log

let set_breakpoint t ~slot ~addr ~len =
  if slot < 0 || slot > 3 then invalid_arg "Trap.set_breakpoint: slot";
  t.breakpoints.(slot) <- Some { addr; len }

let clear_breakpoint t ~slot =
  if slot < 0 || slot > 3 then invalid_arg "Trap.clear_breakpoint: slot";
  t.breakpoints.(slot) <- None

let covers bp a =
  let lo = Int32.to_int bp.addr land 0xffffffff in
  let x = Int32.to_int a land 0xffffffff in
  x >= lo && x < lo + bp.len

let check_access t addr =
  let hit = Array.exists (function Some bp -> covers bp addr | None -> false) t.breakpoints in
  if not hit then `Ok
  else begin
    let frame = make_frame ~cr2:addr T_debug in
    `Trapped (deliver t frame)
  end
