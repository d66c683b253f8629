type instr =
  | Push of int
  | Pop
  | Dup
  | Swap
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Eq
  | Lt
  | Gt
  | Not
  | Load of int
  | Store of int
  | Jmp of int
  | Jz of int
  | Call of int
  | Ret
  | Loadb
  | Storeb
  | Sys of int
  | Halt

let sys_putc = 0
let sys_print_int = 1
let sys_time = 2
let sys_send = 3
let sys_recv = 4
let sys_heap_size = 5

type bindings = {
  putc : char -> unit;
  send : bytes -> pos:int -> len:int -> int;
  recv : bytes -> pos:int -> len:int -> int;
  time_ns : unit -> int;
}

let null_bindings =
  { putc = (fun _ -> Error.fail Error.Notsup);
    send = (fun _ ~pos:_ ~len:_ -> Error.fail Error.Notsup);
    recv = (fun _ ~pos:_ ~len:_ -> Error.fail Error.Notsup);
    time_ns = (fun () -> 0) }

exception Vm_fault of string
exception Null_pointer of int

type t = {
  code : instr array;
  heap : bytes;
  globals : int array;
  stack : int array;
  mutable sp : int;
  rstack : int array;
  mutable rsp : int;
  bindings : bindings;
  traps : Trap.table option;
  mutable executed : int;
}

(* The null page: like Kaffe on the OSKit, we guard it with the processor's
   breakpoint machinery instead of checking every access in software. *)
let null_guard = 4096

let create ?(heap_size = 256 * 1024) ?(globals = 64) ?traps ~bindings code =
  (match traps with
  | Some table -> Trap.set_breakpoint table ~slot:0 ~addr:0l ~len:null_guard
  | None -> ());
  { code;
    heap = Bytes.make heap_size '\000';
    globals = Array.make globals 0;
    stack = Array.make 4096 0;
    sp = 0;
    rstack = Array.make 512 0;
    rsp = 0;
    bindings;
    traps;
    executed = 0 }

let heap t = t.heap
let instructions_executed t = t.executed

(* Per-instruction interpretation cost, charged in batches to keep the
   simulation fast.  20 cycles/instruction ~ a simple threaded
   interpreter on the P6. *)
let instr_cycles = 20
let charge_batch = 64

let check_heap_access t addr =
  if addr < null_guard then begin
    (match t.traps with
    | Some table -> ignore (Trap.check_access table (Int32.of_int addr))
    | None -> ());
    raise (Null_pointer addr)
  end;
  if addr >= Bytes.length t.heap then raise (Vm_fault "heap access out of range")

let run ?(fuel = 50_000_000) t =
  let push v =
    if t.sp >= Array.length t.stack then raise (Vm_fault "stack overflow");
    t.stack.(t.sp) <- v;
    t.sp <- t.sp + 1
  in
  let pop () =
    if t.sp <= 0 then raise (Vm_fault "stack underflow");
    t.sp <- t.sp - 1;
    t.stack.(t.sp)
  in
  let ncode = Array.length t.code in
  let pc = ref 0 in
  let halted = ref false in
  let remaining = ref fuel in
  let batch = ref 0 in
  while not !halted do
    if !remaining <= 0 then raise (Vm_fault "out of fuel");
    decr remaining;
    if !pc < 0 || !pc >= ncode then raise (Vm_fault "pc out of range");
    incr batch;
    if !batch >= charge_batch then begin
      Cost.charge App (instr_cycles * !batch);
      batch := 0
    end;
    t.executed <- t.executed + 1;
    let next = !pc + 1 in
    (match t.code.(!pc) with
    | Push v -> push v
    | Pop -> ignore (pop ())
    | Dup ->
        let v = pop () in
        push v;
        push v
    | Swap ->
        let a = pop () and b = pop () in
        push a;
        push b
    | Add ->
        let b = pop () and a = pop () in
        push (a + b)
    | Sub ->
        let b = pop () and a = pop () in
        push (a - b)
    | Mul ->
        let b = pop () and a = pop () in
        push (a * b)
    | Div ->
        let b = pop () and a = pop () in
        if b = 0 then raise (Vm_fault "division by zero");
        push (a / b)
    | Rem ->
        let b = pop () and a = pop () in
        if b = 0 then raise (Vm_fault "division by zero");
        push (a mod b)
    | Eq ->
        let b = pop () and a = pop () in
        push (if a = b then 1 else 0)
    | Lt ->
        let b = pop () and a = pop () in
        push (if a < b then 1 else 0)
    | Gt ->
        let b = pop () and a = pop () in
        push (if a > b then 1 else 0)
    | Not -> push (if pop () = 0 then 1 else 0)
    | Load n -> push t.globals.(n)
    | Store n -> t.globals.(n) <- pop ()
    | Jmp target -> pc := target - 1
    | Jz target -> if pop () = 0 then pc := target - 1
    | Call target ->
        if t.rsp >= Array.length t.rstack then raise (Vm_fault "call stack overflow");
        t.rstack.(t.rsp) <- next;
        t.rsp <- t.rsp + 1;
        pc := target - 1
    | Ret ->
        if t.rsp <= 0 then raise (Vm_fault "return without call");
        t.rsp <- t.rsp - 1;
        pc := t.rstack.(t.rsp) - 1
    | Loadb ->
        let addr = pop () in
        check_heap_access t addr;
        push (Char.code (Bytes.get t.heap addr))
    | Storeb ->
        let addr = pop () in
        let v = pop () in
        check_heap_access t addr;
        Bytes.set t.heap addr (Char.chr (v land 0xff))
    | Sys n ->
        if n = sys_putc then t.bindings.putc (Char.chr (pop () land 0xff))
        else if n = sys_print_int then
          String.iter t.bindings.putc (string_of_int (pop ()))
        else if n = sys_time then push (t.bindings.time_ns ())
        else if n = sys_send then begin
          let len = pop () in
          let addr = pop () in
          check_heap_access t addr;
          if addr + len > Bytes.length t.heap then raise (Vm_fault "send out of range");
          push (t.bindings.send t.heap ~pos:addr ~len)
        end
        else if n = sys_recv then begin
          let len = pop () in
          let addr = pop () in
          check_heap_access t addr;
          if addr + len > Bytes.length t.heap then raise (Vm_fault "recv out of range");
          push (t.bindings.recv t.heap ~pos:addr ~len)
        end
        else if n = sys_heap_size then push (Bytes.length t.heap)
        else raise (Vm_fault (Printf.sprintf "unknown syscall %d" n))
    | Halt -> halted := true);
    (* Jump instructions already placed pc one before their target. *)
    if not !halted then incr pc
  done;
  if t.sp > 0 then t.stack.(t.sp - 1) else 0

(* ---- bytecode encode/decode ---- *)

let opcode = function
  | Push _ -> 1
  | Pop -> 2
  | Dup -> 3
  | Swap -> 4
  | Add -> 5
  | Sub -> 6
  | Mul -> 7
  | Div -> 8
  | Rem -> 9
  | Eq -> 10
  | Lt -> 11
  | Gt -> 12
  | Not -> 13
  | Load _ -> 14
  | Store _ -> 15
  | Jmp _ -> 16
  | Jz _ -> 17
  | Call _ -> 18
  | Ret -> 19
  | Loadb -> 20
  | Storeb -> 21
  | Sys _ -> 22
  | Halt -> 23

let operand = function
  | Push v | Load v | Store v | Jmp v | Jz v | Call v | Sys v -> v
  | Pop | Dup | Swap | Add | Sub | Mul | Div | Rem | Eq | Lt | Gt | Not | Ret | Loadb
  | Storeb | Halt ->
      0

let encode code =
  let b = Bytes.create (4 + (5 * Array.length code)) in
  Bytes.set_int32_le b 0 0x4F564D31l (* "OVM1" *);
  Array.iteri
    (fun i ins ->
      Bytes.set b (4 + (5 * i)) (Char.chr (opcode ins));
      Bytes.set_int32_le b (5 + (5 * i)) (Int32.of_int (operand ins)))
    code;
  b

let decode b =
  if Bytes.length b < 4 || Bytes.get_int32_le b 0 <> 0x4F564D31l then
    Result.Error "bad bytecode magic"
  else if (Bytes.length b - 4) mod 5 <> 0 then Result.Error "truncated bytecode"
  else begin
    let n = (Bytes.length b - 4) / 5 in
    let bad = ref None in
    let code =
      Array.init n (fun i ->
          let op = Char.code (Bytes.get b (4 + (5 * i))) in
          let v = Int32.to_int (Bytes.get_int32_le b (5 + (5 * i))) in
          match op with
          | 1 -> Push v
          | 2 -> Pop
          | 3 -> Dup
          | 4 -> Swap
          | 5 -> Add
          | 6 -> Sub
          | 7 -> Mul
          | 8 -> Div
          | 9 -> Rem
          | 10 -> Eq
          | 11 -> Lt
          | 12 -> Gt
          | 13 -> Not
          | 14 -> Load v
          | 15 -> Store v
          | 16 -> Jmp v
          | 17 -> Jz v
          | 18 -> Call v
          | 19 -> Ret
          | 20 -> Loadb
          | 21 -> Storeb
          | 22 -> Sys v
          | 23 -> Halt
          | other ->
              bad := Some other;
              Halt)
    in
    match !bad with
    | Some op -> Result.Error (Printf.sprintf "unknown opcode %d" op)
    | None -> Ok code
  end

(* ---- assembler ---- *)

let assemble source =
  let lines = String.split_on_char '\n' source in
  let strip line =
    let line = match String.index_opt line ';' with Some i -> String.sub line 0 i | None -> line in
    String.trim line
  in
  let labels = Hashtbl.create 16 in
  (* First pass: record label addresses. *)
  let count = ref 0 in
  List.iter
    (fun raw ->
      let line = strip raw in
      if line <> "" then
        if String.length line > 1 && line.[String.length line - 1] = ':' then
          Hashtbl.replace labels (String.sub line 0 (String.length line - 1)) !count
        else incr count)
    lines;
  let err = ref None in
  let resolve arg =
    match int_of_string_opt arg with
    | Some v -> v
    | None -> (
        match Hashtbl.find_opt labels arg with
        | Some v -> v
        | None ->
            if !err = None then err := Some ("unknown label: " ^ arg);
            0)
  in
  let code = ref [] in
  List.iteri
    (fun lineno raw ->
      let line = strip raw in
      if line <> "" && not (String.length line > 1 && line.[String.length line - 1] = ':')
      then begin
        let parts =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
        in
        let emit ins = code := ins :: !code in
        let bad () =
          if !err = None then
            err := Some (Printf.sprintf "line %d: cannot parse %S" (lineno + 1) line)
        in
        match parts with
        | [ "push"; v ] -> emit (Push (resolve v))
        | [ "pop" ] -> emit Pop
        | [ "dup" ] -> emit Dup
        | [ "swap" ] -> emit Swap
        | [ "add" ] -> emit Add
        | [ "sub" ] -> emit Sub
        | [ "mul" ] -> emit Mul
        | [ "div" ] -> emit Div
        | [ "rem" ] -> emit Rem
        | [ "eq" ] -> emit Eq
        | [ "lt" ] -> emit Lt
        | [ "gt" ] -> emit Gt
        | [ "not" ] -> emit Not
        | [ "load"; v ] -> emit (Load (resolve v))
        | [ "store"; v ] -> emit (Store (resolve v))
        | [ "jmp"; v ] -> emit (Jmp (resolve v))
        | [ "jz"; v ] -> emit (Jz (resolve v))
        | [ "call"; v ] -> emit (Call (resolve v))
        | [ "ret" ] -> emit Ret
        | [ "loadb" ] -> emit Loadb
        | [ "storeb" ] -> emit Storeb
        | [ "sys"; v ] -> emit (Sys (resolve v))
        | [ "halt" ] -> emit Halt
        | _ -> bad ()
      end)
    lines;
  match !err with
  | Some msg -> Result.Error msg
  | None -> Ok (Array.of_list (List.rev !code))
