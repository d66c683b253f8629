(* The one shape every bench section reports in, the one emitter that
   prints and writes it, and the one evaluator for the bound table that
   gates it.

   A record is one measured cell: [cell] holds what was run (the system,
   the load, the cost profile, the workload size) and [metrics] what was
   measured.  A section's stdout table, its committed BENCH_<section>.json
   and its tables in EXPERIMENTS.md are all printed from its records by
   the code below, so they cannot disagree. *)

type value = Int of int | Float of float | Str of string

type t = { section : string; cell : (string * value) list; metrics : (string * value) list }

(* Floats print at four decimals and ints as ints, everywhere: two runs
   agree exactly when their printed values agree. *)
let to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.4f" f
  | Str s -> s

let find r key =
  match List.assoc_opt key r.cell with
  | Some v -> Some v
  | None -> List.assoc_opt key r.metrics

(* A column's printed value, "" where the record has no such key. *)
let column r key = Option.fold ~none:"" ~some:to_string (find r key)

(* ---------------- stdout ---------------- *)

(* Distinct elements, in first-seen order. *)
let dedup l = List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

(* Cell keys whose value is the same in every record print once, above
   the tables; records with the same cell keys share one table, whose
   columns are the varying cell keys and then every metric any of them
   has. *)
let print records =
  let keys r = List.map fst r.cell in
  let constant =
    match records with
    | [] -> []
    | r :: rest ->
        List.filter
          (fun (k, v) -> List.for_all (fun r' -> List.assoc_opt k r'.cell = Some v) rest)
          r.cell
  in
  if constant <> [] then
    print_endline
      (String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ to_string v) constant));
  List.iter
    (fun shape ->
      let group = List.filter (fun r -> keys r = shape) records in
      let cols =
        List.filter (fun k -> not (List.mem_assoc k constant)) shape
        @ dedup (List.concat_map (fun r -> List.map fst r.metrics) group)
      in
      let rows = List.map (fun r -> List.map (column r) cols) group in
      let widths =
        List.fold_left (List.map2 (fun w s -> max w (String.length s)))
          (List.map String.length cols) rows
      in
      let line row =
        let padded = List.map2 (fun w s -> Printf.sprintf "%*s" w s) widths row in
        print_endline (String.concat "  " padded)
      in
      print_newline ();
      line cols;
      List.iter line rows)
    (dedup (List.map keys records));
  flush stdout

(* ---------------- BENCH_<section>.json ---------------- *)

(* The repository carries no JSON library; records are flat, and [%S]
   quotes the plain ASCII keys and labels they hold as JSON does. *)
let json_fields fields =
  let json = function Str s -> Printf.sprintf "%S" s | v -> to_string v in
  let field (k, v) = Printf.sprintf "%S: %s" k (json v) in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let to_json section records =
  Printf.sprintf "{\n  \"section\": %S,\n  \"records\": [\n%s\n  ]\n}\n" section
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf "    {\"cell\": %s, \"metrics\": %s}" (json_fields r.cell)
              (json_fields r.metrics))
          records))

(* ---------------- the bound table ---------------- *)

type op = Lt | Le | Eq | Ne | Ge | Gt

(* [Times (k, overrides, m)]: [k] times metric [m] of the related record,
   the one whose cell is this record's with [overrides] applied. *)
type rhs = Const of value | Times of float * (string * value) list * string

(* (section, cell match, metric, op, rhs): every record of [section]
   whose cell has all the matched keys and values must satisfy
   [metric op rhs].  A bound that matches no record fails, so a renamed
   cell cannot pass silently. *)
type bound = string * (string * value) list * string * op * rhs

let op_name = function
  | Lt -> "<" | Le -> "<=" | Eq -> "=" | Ne -> "<>" | Ge -> ">=" | Gt -> ">"

let num = function Int n -> Some (float_of_int n) | Float f -> Some f | Str _ -> None

(* A label never compares with a number. *)
let holds op a b =
  let c =
    match a, b, num a, num b with
    | Str x, Str y, _, _ -> Some (compare x y)
    | _, _, Some x, Some y -> Some (compare x y)
    | _ -> None
  in
  match op, c with
  | _, None -> false
  | Lt, Some c -> c < 0
  | Le, Some c -> c <= 0
  | Eq, Some c -> c = 0
  | Ne, Some c -> c <> 0
  | Ge, Some c -> c >= 0
  | Gt, Some c -> c > 0

let show_cell cell =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ to_string v) cell) ^ "}"

let matches where r = List.for_all (fun (k, v) -> List.assoc_opt k r.cell = Some v) where

(* The right-hand side for record [r], or why there is none. *)
let resolve records r = function
  | Const c -> Ok (to_string c, c)
  | Times (k, overrides, m) -> (
      let cell =
        List.map
          (fun (key, v) -> key, Option.value (List.assoc_opt key overrides) ~default:v)
          r.cell
      in
      match List.find_opt (fun r' -> r'.section = r.section && r'.cell = cell) records with
      | None -> Error ("no related record " ^ show_cell cell)
      | Some r' -> (
          match Option.bind (find r' m) num with
          | None -> Error ("related record " ^ show_cell cell ^ " has no numeric " ^ m)
          | Some v ->
              Ok (Printf.sprintf "%g x %s %s of %s" k m (to_string (Float v)) (show_cell cell),
                  Float (k *. v))))

(* Every violation of [bounds] by [records], one message each, naming the
   section, the cell, the metric, both sides' values and the operator. *)
let violations (bounds : bound list) records =
  List.concat_map
    (fun (section, where, metric, op, rhs) ->
      let rows = List.filter (fun r -> r.section = section && matches where r) records in
      if rows = [] then
        [ Printf.sprintf "%s %s: bound on %s matches no record" section (show_cell where)
            metric ]
      else
        List.filter_map
          (fun r ->
            let at = Printf.sprintf "%s %s: %s" section (show_cell r.cell) metric in
            match find r metric, resolve records r rhs with
            | None, _ -> Some (at ^ " is not measured")
            | _, Error why -> Some (at ^ ": " ^ why)
            | Some lhs, Ok (shown, v) ->
                if holds op lhs v then None
                else
                  Some
                    (Printf.sprintf "%s %s %s %s fails" at (to_string lhs) (op_name op) shown))
          rows)
    bounds

(* ---------------- EXPERIMENTS.md blocks ---------------- *)

(* A generated table sits between
     <!-- bench:SECTION key=value ... | column column ... -->
   and <!-- /bench -->: the rows are SECTION's records whose printed
   values match every key=value, the columns are the named cell keys and
   metrics. *)
let markdown spec records =
  let filter, cols =
    match String.split_on_char '|' spec with
    | [ filter; cols ] -> filter, cols
    | _ -> failwith ("Record: bench block needs one '|' before its columns: " ^ spec)
  in
  let words s = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s)) in
  let filter =
    List.map
      (fun w ->
        match String.index_opt w '=' with
        | Some i -> String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1)
        | None -> failwith ("Record: bench block filter is not key=value: " ^ w))
      (words filter)
  and cols = words cols in
  let rows =
    List.filter
      (fun r -> List.for_all (fun (k, s) -> Option.map to_string (find r k) = Some s) filter)
      records
  in
  if rows = [] then failwith ("Record: bench block matches no record: " ^ spec);
  let line cells = "| " ^ String.concat " | " cells ^ " |" in
  line cols
  :: line (List.map (fun _ -> "---") cols)
  :: List.map (fun r -> line (List.map (column r) cols)) rows

(* [rewrite section records doc] regenerates every block of [doc] that
   names [section], leaving everything else as it was. *)
let rewrite section records doc =
  let opening = "<!-- bench:" ^ section ^ " " and closing = "<!-- /bench -->" in
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest when String.starts_with ~prefix:opening l && String.ends_with ~suffix:" -->" l ->
        let n = String.length opening in
        let spec = String.sub l n (String.length l - n - 4) in
        let rec skip = function
          | [] -> failwith ("Record: unterminated bench block: " ^ l)
          | c :: rest when c = closing -> rest
          | _ :: rest -> skip rest
        in
        go (closing :: List.rev_append (markdown spec records) (l :: acc)) (skip rest)
    | l :: rest -> go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' doc))
