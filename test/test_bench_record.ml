(* The bench's record emitter and bound evaluator (bench/record.ml): the
   gates every bench section is checked against. *)

open Record

let r ?(section = "s") cell metrics = { section; cell; metrics }

(* Two CPU counts at two client loads: a relational bound must pair each
   4-CPU row with the 1-CPU row at its own load. *)
let smp =
  [ r [ "clients", Int 256; "ncpus", Int 1 ] [ "rps", Float 100.0 ];
    r [ "clients", Int 256; "ncpus", Int 4 ] [ "rps", Float 350.0 ];
    r [ "clients", Int 1024; "ncpus", Int 1 ] [ "rps", Float 200.0 ];
    r [ "clients", Int 1024; "ncpus", Int 4 ] [ "rps", Float 500.0 ] ]

let speedup k : bound = "s", [ "ncpus", Int 4 ], "rps", Ge, Times (k, [ "ncpus", Int 1 ], "rps")

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_no_match_fails () =
  let vs = violations [ "s", [ "ncpus", Int 16 ], "rps", Gt, Const (Int 0) ] smp in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  Alcotest.(check bool) "says so" true (contains (List.hd vs) "matches no record");
  Alcotest.(check int) "other sections' records do not count" 1
    (List.length (violations [ "t", [], "rps", Gt, Const (Int 0) ] smp))

let test_relational_pairs_own_cell () =
  (* 350/100 = 3.5 and 500/200 = 2.5: a 3x bound fails only at 1024, so
     each row was compared with its own load's 1-CPU rate. *)
  let vs = violations [ speedup 3.0 ] smp in
  Alcotest.(check int) "only the 1024 row fails" 1 (List.length vs);
  Alcotest.(check bool) "the 1024 row" true (contains (List.hd vs) "clients=1024");
  Alcotest.(check (list string)) "2.5x holds everywhere" [] (violations [ speedup 2.5 ] smp);
  let missing = violations [ "s", [], "rps", Ge, Times (1.0, [ "ncpus", Int 2 ], "rps") ] smp in
  Alcotest.(check int) "no related cell fails every row" 4 (List.length missing)

let test_violation_message () =
  match violations [ speedup 3.0 ] smp with
  | [ v ] ->
      List.iter
        (fun part -> Alcotest.(check bool) part true (contains v part))
        [ "s {clients=1024, ncpus=4}"; "rps"; "500.0000"; "200.0000"; ">="; "3 x" ]
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_const_and_labels () =
  let rows = [ r [ "k", Str "a" ] [ "byte_exact", Str "no"; "n", Int 3 ] ] in
  Alcotest.(check int) "label mismatch" 1
    (List.length (violations [ "s", [], "byte_exact", Eq, Const (Str "yes") ] rows));
  Alcotest.(check (list string)) "int against float" []
    (violations [ "s", [], "n", Lt, Const (Float 3.5) ] rows);
  Alcotest.(check int) "unmeasured metric fails" 1
    (List.length (violations [ "s", [], "absent", Eq, Const (Int 0) ] rows))

(* The emitter prints floats at %.4f and ints as ints; re-reading what it
   printed and printing again gives the same text. *)
let test_emitter_round_trips () =
  let values = [ Float 67.93814; Float 0.0; Float 1e6; Int 17745944; Int (-3); Int 0 ] in
  List.iter
    (fun v ->
      let s = to_string v in
      let again =
        match v with
        | Int _ -> to_string (Int (int_of_string s))
        | _ -> to_string (Float (float_of_string s))
      in
      Alcotest.(check string) s s again)
    values;
  Alcotest.(check string) "%.4f" "67.9381" (to_string (Float 67.93814));
  Alcotest.(check string) "ints stay ints" "17745944" (to_string (Int 17745944));
  let json =
    to_json "s" [ r [ "system", Str "OSKit" ] [ "send_mbit", Float 67.93814; "n", Int 7 ] ]
  in
  Alcotest.(check bool) "json carries the printed values" true
    (contains json {|{"cell": {"system": "OSKit"}, "metrics": {"send_mbit": 67.9381, "n": 7}}|})

let test_rewrite_blocks () =
  let doc =
    "intro\n<!-- bench:s ncpus=4 | clients rps -->\nstale\n<!-- /bench -->\n\
     <!-- bench:other | x -->\nkept\n<!-- /bench -->\n"
  in
  Alcotest.(check string) "only this section's block, filtered"
    "intro\n<!-- bench:s ncpus=4 | clients rps -->\n| clients | rps |\n| --- | --- |\n\
     | 256 | 350.0000 |\n| 1024 | 500.0000 |\n<!-- /bench -->\n\
     <!-- bench:other | x -->\nkept\n<!-- /bench -->\n"
    (rewrite "s" smp doc)

let suite =
  [ Alcotest.test_case "bound matching no record fails" `Quick test_no_match_fails;
    Alcotest.test_case "relational bound pairs its own cell" `Quick test_relational_pairs_own_cell;
    Alcotest.test_case "violation names cell, metric, values, op" `Quick test_violation_message;
    Alcotest.test_case "constants, labels, unmeasured metrics" `Quick test_const_and_labels;
    Alcotest.test_case "emitter round-trips values" `Quick test_emitter_round_trips;
    Alcotest.test_case "EXPERIMENTS blocks regenerate" `Quick test_rewrite_blocks ]
