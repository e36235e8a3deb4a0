(** Tests of the mini-C frontend: lexer, parser, semantic analysis,
    unrolling, and circuit generation (validated by simulation). *)

open Minic
open Helpers

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks src = Lexer.tokenize src

let test_lexer_basics () =
  (match toks "for (int i = 0; i < 10; i++) { }" with
  | Lexer.[
      KW_for; LPAREN; KW_int; IDENT "i"; ASSIGN; INT 0; SEMI; IDENT "i"; LT;
      INT 10; SEMI; IDENT "i"; PLUSPLUS; RPAREN; LBRACE; RBRACE; EOF;
    ] ->
      ()
  | _ -> Alcotest.fail "token stream mismatch");
  checki "count" 5 (List.length (toks "a += 1.5;"))

let test_lexer_floats () =
  (match toks "0.5 2.0 1e3" with
  | Lexer.[ FLOAT a; FLOAT b; FLOAT c; EOF ] ->
      checkb "0.5" (a = 0.5);
      checkb "2.0" (b = 2.0);
      checkb "1e3" (c = 1000.0)
  | _ -> Alcotest.fail "float stream mismatch")

let test_lexer_comments () =
  checki "line comment" 2 (List.length (toks "x // the rest vanishes\n"));
  checki "block comment" 3 (List.length (toks "a /* zap */ b"))

(* Token positions from the lexer's one walk equal [Frontend.loc_of_pos]
   at every token offset: on the 11 kernel sources, and on Table 1's
   gesummv x75 printed back to source (160 lines, 3,242 tokens). *)
let test_lexer_positions () =
  let check_source name src =
    let expected =
      List.map
        (fun (t, start) -> (t, Frontend.loc_of_pos src start))
        (Lexer.tokenize_offsets src)
    in
    if Lexer.tokenize_located src <> expected then
      Alcotest.failf "%s: a token position differs from loc_of_pos" name
  in
  List.iter
    (fun (b : Kernels.Registry.bench) -> check_source b.name b.source)
    Kernels.Registry.all;
  let _, x75 = Kernels.Registry.gesummv_unrolled ~n:75 ~factor:75 in
  check_source "gesummv x75" (Print.to_string x75)

let test_lexer_two_char_ops () =
  (match toks "<= >= == != && || ++ += -= *=" with
  | Lexer.[ LE; GE; EQEQ; NEQ; ANDAND; OROR; PLUSPLUS; PLUSEQ; MINUSEQ; STAREQ; EOF ]
    ->
      ()
  | _ -> Alcotest.fail "operator stream mismatch")

let test_lexer_errors () =
  (try
     ignore (toks "a $ b");
     Alcotest.fail "no error"
   with Frontend.Error e ->
     checkb "lex phase" (e.Frontend.phase = Frontend.Lex);
     check Alcotest.(option string) "offending token" (Some "$") e.Frontend.token);
  try
    ignore (toks "/* unterminated");
    Alcotest.fail "no error"
  with Frontend.Error e -> checkb "lex phase" (e.Frontend.phase = Frontend.Lex)

let test_located_errors () =
  (* Errors carry 1-based line/column of the offending token. *)
  (try
     ignore (toks "ok;\n  ?");
     Alcotest.fail "lexer accepted '?'"
   with Frontend.Error e ->
     check
       Alcotest.(option (pair int int))
       "lexer loc" (Some (2, 3))
       (Option.map (fun l -> (l.Frontend.line, l.Frontend.column)) e.Frontend.loc));
  try
    ignore (Parser.parse_kernel "void f() {\n  int x = ;\n}");
    Alcotest.fail "parser accepted 'int x = ;'"
  with Frontend.Error e ->
    checkb "parse phase" (e.Frontend.phase = Frontend.Parse);
    check Alcotest.(option string) "parse token" (Some ";") e.Frontend.token;
    check
      Alcotest.(option (pair int int))
      "parser loc" (Some (2, 11))
      (Option.map (fun l -> (l.Frontend.line, l.Frontend.column)) e.Frontend.loc)

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse src = Parser.parse_kernel src

let test_parser_kernel_shape () =
  let k = parse "void f(float a[4], int b) { }" in
  check Alcotest.string "name" "f" k.Ast.k_name;
  checki "params" 2 (List.length k.Ast.k_params);
  (match k.Ast.k_params with
  | [ a; b ] ->
      check Alcotest.(list int) "dims" [ 4 ] a.Ast.p_dims;
      check Alcotest.(list int) "scalar" [] b.Ast.p_dims
  | _ -> Alcotest.fail "params")

let test_parser_precedence () =
  let k = parse "void f() { int x = 1 + 2 * 3; }" in
  match k.Ast.k_body with
  | [ Ast.Decl (_, _, Some (Ast.Bin (Ast.Add, Ast.Int_lit 1, Ast.Bin (Ast.Mul, _, _)))) ]
    ->
      ()
  | _ -> Alcotest.fail "precedence"

let test_parser_compound_assign () =
  let k = parse "void f(float a[2]) { a[0] += 1.0; }" in
  match k.Ast.k_body with
  | [ Ast.Assign (Ast.Lv_index ("a", _), Ast.Bin (Ast.Add, Ast.Index ("a", _), _)) ]
    ->
      ()
  | _ -> Alcotest.fail "+= expansion"

let test_parser_loop_forms () =
  let k = parse "void f() { for (i = 2; i <= 9; i += 3) { } }" in
  match k.Ast.k_body with
  | [ Ast.For f ] ->
      checkb "init" (f.Ast.init = Ast.Int_lit 2);
      checkb "cmp" (f.Ast.cmp = Ast.Cmp_le);
      checki "step" 3 f.Ast.step
  | _ -> Alcotest.fail "loop"

let test_parser_if_else () =
  let k = parse "void f() { int x = 0; if (x < 1) { x = 1; } else { x = 2; } }" in
  match k.Ast.k_body with
  | [ _; Ast.If (_, [ _ ], [ _ ]) ] -> ()
  | _ -> Alcotest.fail "if/else"

let test_parser_errors () =
  let bad src =
    try
      ignore (parse src);
      Alcotest.failf "parsed bad input: %s" src
    with Frontend.Error _ -> ()
  in
  bad "void f() { for (i = 0; j < 3; i++) { } }";  (* wrong cond var *)
  bad "void f() { x 5; }";
  bad "void f(float a[n]) { }";                    (* non-constant dim *)
  bad "void f() { } trailing"

(* ------------------------------------------------------------------ *)
(* Sema *)

let check_src src = Sema.check (parse src)

let test_sema_accepts () =
  ignore
    (check_src
       {|void f(float a[4][4], float y[4]) {
           float alpha = 1.5;
           for (int i = 0; i < 4; i++) {
             float s = 0.0;
             for (int j = 0; j < 4; j++) { s += a[i][j] * alpha; }
             y[i] = s;
           }
         }|})

let test_sema_rejects () =
  let bad msg src =
    try
      ignore (check_src src);
      Alcotest.failf "sema accepted %s" msg
    with Frontend.Error e -> checkb msg (e.Frontend.phase = Frontend.Sema)
  in
  bad "undeclared" "void f() { x = 1; }";
  bad "redeclaration" "void f() { int x = 0; float x = 1.0; }";
  bad "array as scalar" "void f(float a[2]) { a = 1.0; }";
  bad "dim mismatch" "void f(float a[2][2]) { a[0] = 1.0; }";
  bad "float index" "void f(float a[2]) { a[0.5] = 1.0; }";
  bad "bool arith" "void f() { int x = (1 < 2) + 3; }";
  bad "if condition" "void f() { if (3) { } }";
  bad "float to int" "void f() { int x = 1.5; }";
  bad "loop shadows" "void f() { int i = 0; for (int i = 0; i < 2; i++) { } }";
  bad "zero step" "void f() { for (int i = 0; i < 2; i += 0) { } }"

let test_sema_promotion () =
  (* int expressions may initialize floats and mix into float arith. *)
  ignore (check_src "void f() { float x = 1; float y = x * 2; }")

(* ------------------------------------------------------------------ *)
(* Unrolling *)

let test_unroll_full () =
  let k = parse "void f(float a[6]) { for (int i = 0; i < 6; i++) { a[i] = 1.0; } }" in
  let k' = Unroll.unroll_innermost ~factor:6 k in
  checki "six copies, no loop" 6 (List.length k'.Ast.k_body);
  checkb "no For remains"
    (List.for_all (function Ast.For _ -> false | _ -> true) k'.Ast.k_body)

let test_unroll_partial () =
  let k = parse "void f(float a[6]) { for (int i = 0; i < 6; i++) { a[i] = 1.0; } }" in
  let k' = Unroll.unroll_innermost ~factor:2 k in
  match k'.Ast.k_body with
  | [ Ast.For f ] ->
      checki "widened step" 2 f.Ast.step;
      checki "two copies" 2 (List.length f.Ast.body)
  | _ -> Alcotest.fail "partial unroll shape"

let test_unroll_rejects () =
  let k = parse "void f(float a[5]) { for (int i = 0; i < 5; i++) { a[i] = 1.0; } }" in
  (try
     ignore (Unroll.unroll_innermost ~factor:2 k);
     Alcotest.fail "accepted non-dividing factor"
   with Unroll.Error _ -> ());
  let k =
    parse "void f(float a[4]) { for (int i = 0; i < 4; i++) { float t = 1.0; a[i] = t; } }"
  in
  try
    ignore (Unroll.unroll_innermost ~factor:4 k);
    Alcotest.fail "accepted body with locals"
  with Unroll.Error _ -> ()

let test_unroll_preserves_semantics () =
  (* Unrolled gesummv computes the same values as the rolled version. *)
  let bench, ast = Kernels.Registry.gesummv_unrolled ~n:10 ~factor:5 in
  let c = Minic.Codegen.compile ast in
  let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
  checkb "unrolled matches reference" v.Kernels.Harness.functionally_correct

(* ------------------------------------------------------------------ *)
(* Codegen + simulation of small programs *)

let simulate_source ?strategy src ~mems =
  let c = compile ?strategy src in
  let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
  List.iter (fun (name, data) -> Sim.Memory.set_floats memory name data) mems;
  let out = run_ok ~memory c.Minic.Codegen.graph in
  (c, memory, out)

let test_codegen_sum_loop () =
  let src =
    {|void f(float a[8], float out[1]) {
        float s = 0.0;
        for (int i = 0; i < 8; i++) { s += a[i]; }
        out[0] = s;
      }|}
  in
  let data = Array.init 8 (fun i -> float_of_int i *. 0.5) in
  let _, memory, _ = simulate_source src ~mems:[ ("a", data) ] in
  let want = Array.fold_left ( +. ) 0.0 data in
  checkb "sum" (Float.abs ((Sim.Memory.get_floats memory "out").(0) -. want) < 1e-9)

let test_codegen_nested_loops () =
  let src =
    {|void f(float a[3][4], float out[1]) {
        float s = 0.0;
        for (int i = 0; i < 3; i++) {
          for (int j = 0; j < 4; j++) { s += a[i][j]; }
        }
        out[0] = s;
      }|}
  in
  let data = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let c, memory, _ = simulate_source src ~mems:[ ("a", data) ] in
  checkb "sum 1..12" ((Sim.Memory.get_floats memory "out").(0) = 78.0);
  checki "two loops" 2 (List.length c.Minic.Codegen.all_loops);
  check Alcotest.(list int) "inner loop critical" [ 1 ]
    c.Minic.Codegen.critical_loops

let test_codegen_triangular_loop () =
  let src =
    {|void f(int out[1]) {
        int s = 0;
        for (int i = 0; i < 5; i++) {
          for (int j = 0; j <= i; j++) { s = s + 1; }
        }
        out[0] = s;
      }|}
  in
  let _, memory, _ = simulate_source src ~mems:[] in
  checkb "1+2+3+4+5" ((Sim.Memory.get_floats memory "out").(0) = 15.0)

let test_codegen_conditional () =
  let src =
    {|void f(float a[8], float out[1]) {
        float pos = 0.0;
        float neg = 0.0;
        for (int i = 0; i < 8; i++) {
          float d = a[i];
          if (d >= 0.0) { pos += d; } else { neg += d; }
        }
        out[0] = pos - neg;
      }|}
  in
  let data = [| 1.0; -2.0; 3.0; -4.0; 5.0; -6.0; 7.0; -8.0 |] in
  let c, memory, _ = simulate_source src ~mems:[ ("a", data) ] in
  checkb "pos - neg = 36" ((Sim.Memory.get_floats memory "out").(0) = 36.0);
  checkb "conditional BBs recorded" (c.Minic.Codegen.conditional_bbs <> [])

let test_codegen_zero_trip_loop () =
  let src =
    {|void f(float out[1]) {
        float s = 5.0;
        for (int i = 0; i < 0; i++) { s += 1.0; }
        out[0] = s;
      }|}
  in
  let _, memory, _ = simulate_source src ~mems:[] in
  checkb "body never ran" ((Sim.Memory.get_floats memory "out").(0) = 5.0)

let test_codegen_neg_and_not () =
  let src =
    {|void f(float out[2]) {
        float x = -1.5;
        out[0] = -x;
        int c = 0;
        if (!(x > 0.0)) { c = 1; }
        out[1] = c;
      }|}
  in
  let _, memory, _ = simulate_source src ~mems:[] in
  let out = Sim.Memory.get_floats memory "out" in
  checkb "neg" (out.(0) = 1.5);
  checkb "not" (out.(1) = 1.0)

let test_codegen_strategies_agree () =
  let src = Kernels.Registry.gsum.Kernels.Registry.source in
  let run strategy =
    let c = compile ~strategy src in
    let v = Kernels.Harness.run_circuit Kernels.Registry.gsum c.Minic.Codegen.graph in
    checkb "correct" v.Kernels.Harness.functionally_correct;
    v.Kernels.Harness.cycles
  in
  let bb = run Minic.Codegen.Bb_ordered in
  let fast = run Minic.Codegen.Fast_token in
  checkb "fast token is no slower" (fast <= bb)

let test_codegen_bb_tags () =
  let c = compile Kernels.Registry.atax.Kernels.Registry.source in
  let has_bb = ref false in
  Dataflow.Graph.iter_units c.Minic.Codegen.graph (fun u ->
      if u.Dataflow.Graph.bb >= 0 then has_bb := true);
  checkb "BB-ordered circuits carry bb tags" !has_bb;
  let c' =
    compile ~strategy:Minic.Codegen.Fast_token
      Kernels.Registry.atax.Kernels.Registry.source
  in
  Dataflow.Graph.iter_units c'.Minic.Codegen.graph (fun u ->
      checkb "fast-token has no bb tags" (u.Dataflow.Graph.bb = -1))

let test_codegen_rejects_scalar_params () =
  try
    ignore (compile "void f(float x) { }");
    Alcotest.fail "accepted scalar parameter"
  with Frontend.Error e -> checkb "codegen phase" (e.Frontend.phase = Frontend.Codegen)

let suite =
  [
    ("lexer: basics", `Quick, test_lexer_basics);
    ("lexer: floats", `Quick, test_lexer_floats);
    ("lexer: comments", `Quick, test_lexer_comments);
    ("lexer: two-char ops", `Quick, test_lexer_two_char_ops);
    ("lexer: errors", `Quick, test_lexer_errors);
    ("frontend: located errors", `Quick, test_located_errors);
    ("parser: kernel shape", `Quick, test_parser_kernel_shape);
    ("parser: precedence", `Quick, test_parser_precedence);
    ("parser: compound assign", `Quick, test_parser_compound_assign);
    ("parser: loop forms", `Quick, test_parser_loop_forms);
    ("parser: if/else", `Quick, test_parser_if_else);
    ("parser: errors", `Quick, test_parser_errors);
    ("sema: accepts", `Quick, test_sema_accepts);
    ("sema: rejects", `Quick, test_sema_rejects);
    ("sema: promotion", `Quick, test_sema_promotion);
    ("unroll: full", `Quick, test_unroll_full);
    ("unroll: partial", `Quick, test_unroll_partial);
    ("unroll: rejects", `Quick, test_unroll_rejects);
    ("unroll: semantics", `Quick, test_unroll_preserves_semantics);
    ("codegen: sum loop", `Quick, test_codegen_sum_loop);
    ("codegen: nested loops", `Quick, test_codegen_nested_loops);
    ("codegen: triangular loop", `Quick, test_codegen_triangular_loop);
    ("codegen: conditional", `Quick, test_codegen_conditional);
    ("codegen: zero-trip loop", `Quick, test_codegen_zero_trip_loop);
    ("codegen: neg/not", `Quick, test_codegen_neg_and_not);
    ("codegen: strategies agree", `Quick, test_codegen_strategies_agree);
    ("codegen: bb tags", `Quick, test_codegen_bb_tags);
    ("codegen: scalar params", `Quick, test_codegen_rejects_scalar_params);
    ("lexer: positions = loc_of_pos", `Quick, test_lexer_positions);
  ]
