(** Property-based tests (qcheck): generated expressions, kernels,
    buffer chains and timed graphs, checked against independent models. *)

open Dataflow
open Dataflow.Types
open Helpers

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_coeff =
  QCheck2.Gen.map
    (fun i -> float_of_int i /. 8.0)
    (QCheck2.Gen.int_range (-16) 16)

(* Random arithmetic expression over two variables, with an OCaml
   evaluator; division is excluded (float division by generated values
   would demand care for no extra coverage). *)
type exp =
  | Lit of float
  | Var_a
  | Var_b
  | Add of exp * exp
  | Sub of exp * exp
  | Mul of exp * exp

let gen_exp =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof [ map (fun c -> Lit c) gen_coeff; return Var_a; return Var_b ]
        else
          frequency
            [
              (1, map (fun c -> Lit c) gen_coeff);
              (1, return Var_a);
              (1, return Var_b);
              (2, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2)));
            ]))

let rec eval_exp ~a ~b = function
  | Lit c -> c
  | Var_a -> a
  | Var_b -> b
  | Add (x, y) -> eval_exp ~a ~b x +. eval_exp ~a ~b y
  | Sub (x, y) -> eval_exp ~a ~b x -. eval_exp ~a ~b y
  | Mul (x, y) -> eval_exp ~a ~b x *. eval_exp ~a ~b y

let rec exp_to_c = function
  | Lit c -> Fmt.str "(0.0 + %h)" c |> fun _ -> Fmt.str "(%.6f)" c
  | Var_a -> "va"
  | Var_b -> "vb"
  | Add (x, y) -> Fmt.str "(%s + %s)" (exp_to_c x) (exp_to_c y)
  | Sub (x, y) -> Fmt.str "(%s - %s)" (exp_to_c x) (exp_to_c y)
  | Mul (x, y) -> Fmt.str "(%s * %s)" (exp_to_c x) (exp_to_c y)

(* Generated expression trees are evaluated identically on both sides,
   so equal NaNs and infinities (from multiplicative blowup) count as
   agreement. *)
let close a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b)
     <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Properties *)

(* 1. Compiled straight-line expressions match the OCaml evaluator. *)
let prop_expression_compiles =
  qtest ~count:60 "compiled expression = evaluated expression"
    QCheck2.Gen.(triple gen_exp gen_coeff gen_coeff)
    (fun (e, a, b) ->
      let src =
        Fmt.str
          {|void f(float x[2], float out[1]) {
              float va = x[0];
              float vb = x[1];
              out[0] = %s;
            }|}
          (exp_to_c e)
      in
      let c = compile src in
      let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
      Sim.Memory.set_floats memory "x" [| a; b |];
      let out = Sim.Engine.run ~memory c.Minic.Codegen.graph in
      Sim.Engine.is_completed out
      && close (Sim.Memory.get_floats memory "out").(0) (eval_exp ~a ~b e))

(* 2. A generated reduction loop matches its OCaml model. *)
let prop_reduction_loop =
  qtest ~count:30 "reduction loop = OCaml fold"
    QCheck2.Gen.(triple (int_range 1 24) gen_coeff gen_coeff)
    (fun (n, c1, c2) ->
      let src =
        Fmt.str
          {|void f(float x[%d], float out[1]) {
              float s = 0.0;
              for (int i = 0; i < %d; i++) {
                s += x[i] * (%.6f) + (%.6f);
              }
              out[0] = s;
            }|}
          n n c1 c2
      in
      let rng = Kernels.Data.create (n + 17) in
      let data = Kernels.Data.signed_array rng n in
      let compiled = compile src in
      let memory = Sim.Memory.of_graph compiled.Minic.Codegen.graph in
      Sim.Memory.set_floats memory "x" data;
      let out = Sim.Engine.run ~memory compiled.Minic.Codegen.graph in
      let want = Array.fold_left (fun s x -> s +. ((x *. c1) +. c2)) 0.0 data in
      Sim.Engine.is_completed out
      && close (Sim.Memory.get_floats memory "out").(0) want)

(* 3. Token streams survive arbitrary buffer chains in order. *)
let gen_buffer_chain =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (pair bool (int_range 1 4)))

let prop_buffer_chain_fifo =
  qtest ~count:60 "buffer chains preserve order and count" gen_buffer_chain
    (fun chain ->
      let n = 10 in
      let g =
        int_stream ~n (fun b i ->
            Builder.declare_memory b "m" n;
            let w =
              List.fold_left
                (fun w (transparent, slots) ->
                  if transparent then Builder.slack b w slots ~loop:0
                  else Builder.reg b w ~slots:(max 2 slots) ~loop:0)
                i chain
            in
            ignore (Builder.store b ~memory:"m" w w ~loop:0))
      in
      let memory = Sim.Memory.of_graph g in
      let out = Sim.Engine.run ~memory g in
      Sim.Engine.is_completed out
      && begin
           let got = Sim.Memory.get_floats memory "m" in
           Array.for_all (fun x -> x >= 0.0) got
           && Array.to_list got = List.init n float_of_int
         end)

(* 4. Max cycle ratio of a single generated ring is sum(lat)/sum(tok).
   A ring with neither latency nor tokens still is a cycle: the search
   finds no positive cycle at any ratio and bottoms out near 0. *)
let gen_ring =
  QCheck2.Gen.(
    list_size (int_range 2 8) (pair (int_range 0 9) (int_range 0 2)))

let prop_cycle_ratio_ring =
  qtest ~count:100 "cycle ratio of a ring = lat/tok"
    ~print:
      QCheck2.Print.(list (fun (l, t) -> Printf.sprintf "lat %d tok %d" l t))
    gen_ring (fun spec ->
      let n = List.length spec in
      let tokens_total = List.fold_left (fun a (_, t) -> a + t) 0 spec in
      let lat_total = List.fold_left (fun a (l, _) -> a + l) 0 spec in
      let edges =
        List.mapi
          (fun i (latency, tokens) ->
            { Analysis.Timed_graph.src = i; dst = (i + 1) mod n; latency; tokens })
          spec
      in
      match Analysis.Cycle_ratio.compute edges with
      | Analysis.Cycle_ratio.Unbounded -> tokens_total = 0 && lat_total > 0
      | Analysis.Cycle_ratio.Ratio r when tokens_total = 0 ->
          lat_total = 0 && r <= 1e-4
      | Analysis.Cycle_ratio.Ratio r ->
          Float.abs (r -. (float_of_int lat_total /. float_of_int tokens_total))
          < 0.01
      | Analysis.Cycle_ratio.Acyclic -> false)

(* 5. The LCG stays in range and is deterministic per seed. *)
let prop_lcg =
  qtest ~count:100 "LCG in [0,1) and deterministic" QCheck2.Gen.int
    (fun seed ->
      let a = Kernels.Data.create seed and b = Kernels.Data.create seed in
      List.for_all
        (fun _ ->
          let x = Kernels.Data.next a and y = Kernels.Data.next b in
          x = y && x >= 0.0 && x < 1.0000001)
        (List.init 20 Fun.id))

(* 6. value_close is reflexive on generated payloads. *)
let gen_value =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun i -> VInt i) small_int;
              map (fun f -> VFloat f) (float_bound_inclusive 1e6);
              map (fun b -> VBool b) bool;
              return VUnit;
            ]
        else
          frequency
            [
              (3, self 0);
              (1, map (fun vs -> VTuple vs) (list_size (int_range 0 3) (self 0)));
            ]))

let prop_value_close_refl =
  qtest ~count:200 "value_close reflexive" gen_value (fun v -> value_close v v)

(* 7. CRUSH preserves the results of generated accumulation kernels. *)
let prop_crush_preserves_random_kernels =
  qtest ~count:15 "CRUSH preserves generated kernels"
    QCheck2.Gen.(pair (int_range 2 5) (list_size (return 4) gen_coeff))
    (fun (terms, coeffs) ->
      let n = 12 in
      let body =
        String.concat "\n"
          (List.mapi
             (fun k c ->
               Fmt.str "s += x[i] * (%.6f) + (%.6f);" c (float_of_int k /. 4.0))
             (List.filteri (fun i _ -> i < terms) (coeffs @ [ 0.5; 0.25; 0.125 ])))
      in
      let src =
        Fmt.str
          {|void f(float x[%d], float out[1]) {
              float s = 0.0;
              for (int i = 0; i < %d; i++) { %s }
              out[0] = s;
            }|}
          n n body
      in
      let rng = Kernels.Data.create terms in
      let data = Kernels.Data.signed_array rng n in
      let run share =
        let c = compile src in
        if share then
          ignore
            (Crush.Share.crush c.Minic.Codegen.graph
               ~critical_loops:c.Minic.Codegen.critical_loops);
        let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
        Sim.Memory.set_floats memory "x" data;
        let out = Sim.Engine.run ~memory c.Minic.Codegen.graph in
        (Sim.Engine.is_completed out, (Sim.Memory.get_floats memory "out").(0))
      in
      let ok0, v0 = run false in
      let ok1, v1 = run true in
      ok0 && ok1 && close v0 v1)

(* 8. Partial unrolling by any divisor preserves semantics. *)
let prop_unroll_divisors =
  qtest ~count:20 "unrolling preserves semantics"
    (QCheck2.Gen.oneofl [ 1; 2; 3; 4; 6; 12 ])
    (fun factor ->
      let n = 12 in
      let src =
        Fmt.str
          {|void f(float x[%d], float y[%d]) {
              for (int i = 0; i < %d; i++) { y[i] = x[i] * 2.0 + 1.0; }
            }|}
          n n n
      in
      let k = Minic.Parser.parse_kernel src in
      let k = Minic.Unroll.unroll_innermost ~factor k in
      let c = Minic.Codegen.compile k in
      let rng = Kernels.Data.create factor in
      let data = Kernels.Data.signed_array rng n in
      let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
      Sim.Memory.set_floats memory "x" data;
      let out = Sim.Engine.run ~memory c.Minic.Codegen.graph in
      Sim.Engine.is_completed out
      && begin
           let got = Sim.Memory.get_floats memory "y" in
           Array.for_all2
             (fun g x -> close g ((x *. 2.0) +. 1.0))
             got data
         end)

(* 9b. Whole generated kernels: interpreter vs compiled circuit.  The
   generator builds type-correct ASTs directly: a loop over an input
   array with a random mix of float expressions, accumulations and
   conditionals. *)
let gen_float_expr_ast =
  (* Expressions over: d (the loaded element), s (the accumulator), and
     small float literals; +,-,* only. *)
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              return (Minic.Ast.Var "d");
              return (Minic.Ast.Var "s");
              map (fun c -> Minic.Ast.Float_lit c) gen_coeff;
            ]
        else
          frequency
            [
              (1, return (Minic.Ast.Var "d"));
              (2,
               map2
                 (fun op (a, b) -> Minic.Ast.Bin (op, a, b))
                 (oneofl Minic.Ast.[ Add; Sub; Mul ])
                 (pair (self (n / 2)) (self (n / 2))));
            ]))

let gen_kernel_ast =
  QCheck2.Gen.(
    let n = 10 in
    map2
      (fun (e_then, e_else) threshold ->
        let open Minic.Ast in
        let body =
          [
            Decl (Tfloat, "d", Some (Index ("x", [ Var "i" ])));
            If
              ( Bin (Ge, Var "d", Float_lit threshold),
                [ Assign (Lv_var "s", e_then) ],
                [ Assign (Lv_var "s", e_else) ] );
          ]
        in
        {
          k_name = "gen";
          k_params =
            [
              { p_name = "x"; p_ty = Tfloat; p_dims = [ n ] };
              { p_name = "out"; p_ty = Tfloat; p_dims = [ 1 ] };
            ];
          k_body =
            [
              Decl (Tfloat, "s", Some (Float_lit 0.0));
              For
                {
                  var = "i";
                  init = Int_lit 0;
                  cmp = Cmp_lt;
                  limit = Int_lit n;
                  step = 1;
                  body;
                };
              Assign (Lv_index ("out", [ Int_lit 0 ]), Var "s");
            ];
        })
      (pair gen_float_expr_ast gen_float_expr_ast)
      gen_coeff)

let prop_interp_vs_circuit =
  qtest ~count:25 "generated kernels: interpreter = circuit" gen_kernel_ast
    (fun kernel ->
      ignore (Minic.Sema.check kernel);
      let rng = Kernels.Data.create (Hashtbl.hash (Minic.Print.to_string kernel)) in
      let data = Kernels.Data.signed_array rng 10 in
      (* Interpreter path. *)
      let imem = Hashtbl.create 4 in
      Hashtbl.replace imem "x" (Array.copy data);
      Hashtbl.replace imem "out" (Array.make 1 0.0);
      Minic.Interp.run kernel imem;
      (* Circuit path (also through the printer, exercising round trip). *)
      let c = Minic.Codegen.compile_source (Minic.Print.to_string kernel) in
      let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
      Sim.Memory.set_floats memory "x" data;
      let out = Sim.Engine.run ~memory c.Minic.Codegen.graph in
      Sim.Engine.is_completed out
      && close
           (Sim.Memory.get_floats memory "out").(0)
           (Hashtbl.find imem "out").(0))

(* 9. Chaos invariance: a CRUSH-shared circuit built from a random
   kernel must, under any chaos seed, still terminate and produce the
   interpreter's results — the latency-insensitivity claim attacked
   adversarially.  QCheck2 shrinks both the kernel and the seed, so a
   failure reproduces as a minimal kernel x seed pair. *)
let prop_chaos_invariance =
  qtest ~count:20 "chaos never changes results of shared circuits"
    ~print:(fun (kernel, seed) ->
      Fmt.str "chaos seed %d on:@.%s" seed (Minic.Print.to_string kernel))
    QCheck2.Gen.(pair gen_kernel_ast (int_range 0 1_000_000))
    (fun (kernel, seed) ->
      ignore (Minic.Sema.check kernel);
      let rng = Kernels.Data.create (Hashtbl.hash (Minic.Print.to_string kernel)) in
      let data = Kernels.Data.signed_array rng 10 in
      let imem = Hashtbl.create 4 in
      Hashtbl.replace imem "x" (Array.copy data);
      Hashtbl.replace imem "out" (Array.make 1 0.0);
      Minic.Interp.run kernel imem;
      let c = Minic.Codegen.compile_source (Minic.Print.to_string kernel) in
      ignore
        (Crush.Share.crush c.Minic.Codegen.graph
           ~critical_loops:c.Minic.Codegen.critical_loops);
      let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
      Sim.Memory.set_floats memory "x" data;
      let out =
        Sim.Engine.run ~chaos:(Sim.Chaos.default ~seed) ~memory
          c.Minic.Codegen.graph
      in
      Sim.Engine.is_completed out
      && close
           (Sim.Memory.get_floats memory "out").(0)
           (Hashtbl.find imem "out").(0))

(* 10. Priority inference always returns a permutation of its input. *)
let prop_priority_permutation =
  qtest ~count:10 "priority is a permutation"
    (QCheck2.Gen.oneofl [ "atax"; "gemm"; "gesummv"; "syr2k" ])
    (fun name ->
      let bench = Kernels.Registry.find name in
      let c = compile bench.Kernels.Registry.source in
      let ctx =
        Crush.Context.make c.Minic.Codegen.graph
          ~critical_loops:c.Minic.Codegen.critical_loops
      in
      let cands = Crush.Context.candidates ctx in
      let ordered = Crush.Priority.infer ctx cands in
      List.sort compare ordered = List.sort compare cands)

let suite =
  [
    prop_expression_compiles;
    prop_reduction_loop;
    prop_buffer_chain_fifo;
    prop_cycle_ratio_ring;
    prop_lcg;
    prop_value_close_refl;
    prop_crush_preserves_random_kernels;
    prop_unroll_divisors;
    prop_interp_vs_circuit;
    prop_chaos_invariance;
    prop_priority_permutation;
  ]
