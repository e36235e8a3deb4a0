(** Differential oracle for Algorithm 1: the frozen greedy search
    ([Oracle_groups], a verbatim copy that re-checks R3 on every pair of
    each tentative merge) against [Crush.Groups.infer], which checks only
    the pairs across the two groups.  The contract is identity: the same
    groups, in the same order, with members in the same order, on every
    kernel under both codegen strategies, on unrolled gesummv up to the
    fully unrolled Table 1 circuit, with R3 disabled, with a non-default
    candidate set, and on random generated kernels. *)

open Helpers

let ops_of groups = List.map (fun (g : Crush.Groups.group) -> g.Crush.Groups.ops) groups

(* Both searches on one context, under each knob setting the ablation
   studies use: the default, R3 off, and integer multipliers only. *)
let variants =
  [
    ("default", None, None);
    ("R3 off", None, Some false);
    ("Imul only", Some [ Dataflow.Types.Imul ], None);
  ]

let mismatch ctx =
  List.find_map
    (fun (vname, shareable, enforce_r3) ->
      let want = ops_of (Oracle_groups.infer ?shareable ?enforce_r3 ctx)
      and got = ops_of (Crush.Groups.infer ?shareable ?enforce_r3 ctx) in
      if want = got then None else Some (vname, want, got))
    variants

let pp_groups = Fmt.(brackets (list ~sep:semi (brackets (list ~sep:comma int))))

let check_ctx name ctx =
  match mismatch ctx with
  | None -> ()
  | Some (vname, want, got) ->
      Alcotest.failf "%s (%s): oracle %a@.library %a" name vname pp_groups want
        pp_groups got

let context (c : Minic.Codegen.compiled) =
  Crush.Context.make c.Minic.Codegen.graph
    ~critical_loops:c.Minic.Codegen.critical_loops

let strategies = Minic.Codegen.[ ("bb", Bb_ordered); ("fast", Fast_token) ]

let test_kernels () =
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (sname, strategy) ->
          check_ctx
            (b.Kernels.Registry.name ^ "/" ^ sname)
            (context (compile ~strategy b.Kernels.Registry.source)))
        strategies)
    Kernels.Registry.all

let check_gesummv factor =
  let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
  check_ctx (Fmt.str "gesummv x%d" factor) (context (Minic.Codegen.compile ast))

let test_gesummv () = List.iter check_gesummv [ 3; 5; 15; 25 ]
let test_table1 () = check_gesummv 75

let prop_random_kernels =
  qtest ~count:40 "random kernels: groups = oracle"
    ~print:(fun (kernel, (sname, _)) ->
      Fmt.str "%s strategy on:@.%s" sname (Minic.Print.to_string kernel))
    QCheck2.Gen.(pair Test_properties.gen_kernel_ast (oneofl strategies))
    (fun (kernel, (_, strategy)) ->
      ignore (Minic.Sema.check kernel);
      mismatch (context (Minic.Codegen.compile ~strategy kernel)) = None)

let suite =
  [
    Alcotest.test_case "oracle: kernels, both strategies" `Quick test_kernels;
    Alcotest.test_case "oracle: gesummv x3-x25" `Quick test_gesummv;
    Alcotest.test_case "oracle: Table 1 x75" `Slow test_table1;
    prop_random_kernels;
  ]
