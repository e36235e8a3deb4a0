(** Dataflow-circuit generation from mini-C kernels.

    The generator follows the structured program: every scalar live at a
    control construct is carried through it (loop header muxes and
    steering branches for loops; branch/mux diamonds for conditionals),
    which is the standard elastic-circuit conversion.  A control token
    ([$ctrl]) threads through the program to trigger constants and marks
    completion at the Exit unit; inside a loop the per-iteration induction
    variable takes over that role.

    Two HLS strategies are supported (Section 6.5 of the paper):
    - [Bb_ordered] mirrors the classic Dynamatic flow [29]: units carry
      basic-block tags (which the In-order sharing baseline requires) and
      the loop select travels through a control network that costs one
      extra registered stage per loop backedge;
    - [Fast_token] mirrors the fast-token-delivery flow [21]: no BB
      organization (tags stay -1, making BB-order-based sharing
      inapplicable) and direct select delivery, trading a deeper
      slack-FIFO budget for fewer stall cycles. *)

open Ast
open Dataflow
open Dataflow.Types

type strategy = Bb_ordered | Fast_token

let string_of_strategy = function
  | Bb_ordered -> "bb-ordered"
  | Fast_token -> "fast-token"

type compiled = {
  name : string;
  graph : Graph.t;
  strategy : strategy;
  critical_loops : int list;  (** innermost loop of each nest *)
  all_loops : int list;
  conditional_bbs : int list;
      (** BBs under divergent control flow (if/else sides); the In-order
          baseline cannot order operations across them *)
}

let error fmt = Frontend.error Frontend.Codegen fmt

type ctx = {
  b : Builder.t;
  strategy : strategy;
  mutable tenv : Sema.env;
  mutable next_loop : int;
  mutable next_bb : int;
  mutable cur_loop : int;
  mutable cur_bb : int;
  mutable loops : int list;
  mutable parents : (int * int) list;  (** loop -> parent loop *)
  mutable cond_bbs : int list;
}

(* Scalar value environment: variable name -> wire.  The reserved name
   [ctrl_name] holds the control token of the current activation. *)
let ctrl_name = "$ctrl"

let lookup venv x =
  match List.assoc_opt x venv with
  | Some w -> w
  | None -> error "unbound variable %s" x

let update venv x w =
  if not (List.mem_assoc x venv) then error "assignment to unbound %s" x
  else List.map (fun (y, v) -> if y = x then (y, w) else (y, v)) venv

let bind venv x w =
  if List.mem_assoc x venv then error "rebinding %s" x
  else venv @ [ (x, w) ]

let op_of ~float_ = function
  | Add -> if float_ then Fadd else Iadd
  | Sub -> if float_ then Fsub else Isub
  | Mul -> if float_ then Fmul else Imul
  | Div -> if float_ then Fdiv else Idiv
  | Lt -> if float_ then Fcmp Lt else Icmp Lt
  | Le -> if float_ then Fcmp Le else Icmp Le
  | Gt -> if float_ then Fcmp Gt else Icmp Gt
  | Ge -> if float_ then Fcmp Ge else Icmp Ge
  | Eq -> if float_ then Fcmp Eq else Icmp Eq
  | Ne -> if float_ then Fcmp Ne else Icmp Ne
  | And -> Band
  | Or -> Bor

(** Load pipeline depth (BRAM with registered output). *)
let load_latency = 2

let mk_op ctx op ws =
  Builder.operator ctx.b op ~latency:(Analysis.Area.op_latency op) ws
    ~bb:ctx.cur_bb ~loop:ctx.cur_loop

let mk_const ctx ~ctrl v =
  Builder.const ctx.b ~ctrl v ~bb:ctx.cur_bb ~loop:ctx.cur_loop

let rec gen_expr ctx venv e =
  let ctrl = lookup venv ctrl_name in
  match e with
  | Int_lit v -> mk_const ctx ~ctrl (VInt v)
  | Float_lit v -> mk_const ctx ~ctrl (VFloat v)
  | Var x -> lookup venv x
  | Index (a, idxs) ->
      let addr = gen_address ctx venv a idxs in
      Builder.load ctx.b ~memory:a ~latency:load_latency addr
        ~bb:ctx.cur_bb ~loop:ctx.cur_loop
  | Bin (op, ea, eb) ->
      let float_ =
        match op with
        | And | Or -> false
        | _ ->
            Sema.type_of ctx.tenv ea = Tfloat || Sema.type_of ctx.tenv eb = Tfloat
      in
      let wa = gen_expr ctx venv ea and wb = gen_expr ctx venv eb in
      mk_op ctx (op_of ~float_ op) [ wa; wb ]
  | Not e -> mk_op ctx Bnot [ gen_expr ctx venv e ]
  | Neg e ->
      let float_ = Sema.type_of ctx.tenv e = Tfloat in
      let zero = mk_const ctx ~ctrl (if float_ then VFloat 0.0 else VInt 0) in
      mk_op ctx (if float_ then Fsub else Isub) [ zero; gen_expr ctx venv e ]

(** Row-major flattened address of [a[idxs]]. *)
and gen_address ctx venv a idxs =
  let info = Sema.lookup_array ctx.tenv a in
  let ctrl = lookup venv ctrl_name in
  let rec flatten dims idxs =
    match (dims, idxs) with
    | [ _ ], [ e ] -> gen_expr ctx venv e
    | _ :: rest, e :: es ->
        let inner_size = List.fold_left ( * ) 1 rest in
        let w = gen_expr ctx venv e in
        let scaled = mk_op ctx Imul [ w; mk_const ctx ~ctrl (VInt inner_size) ] in
        mk_op ctx Iadd [ scaled; flatten rest es ]
    | _ -> error "dimension mismatch on %s" a
  in
  flatten info.Sema.a_dims idxs

let declare_scalar ctx x ty =
  ctx.tenv <- { ctx.tenv with Sema.scalars = (x, ty) :: ctx.tenv.Sema.scalars }

let forget_scalar ctx x =
  ctx.tenv <-
    {
      ctx.tenv with
      Sema.scalars = List.remove_assoc x ctx.tenv.Sema.scalars;
    }

let fresh_bb ctx =
  match ctx.strategy with
  | Fast_token -> -1
  | Bb_ordered ->
      let bb = ctx.next_bb in
      ctx.next_bb <- bb + 1;
      bb

let rec gen_stmts ctx venv stmts = List.fold_left (gen_stmt ctx) venv stmts

and gen_stmt ctx venv = function
  | Decl (ty, x, init) ->
      let w =
        match init with
        | Some e -> gen_expr ctx venv e
        | None ->
            let ctrl = lookup venv ctrl_name in
            mk_const ctx ~ctrl (match ty with Tfloat -> VFloat 0.0 | _ -> VInt 0)
      in
      declare_scalar ctx x ty;
      bind venv x w
  | Assign (Lv_var x, e) -> update venv x (gen_expr ctx venv e)
  | Assign (Lv_index (a, idxs), e) ->
      let addr = gen_address ctx venv a idxs in
      let v = gen_expr ctx venv e in
      (* The store's completion token is sunk: memory effects complete
         before quiescence, which is what the simulator's completion
         criterion observes. *)
      ignore
        (Builder.store ctx.b ~memory:a addr v ~bb:ctx.cur_bb ~loop:ctx.cur_loop);
      venv
  | If (c, s1, s2) ->
      let cond = gen_expr ctx venv c in
      let names = List.map fst venv in
      let vals = List.map snd venv in
      let saved_bb = ctx.cur_bb in
      let side stmts copies =
        let venv_side = List.combine names copies in
        ctx.cur_bb <- fresh_bb ctx;
        if ctx.cur_bb >= 0 then ctx.cond_bbs <- ctx.cur_bb :: ctx.cond_bbs;
        let venv_out = gen_stmts ctx venv_side stmts in
        (* Locals declared inside the side die here. *)
        List.iter
          (fun (x, _) -> if not (List.mem x names) then forget_scalar ctx x)
          venv_out;
        List.map (fun x -> lookup venv_out x) names
      in
      let results =
        Builder.if_diamond ctx.b ~cond ~vals ~bb:ctx.cur_bb ~loop:ctx.cur_loop
          ~then_:(fun copies -> side s1 copies)
          ~else_:(fun copies -> side s2 copies)
      in
      ctx.cur_bb <- saved_bb;
      List.combine names results
  | For f ->
      let loop_id = ctx.next_loop in
      ctx.next_loop <- loop_id + 1;
      ctx.loops <- loop_id :: ctx.loops;
      if ctx.cur_loop >= 0 then ctx.parents <- (loop_id, ctx.cur_loop) :: ctx.parents;
      let init_w = gen_expr ctx venv f.init in
      let names = List.map fst venv in
      let inits = List.map snd venv @ [ init_w ] in
      let saved_loop = ctx.cur_loop and saved_bb = ctx.cur_bb in
      ctx.cur_loop <- loop_id;
      ctx.cur_bb <- fresh_bb ctx;
      declare_scalar ctx f.var Tint;
      let control_overhead =
        match ctx.strategy with Bb_ordered -> 1 | Fast_token -> 0
      in
      let exits =
        Builder.counted_loop ctx.b ~loop:loop_id ~bb:ctx.cur_bb ~control_overhead
          ~inits
          ~cond:(fun headers ->
            let venv_hdr = List.combine (names @ [ f.var ]) headers in
            let cmp = match f.cmp with Cmp_lt -> Ast.Lt | Cmp_le -> Ast.Le in
            (* Constants in the bound are triggered by the induction
               variable's per-iteration token. *)
            let venv_hdr = update venv_hdr ctrl_name (lookup venv_hdr f.var) in
            gen_expr ctx venv_hdr (Bin (cmp, Var f.var, f.limit)))
          ~body:(fun conts ->
            let venv_body = List.combine (names @ [ f.var ]) conts in
            let outer_ctrl = lookup venv_body ctrl_name in
            let venv_body =
              update venv_body ctrl_name (lookup venv_body f.var)
            in
            let venv_out = gen_stmts ctx venv_body f.body in
            List.iter
              (fun (x, _) ->
                if not (List.mem x (names @ [ f.var ])) then forget_scalar ctx x)
              venv_out;
            let next_i =
              gen_expr ctx venv_out (Bin (Add, Var f.var, Int_lit f.step))
            in
            List.map
              (fun x -> if x = ctrl_name then outer_ctrl else lookup venv_out x)
              names
            @ [ next_i ])
      in
      ctx.cur_loop <- saved_loop;
      ctx.cur_bb <- saved_bb;
      forget_scalar ctx f.var;
      (* Drop the induction variable's exit value; keep the others. *)
      List.combine names (List.filteri (fun i _ -> i < List.length names) exits)

(** Compile a checked kernel to a dataflow circuit. *)
let compile ?(strategy = Bb_ordered) (k : kernel) =
  List.iter
    (fun p ->
      if p.p_dims = [] then
        error "scalar parameter %s unsupported: declare it as a local" p.p_name)
    k.k_params;
  let tenv = Sema.check k in
  let b = Builder.create () in
  (match strategy with
  | Fast_token ->
      (* Fast token delivery decouples producers and consumers with a
         deeper slack budget, trading FFs for fewer stall cycles. *)
      Builder.set_slack_bonus b 2
  | Bb_ordered -> ());
  let ctx =
    {
      b;
      strategy;
      tenv;
      next_loop = 0;
      next_bb = 1;
      cur_loop = -1;
      cur_bb = (match strategy with Bb_ordered -> 0 | Fast_token -> -1);
      loops = [];
      parents = [];
      cond_bbs = [];
    }
  in
  List.iter
    (fun p ->
      Builder.declare_memory b p.p_name (List.fold_left ( * ) 1 p.p_dims))
    k.k_params;
  let ctrl = Builder.entry b VUnit ~label:"start" in
  let venv = [ (ctrl_name, ctrl) ] in
  let venv = gen_stmts ctx venv k.k_body in
  ignore (Builder.exit_ b (lookup venv ctrl_name));
  let graph = Builder.finalize b in
  (* Buffer sizing pass (the Dynamatic MILP's role [34]): shrink slack
     FIFOs to what the achievable II actually needs. *)
  ignore (Analysis.Buffer_sizing.rightsize graph);
  let all_loops = List.sort compare ctx.loops in
  let has_child l = List.exists (fun (_, p) -> p = l) ctx.parents in
  let critical_loops = List.filter (fun l -> not (has_child l)) all_loops in
  {
    name = k.k_name;
    graph;
    strategy;
    critical_loops;
    all_loops;
    conditional_bbs = List.sort_uniq compare ctx.cond_bbs;
  }

(** Parse, check and compile kernel source text. *)
let compile_source ?strategy src =
  compile ?strategy (Parser.parse_kernel src)
