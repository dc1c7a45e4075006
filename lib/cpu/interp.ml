(** Reference tree-walking interpreter over {!Machine.t}.

    This is the semantics oracle: the closure-compiled backend
    ({!Compile2}) must be cycle- and counter-exact against it (pinned by
    the golden fingerprints in [test/test_measure.ml] and the qcheck
    differential suite in [test/test_backend.ml]).  It is also the only
    backend that threads taint: every engine with a speculation drill
    state runs here.

    Unlike the pre-PR5 engine, every evaluator here is a top-level
    function: [exec_func] no longer rebuilds [eval_expr]/[invoke]/[do_call]
    closures on each activation, so the fallback backend pays no
    per-activation allocation either — only the per-instruction
    constructor matching that [Compile2] exists to eliminate. *)

open Pibe_ir
open Types
open Machine

let eval_expr t (cf : cfunc) (regs : int array) e =
  match e with
  | Const i -> i
  | Move o -> operand_value regs o
  | Binop (op, a, b) -> eval_binop op (operand_value regs a) (operand_value regs b)
  | Load a ->
    let addr = operand_value regs a in
    if addr < 0 || addr >= Array.length t.mem then
      raise (Runtime_error (Printf.sprintf "load out of bounds: %d in %s" addr cf.f.fname))
    else t.mem.(addr)

let taint_of_expr t (regs : int array) (taint : int option array) e =
  match e with
  | Const _ -> None
  | Move o -> operand_taint taint o
  | Binop _ -> None
  | Load a -> (
    match t.cfg.speculation with
    | None -> None
    | Some s -> Speculation.injected_load s ~addr:(operand_value regs a))

let rec exec_func t (cf : cfunc) (regs : int array) ~depth ~(ret_to : int) : int option =
  enter_frame t cf;
  let spec_on = match t.cfg.speculation with None -> false | Some _ -> true in
  let taint =
    if spec_on then
      taint_frame t ~depth ~nregs:(if cf.f.nregs > 1 then cf.f.nregs else 1)
    else [||]
  in
  run_block t cf regs taint spec_on depth ret_to cf.f.entry

and run_block t cf regs taint spec_on depth ret_to label : int option =
  let b = cf.cblocks.(label) in
  let insts = b.cinsts in
  for i = 0 to Array.length insts - 1 do
    exec_inst t cf regs taint spec_on depth insts.(i)
  done;
  step_fuel t;
  match b.cterm with
  | Jmp l ->
    charge t Cost.jmp;
    run_block t cf regs taint spec_on depth ret_to l
  | Br (c, l1, l2) ->
    charge t Cost.br;
    let taken = operand_value regs c <> 0 in
    let key = cf.key_base + label in
    if Pht.predict t.tpht ~key <> taken then begin
      t.ctrs.pht_misses <- t.ctrs.pht_misses + 1;
      charge t Cost.br_mispredict_penalty
    end;
    Pht.train t.tpht ~key ~taken;
    run_block t cf regs taint spec_on depth ret_to (if taken then l1 else l2)
  | Switch { scrutinee; cases; default; lowering } ->
    let v = operand_value regs scrutinee in
    let rec find i =
      if i >= Array.length cases then default
      else
        let case_v, l = cases.(i) in
        if case_v = v then l else find (i + 1)
    in
    let target = find 0 in
    (match lowering with
    | Jump_table -> charge t Cost.switch_jump_table
    | Branch_ladder -> charge t (ladder_cost (Array.length cases)));
    run_block t cf regs taint spec_on depth ret_to target
  | Ret v ->
    let v = Option.map (operand_value regs) v in
    do_ret t cf ~ret_to;
    v

and exec_inst t cf regs taint spec_on depth i =
  bump_inst t;
  match i with
  | CAssign (r, e) ->
    charge t (Cost.assign_cost e);
    (if spec_on then taint.(r) <- taint_of_expr t regs taint e);
    regs.(r) <- eval_expr t cf regs e
  | CStore (a, v) ->
    charge t Cost.store;
    let addr = operand_value regs a in
    if addr < 0 || addr >= Array.length t.mem then
      raise
        (Runtime_error (Printf.sprintf "store out of bounds: %d in %s" addr cf.f.fname))
    else t.mem.(addr) <- operand_value regs v
  | CObserve v ->
    charge t Cost.observe;
    if t.cfg.record_trace then t.trace_rev <- operand_value regs v :: t.trace_rev
  | CCall { dst; callee; callee_id; args; site } ->
    t.ctrs.calls <- t.ctrs.calls + 1;
    charge t (Cost.direct_call + t.cfg.extra_call_cycles);
    let callee = lookup t callee_id callee in
    emit_call t site.site_id callee_id;
    invoke t cf regs taint spec_on depth ~dst ~callee ~args
  | CIcall { dst; fptr; args; site; slot = _ } ->
    do_icall t cf regs taint spec_on depth ~dst ~fptr ~args ~site ~asm:false
  | CAsm_icall { fptr; site } ->
    do_icall t cf regs taint spec_on depth ~dst:None ~fptr ~args:[||] ~site ~asm:true

and do_icall t cf regs taint spec_on depth ~dst ~fptr ~args ~site ~asm =
  t.ctrs.icalls <- t.ctrs.icalls + 1;
  charge t t.cfg.extra_icall_cycles;
  let v = operand_value regs fptr in
  let target_id = icall_resolve t v in
  let fptr_taint = if spec_on then operand_taint taint fptr else None in
  (match t.cfg.fwd_override with
  | Some hook when not asm -> charge t (hook ~site ~target:t.fptr_table.(v))
  | Some _ | None ->
    let protection = if asm then Protection.F_none else t.cfg.fwd_protection site in
    indirect_transfer t ~site ~target:target_id ~fptr_taint ~protection);
  emit_call t site.site_id target_id;
  invoke t cf regs taint spec_on depth ~dst ~callee:(t.by_id.(target_id)) ~args

and invoke t cf regs taint spec_on depth ~dst ~(callee : cfunc) ~(args : operand array) =
  enter_code t callee;
  Rsb.push t.trsb cf.id;
  let nregs = if callee.f.nregs > 1 then callee.f.nregs else 1 in
  let callee_regs = frame t ~depth:(depth + 1) ~nregs in
  let nargs = Array.length args in
  let n = if callee.f.params < nargs then callee.f.params else nargs in
  for i = 0 to n - 1 do
    callee_regs.(i) <- operand_value regs args.(i)
  done;
  let result = exec_func t callee callee_regs ~depth:(depth + 1) ~ret_to:cf.id in
  (match (dst, result) with
  | Some r, Some v -> regs.(r) <- v
  | Some r, None -> regs.(r) <- 0
  | None, _ -> ());
  match dst with
  | Some r when spec_on -> taint.(r) <- None
  | _ -> ()

(* The backend entry installed into [Machine.t.exec_entry].  The
   reference backend zeroes the whole top-level register file; the
   compiled backend zeroes only the entry-live set — unobservable by
   construction, pinned by the differential suite. *)
let entry t cf args =
  let regs = frame t ~depth:0 ~nregs:(if cf.f.nregs > 1 then cf.f.nregs else 1) in
  List.iteri (fun i v -> if i < cf.f.params then regs.(i) <- v) args;
  exec_func t cf regs ~depth:0 ~ret_to:top_id
