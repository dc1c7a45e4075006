(* The scalar cleanup pass: targeted folding behaviours plus differential
   semantic preservation on random programs and the kernel. *)

open Pibe_ir
open Types
module Cleanup = Pibe_opt.Cleanup

let build body =
  let b = Builder.create ~name:"f" ~params:2 in
  body b;
  Builder.finish b ()

let count_insts f =
  Array.fold_left (fun acc blk -> acc + Array.length blk.insts) 0 f.blocks

let test_constant_folding () =
  let f =
    build (fun b ->
        let r1 = Builder.reg b in
        Builder.assign b r1 (Const 6);
        let r2 = Builder.reg b in
        Builder.assign b r2 (Binop (Mul, Reg r1, Imm 7));
        Builder.observe b (Reg r2);
        Builder.ret b (Some (Reg r2)))
  in
  let f' = Cleanup.run_func f in
  (* the multiply folds to a constant observation *)
  let has_binop = ref false in
  Func.iter_insts f' (fun _ i ->
      match i with Assign (_, Binop _) -> has_binop := true | _ -> ());
  Alcotest.(check bool) "no binop left" false !has_binop

let test_branch_folding_removes_dead_arm () =
  let f =
    build (fun b ->
        let c = Builder.reg b in
        Builder.assign b c (Const 1);
        let l1 = Builder.new_block b and l2 = Builder.new_block b in
        Builder.br b (Reg c) l1 l2;
        Builder.switch_to b l1;
        Builder.ret b (Some (Imm 10));
        Builder.switch_to b l2;
        Builder.observe b (Imm 666);
        Builder.ret b (Some (Imm 20)))
  in
  let f', stats = Cleanup.run_func_with_stats f in
  Alcotest.(check bool) "branch folded" true (stats.Cleanup.branches_folded >= 1);
  Alcotest.(check bool) "dead arm removed" true (stats.Cleanup.blocks_removed >= 1);
  Alcotest.(check int) "two blocks remain at most" 2 (Array.length f'.blocks)

let test_dead_assign_removed () =
  let f =
    build (fun b ->
        let dead = Builder.reg b in
        Builder.assign b dead (Binop (Add, Reg 0, Reg 1));
        Builder.ret b (Some (Reg 0)))
  in
  let f', stats = Cleanup.run_func_with_stats f in
  Alcotest.(check int) "one dead assign" 1 stats.Cleanup.dead_assigns_removed;
  Alcotest.(check int) "body empty" 0 (count_insts f')

let test_side_effects_kept () =
  let prog = Program.with_globals_size Program.empty 8 in
  let prog, site = Program.fresh_site prog in
  let leaf =
    let b = Builder.create ~name:"g" ~params:0 in
    Builder.ret b (Some (Imm 1));
    Builder.finish b ()
  in
  let prog = Program.add_func prog leaf in
  let f =
    build (fun b ->
        (* an ignored call result, a store and an observe must all stay *)
        let r = Builder.reg b in
        Builder.call b ~dst:r site "g" [];
        Builder.store b ~addr:(Imm 3) ~value:(Imm 9);
        Builder.observe b (Imm 5);
        Builder.ret b None)
  in
  let prog = Program.add_func prog f in
  let prog' = Cleanup.run prog in
  let f' = Program.find prog' "f" in
  Alcotest.(check int) "all three kept" 3 (count_insts f')

let test_jump_threading () =
  let f =
    build (fun b ->
        let hop = Builder.new_block b and final = Builder.new_block b in
        Builder.jmp b hop;
        Builder.switch_to b hop;
        Builder.jmp b final;
        Builder.switch_to b final;
        Builder.ret b None)
  in
  let f' = Cleanup.run_func f in
  Alcotest.(check bool) "forwarding blocks removed" true (Array.length f'.blocks <= 2)

let test_switch_on_constant () =
  let f =
    build (fun b ->
        let s = Builder.reg b in
        Builder.assign b s (Const 1);
        let c0 = Builder.new_block b and c1 = Builder.new_block b in
        let d = Builder.new_block b in
        Builder.switch b (Reg s) [ (0, c0); (1, c1) ] ~default:d;
        Builder.switch_to b c0;
        Builder.ret b (Some (Imm 0));
        Builder.switch_to b c1;
        Builder.ret b (Some (Imm 111));
        Builder.switch_to b d;
        Builder.ret b (Some (Imm 2)))
  in
  let f', stats = Cleanup.run_func_with_stats f in
  Alcotest.(check bool) "switch folded" true (stats.Cleanup.branches_folded >= 1);
  Alcotest.(check bool) "dead cases dropped" true (Array.length f'.blocks <= 2)

let test_optnone_untouched () =
  let prog = Program.with_globals_size Program.empty 8 in
  let f =
    let b = Builder.create ~name:"f" ~params:0 in
    let dead = Builder.reg b in
    Builder.assign b dead (Const 1);
    Builder.ret b None;
    Builder.finish b ~attrs:{ default_attrs with optnone = true } ()
  in
  let prog = Program.add_func prog f in
  let prog' = Cleanup.run prog in
  Alcotest.(check int) "dead assign survives under optnone" 1
    (count_insts (Program.find prog' "f"))

let prop_cleanup_preserves_semantics =
  QCheck.Test.make ~name:"cleanup preserves observable behaviour" ~count:200
    QCheck.small_int (fun seed ->
      let prog = Helpers.random_program seed in
      let prog' = Cleanup.run prog in
      Validate.check_program prog' = [] && Helpers.equivalent prog prog')

let prop_cleanup_idempotent =
  QCheck.Test.make ~name:"cleanup is idempotent" ~count:80 QCheck.small_int (fun seed ->
      let prog = Cleanup.run (Helpers.random_program seed) in
      Printer.program_to_string (Cleanup.run prog) = Printer.program_to_string prog)

let prop_cleanup_never_grows =
  QCheck.Test.make ~name:"cleanup never grows code" ~count:100 QCheck.small_int
    (fun seed ->
      let prog = Helpers.random_program seed in
      let prog' = Cleanup.run prog in
      Program.fold_funcs prog' ~init:true ~f:(fun acc f ->
          acc && Func.inst_count f <= Func.inst_count (Program.find prog f.fname)))

(* One function over four registers, most of its instructions copies:
   bodies reassign registers, write a register after copying from it
   and copy registers to themselves, shapes the program generators never
   make (they name every result afresh).  Here a round's dead-code
   removal can give the next round's propagation work.  The blocks form
   a DAG, each ending in a forward edge or a return. *)
let random_reuse_program seed =
  let rng = Pibe_util.Rng.create seed in
  let nregs = 4 and nblocks = 1 + Pibe_util.Rng.int rng 3 in
  let int n = Pibe_util.Rng.int rng n in
  let reg () = int nregs in
  let operand () = if int 4 = 0 then Imm (int 10) else Reg (reg ()) in
  let inst _ =
    match int 8 with
    | 0 | 1 | 2 ->
      let src = reg () in
      Assign (reg (), Move (Reg src))
    | 3 -> Assign (reg (), Const (int 10))
    | 4 ->
      let a = operand () in
      Assign (reg (), Binop (Add, a, operand ()))
    | 5 -> Assign (reg (), Load (Imm (int Helpers.mem_cells)))
    | 6 -> Observe (operand ())
    | _ -> Store (Imm (16 + int 16), operand ())
  in
  let block l =
    let insts = Array.init (3 + int 8) inst in
    let later () = l + 1 + int (nblocks - l - 1) in
    let term =
      if l = nblocks - 1 then Ret (Some (operand ()))
      else
        match int 3 with
        | 0 -> Jmp (later ())
        | 1 ->
          let c = operand () in
          Br (c, l + 1, later ())
        | _ -> Ret (Some (operand ()))
    in
    { insts; term }
  in
  let blocks = Array.init nblocks block in
  Program.add_func
    (Program.with_globals_size Program.empty Helpers.mem_cells)
    { fname = "f0"; params = 2; nregs; entry = 0; attrs = default_attrs; blocks }

let prop_cleanup_on_reused_registers =
  QCheck.Test.make ~name:"cleanup on reused registers" ~count:300 QCheck.small_int
    (fun seed ->
      let prog = random_reuse_program seed in
      let prog' = Cleanup.run prog in
      Validate.check_program prog = []
      && Validate.check_program prog' = []
      && Helpers.equivalent prog prog'
      && Printer.program_to_string (Cleanup.run prog') = Printer.program_to_string prog')

let test_cleanup_preserves_kernel_semantics () =
  let info = Helpers.kernel () in
  let prog = info.Pibe_kernel.Gen.prog in
  let prog' = Cleanup.run prog in
  Validate.check_exn prog';
  let run p =
    let config =
      { Pibe_cpu.Engine.default_config with Pibe_cpu.Engine.record_trace = true }
    in
    let engine = Pibe_cpu.Engine.create ~config p in
    let rng = Pibe_util.Rng.create 4 in
    List.iter
      (fun (op : Pibe_kernel.Workload.op) ->
        for _ = 1 to 5 do
          op.Pibe_kernel.Workload.run engine rng
        done)
      (Pibe_kernel.Workload.lmbench info);
    (Pibe_cpu.Engine.trace engine, Array.to_list (Pibe_cpu.Engine.memory engine))
  in
  Alcotest.(check bool) "kernel behaviour preserved" true (run prog = run prog')

(* ------------------------------------------------------------------ *)
(* The dead-assignment step against the per-block set dataflow         *)
(* ------------------------------------------------------------------ *)

(* The oracle: the per-block [Regset] worklist liveness the pass used
   before it solved liveness per register, with its removal sweep. *)
module Regset = Set.Make (Int)

let operand_uses acc = function
  | Imm _ -> acc
  | Reg r -> Regset.add r acc

let expr_uses acc = function
  | Const _ -> acc
  | Move o | Load o -> operand_uses acc o
  | Binop (_, a, b) -> operand_uses (operand_uses acc a) b

let inst_uses acc = function
  | Assign (_, e) -> expr_uses acc e
  | Store (a, v) -> operand_uses (operand_uses acc a) v
  | Observe v -> operand_uses acc v
  | Call { args; _ } -> List.fold_left operand_uses acc args
  | Icall { fptr; args; _ } -> List.fold_left operand_uses (operand_uses acc fptr) args
  | Asm_icall { fptr; _ } -> operand_uses acc fptr

let term_uses acc = function
  | Jmp _ -> acc
  | Br (c, _, _) -> operand_uses acc c
  | Switch { scrutinee; _ } -> operand_uses acc scrutinee
  | Ret (Some v) -> operand_uses acc v
  | Ret None -> acc

let oracle_eliminate_dead f =
  let n = Array.length f.blocks in
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let block_live_in l =
    let b = f.blocks.(l) in
    let live = ref (term_uses live_out.(l) b.term) in
    for i = Array.length b.insts - 1 downto 0 do
      (match b.insts.(i) with
      | Assign (d, _) -> live := Regset.remove d !live
      | Call { dst = Some d; _ } | Icall { dst = Some d; _ } -> live := Regset.remove d !live
      | Call { dst = None; _ } | Icall { dst = None; _ } | Asm_icall _ | Store _ | Observe _
        -> ());
      live := inst_uses !live b.insts.(i)
    done;
    !live
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun l b ->
      List.iter (fun s -> preds.(s) <- l :: preds.(s)) (Func.successors b.term))
    f.blocks;
  let queued = Array.make n true in
  let work = ref [] in
  for l = 0 to n - 1 do
    work := l :: !work
  done;
  let continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | l :: rest ->
      work := rest;
      queued.(l) <- false;
      live_out.(l) <-
        List.fold_left
          (fun acc s -> Regset.union acc live_in.(s))
          Regset.empty
          (Func.successors f.blocks.(l).term);
      let inn = block_live_in l in
      if not (Regset.equal inn live_in.(l)) then begin
        live_in.(l) <- inn;
        List.iter
          (fun p ->
            if not queued.(p) then begin
              queued.(p) <- true;
              work := p :: !work
            end)
          preds.(l)
      end
  done;
  let removed = ref 0 in
  let blocks =
    Array.mapi
      (fun l b ->
        let removed_before = !removed in
        let live = ref (term_uses live_out.(l) b.term) in
        let kept = ref [] in
        for i = Array.length b.insts - 1 downto 0 do
          let inst = b.insts.(i) in
          let keep =
            match inst with
            | Assign (d, _) when not (Regset.mem d !live) ->
              incr removed;
              false
            | Assign _ | Store _ | Observe _ | Call _ | Icall _ | Asm_icall _ -> true
          in
          if keep then begin
            (match inst with
            | Assign (d, _) -> live := Regset.remove d !live
            | Call { dst = Some d; _ } | Icall { dst = Some d; _ } ->
              live := Regset.remove d !live
            | _ -> ());
            live := inst_uses !live inst;
            kept := inst :: !kept
          end
        done;
        if !removed = removed_before then b else { b with insts = Array.of_list !kept })
      f.blocks
  in
  if !removed = 0 then (f, 0) else ({ f with blocks }, !removed)

(* Same function and count as the oracle; also [f] itself when nothing
   is dead, as the fixpoint check relies on. *)
let agrees_with_oracle (f : func) =
  let ((f', k) as got) = Cleanup.eliminate_dead f in
  got = oracle_eliminate_dead f && (k > 0 || f' == f)

let all_funcs prog = List.map (Program.find prog) (Program.layout_order prog)

let prop_dead_step_matches_oracle =
  QCheck.Test.make ~name:"dead-assignment step matches the set dataflow" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Pibe_util.Rng.create seed in
      let funcs =
        all_funcs (Helpers.random_program seed) @ all_funcs (Helpers.random_chain_program seed)
      in
      (* after a round of folding the bodies hold more dead values *)
      let folded = List.map Cleanup.run_func funcs in
      let acyclic = funcs @ folded in
      List.for_all agrees_with_oracle (acyclic @ List.map (Helpers.with_cycles rng) acyclic))

(* Registers the validator rejects (negative, far past [nregs]) must be
   handled like any other name, not raise. *)
let odd_registers_func () =
  let big = max_int / 2 in
  {
    fname = "odd";
    params = 0;
    nregs = 1;
    entry = 0;
    attrs = default_attrs;
    blocks =
      [|
        {
          insts =
            [|
              Assign (-3, Const 1);
              Assign (big, Binop (Add, Reg (-3), Imm 2));
              Assign (-7, Const 5);
              Assign (big - 1, Move (Reg big));
            |];
          term = Br (Reg big, 1, 1);
        };
        { insts = [| Assign (0, Move (Reg (-7))) |]; term = Ret (Some (Reg (-3))) };
      |];
  }

let test_dead_step_odd_registers () =
  let f = odd_registers_func () in
  Alcotest.(check bool) "agrees with the oracle" true (agrees_with_oracle f);
  Alcotest.(check int) "drops the two dead writes" 2 (snd (Cleanup.eliminate_dead f))

(* The lax-inlined paper-scale kernel: [syscall_entry] alone is about
   15,000 instructions over 2,000 blocks and 12,000 registers, a size no
   random program reaches. *)
let test_dead_step_matches_oracle_on_kernel () =
  let prog =
    Helpers.optimized (Helpers.env3 ()) "icp(budget=99.999),inline(budget=99.9999,lax)"
  in
  let biggest =
    List.fold_left (fun acc f -> max acc (Func.inst_count f)) 0 (all_funcs prog)
  in
  Alcotest.(check bool) "a mega-function is among them" true (biggest > 10_000);
  List.iter
    (fun f -> Alcotest.(check bool) f.fname true (agrees_with_oracle f))
    (all_funcs prog)

(* ------------------------------------------------------------------ *)
(* The round loop against whole-function rounds                        *)
(* ------------------------------------------------------------------ *)

(* The reference: the round loop the pass ran before it propagated only
   rewritten blocks and removed dead chains to their fixpoint in one
   call, with its 8-round cap lifted.  Each round propagates every block
   through a table of bindings, threads jumps and drops unreachable
   blocks, then takes one [Cleanup.eliminate_dead] step (pinned against
   the set dataflow above); rounds repeat until one changes nothing. *)
module Reference = struct
  type binding =
    | Known of int
    | Copy of reg

  let propagate_block b =
    let env : (reg, binding) Hashtbl.t = Hashtbl.create 16 in
    let folded = ref 0 in
    let resolve_operand o =
      match o with
      | Imm _ -> o
      | Reg r -> (
        match Hashtbl.find_opt env r with
        | Some (Known c) ->
          incr folded;
          Imm c
        | Some (Copy r') ->
          incr folded;
          Reg r'
        | None -> o)
    in
    let kill d =
      Hashtbl.remove env d;
      let stale =
        Hashtbl.fold (fun k v acc -> match v with Copy r when r = d -> k :: acc | _ -> acc) env []
      in
      List.iter (Hashtbl.remove env) stale
    in
    let rewrite_expr e =
      match e with
      | Const _ -> e
      | Move (Imm c) -> Const c
      | Move (Reg _ as o) -> (
        match resolve_operand o with
        | Imm c -> Const c
        | Reg _ as o' -> if o' == o then e else Move o')
      | Binop (op, a, b) -> (
        match (resolve_operand a, resolve_operand b) with
        | Imm x, Imm y ->
          incr folded;
          Const (eval_binop op x y)
        | a', b' -> if a' == a && b' == b then e else Binop (op, a', b'))
      | Load o ->
        let o' = resolve_operand o in
        if o' == o then e else Load o'
    in
    let rewrite_inst i =
      match i with
      | Assign (d, e) ->
        let e' = rewrite_expr e in
        kill d;
        (match e' with
        | Const c -> Hashtbl.replace env d (Known c)
        | Move (Reg s) -> Hashtbl.replace env d (Copy s)
        | Move (Imm _) | Binop _ | Load _ -> ());
        if e' == e then i else Assign (d, e')
      | Store (a, v) ->
        let a' = resolve_operand a and v' = resolve_operand v in
        if a' == a && v' == v then i else Store (a', v')
      | Observe v ->
        let v' = resolve_operand v in
        if v' == v then i else Observe v'
      | Call c ->
        let args' = List.map resolve_operand c.args in
        let i' = if args' == c.args then i else Call { c with args = args' } in
        Option.iter kill c.dst;
        i'
      | Icall c ->
        let fptr' = resolve_operand c.fptr in
        let args' = List.map resolve_operand c.args in
        let i' =
          if fptr' == c.fptr && args' == c.args then i
          else Icall { c with fptr = fptr'; args = args' }
        in
        Option.iter kill c.dst;
        i'
      | Asm_icall c ->
        let fptr' = resolve_operand c.fptr in
        if fptr' == c.fptr then i else Asm_icall { c with fptr = fptr' }
    in
    let insts = Array.map rewrite_inst b.insts in
    let branches_folded = ref 0 in
    let term =
      match b.term with
      | Jmp _ as t -> t
      | Br (c, l1, l2) as t -> (
        match resolve_operand c with
        | Imm v ->
          incr branches_folded;
          Jmp (if v <> 0 then l1 else l2)
        | Reg _ as c' -> if c' == c then t else Br (c', l1, l2))
      | Switch s as t -> (
        match resolve_operand s.scrutinee with
        | Imm v ->
          incr branches_folded;
          let target =
            match Array.find_opt (fun (case, _) -> case = v) s.cases with
            | Some (_, l) -> l
            | None -> s.default
          in
          Jmp target
        | Reg _ as sc -> if sc == s.scrutinee then t else Switch { s with scrutinee = sc })
      | Ret None as t -> t
      | Ret (Some v) as t ->
        let v' = resolve_operand v in
        if v' == v then t else Ret (Some v')
    in
    let b' = if insts == b.insts && term == b.term then b else { insts; term } in
    (b', !folded, !branches_folded)

  let map_labels term ~f =
    match term with
    | Jmp l -> Jmp (f l)
    | Br (c, l1, l2) -> Br (c, f l1, f l2)
    | Switch s ->
      Switch { s with cases = Array.map (fun (v, l) -> (v, f l)) s.cases; default = f s.default }
    | Ret _ as t -> t

  let thread_and_compact f =
    let n = Array.length f.blocks in
    let forward = Array.init n (fun l -> l) in
    Array.iteri
      (fun l b ->
        match b.term with
        | Jmp m when Array.length b.insts = 0 && m <> l -> forward.(l) <- m
        | _ -> ())
      f.blocks;
    let rec resolve seen l =
      if List.mem l seen then l else if forward.(l) = l then l else resolve (l :: seen) forward.(l)
    in
    let f =
      { f with blocks = Array.map (fun b -> { b with term = map_labels b.term ~f:(resolve []) }) f.blocks }
    in
    let reachable = Func.reachable_labels f in
    let mapping = Array.make n (-1) in
    let next = ref 0 in
    Array.iteri
      (fun l r ->
        if r then begin
          mapping.(l) <- !next;
          incr next
        end)
      reachable;
    let kept = ref [] in
    Array.iteri
      (fun l b ->
        if reachable.(l) then
          kept := { b with term = map_labels b.term ~f:(fun m -> mapping.(m)) } :: !kept)
      f.blocks;
    ({ f with blocks = Array.of_list (List.rev !kept) }, n - !next)

  let run_once f =
    let folded = ref 0 and branches = ref 0 in
    let blocks =
      Array.map
        (fun b ->
          let b', fo, br = propagate_block b in
          folded := !folded + fo;
          branches := !branches + br;
          b')
        f.blocks
    in
    let f, removed_blocks = thread_and_compact { f with blocks } in
    let f, dead = Cleanup.eliminate_dead f in
    ( f,
      {
        Cleanup.folded = !folded;
        branches_folded = !branches;
        blocks_removed = removed_blocks;
        dead_assigns_removed = dead;
      } )

  let add (a : Cleanup.stats) (b : Cleanup.stats) =
    {
      Cleanup.folded = a.folded + b.folded;
      branches_folded = a.branches_folded + b.branches_folded;
      blocks_removed = a.blocks_removed + b.blocks_removed;
      dead_assigns_removed = a.dead_assigns_removed + b.dead_assigns_removed;
    }

  let run_func_with_stats f =
    let rec go f acc =
      let f', s = run_once f in
      let acc = add acc s in
      if f' = f then (f', acc) else go f' acc
    in
    go f { Cleanup.folded = 0; branches_folded = 0; blocks_removed = 0; dead_assigns_removed = 0 }
end

let matches_reference f = Cleanup.run_func_with_stats f = Reference.run_func_with_stats f

(* What a cycle of empty [jmp]-only blocks cannot change: every count
   but [blocks_removed], and the instructions of the non-empty blocks in
   order. *)
let matches_reference_up_to_empty_cycles f =
  let g, (s : Cleanup.stats) = Cleanup.run_func_with_stats f
  and g', (s' : Cleanup.stats) = Reference.run_func_with_stats f in
  let bodies g =
    List.filter (fun a -> Array.length a > 0) (Array.to_list (Array.map (fun b -> b.insts) g.blocks))
  in
  s.folded = s'.folded && s.branches_folded = s'.branches_folded
  && s.dead_assigns_removed = s'.dead_assigns_removed
  && bodies g = bodies g'

let prop_rounds_match_reference =
  QCheck.Test.make ~name:"round loop matches whole-function rounds" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Pibe_util.Rng.create seed in
      let funcs =
        all_funcs (Helpers.random_program seed) @ all_funcs (Helpers.random_chain_program seed)
      in
      let acyclic = funcs @ List.map Cleanup.run_func funcs in
      List.for_all matches_reference acyclic
      && List.for_all matches_reference_up_to_empty_cycles
           (List.map (Helpers.with_cycles rng) acyclic))

let test_rounds_match_reference_on_kernel () =
  let prog =
    Helpers.optimized (Helpers.env3 ()) "icp(budget=99.999),inline(budget=99.9999,lax)"
  in
  List.iter
    (fun f -> Alcotest.(check bool) f.fname true (matches_reference f))
    (all_funcs prog)

(* A propagation that looked registers up in a table never minded odd
   names; the per-register arrays renumber them instead. *)
let test_rounds_on_odd_registers () =
  let f = odd_registers_func () in
  Alcotest.(check bool) "matches the reference" true (matches_reference f)

(* The fixpoint wrapper ends where iterating the step does, with the
   same total. *)
let iterate_dead f =
  let rec go f total =
    match Cleanup.eliminate_dead f with
    | _, 0 -> (f, total)
    | f', k -> go f' (total + k)
  in
  go f 0

let prop_dead_fixpoint_matches_iteration =
  QCheck.Test.make ~name:"dead-assignment fixpoint matches iterated steps" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Pibe_util.Rng.create seed in
      let funcs =
        all_funcs (Helpers.random_program seed) @ all_funcs (Helpers.random_chain_program seed)
      in
      let funcs = funcs @ List.map (Helpers.with_cycles rng) funcs in
      List.for_all (fun f -> Cleanup.eliminate_dead_fixpoint f = iterate_dead f) funcs)

let suite =
  [
    ("constant folding", `Quick, test_constant_folding);
    ("branch folding removes dead arm", `Quick, test_branch_folding_removes_dead_arm);
    ("dead assign removed", `Quick, test_dead_assign_removed);
    ("side effects kept", `Quick, test_side_effects_kept);
    ("jump threading", `Quick, test_jump_threading);
    ("switch on constant", `Quick, test_switch_on_constant);
    ("optnone untouched", `Quick, test_optnone_untouched);
    Helpers.qcheck_to_alcotest prop_cleanup_preserves_semantics;
    Helpers.qcheck_to_alcotest prop_cleanup_idempotent;
    Helpers.qcheck_to_alcotest prop_cleanup_never_grows;
    Helpers.qcheck_to_alcotest prop_cleanup_on_reused_registers;
    ("cleanup preserves kernel semantics", `Quick, test_cleanup_preserves_kernel_semantics);
    Helpers.qcheck_to_alcotest prop_dead_step_matches_oracle;
    ("dead step on odd registers", `Quick, test_dead_step_odd_registers);
    ("dead step matches oracle on kernel", `Quick, test_dead_step_matches_oracle_on_kernel);
    Helpers.qcheck_to_alcotest prop_dead_fixpoint_matches_iteration;
    Helpers.qcheck_to_alcotest prop_rounds_match_reference;
    ("rounds match reference on kernel", `Quick, test_rounds_match_reference_on_kernel);
    ("rounds on odd registers", `Quick, test_rounds_on_odd_registers);
  ]
