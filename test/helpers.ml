(* Shared test plumbing: a deterministic random-program generator for
   property tests (terminating by construction: the call graph and every
   CFG are DAGs), a differential-equivalence checker, and one lazily
   created quick environment shared by the heavier suites. *)

open Pibe_ir
open Types
module Rng = Pibe_util.Rng

let mem_cells = 64
let fptr_cells = 8

(* ------------------------------------------------------------------ *)
(* Random programs                                                      *)
(* ------------------------------------------------------------------ *)

let random_func rng prog ~name ~callees ~n_fptrs =
  let params = Rng.int rng 3 in
  let b = Builder.create ~name ~params in
  let nblocks = 1 + Rng.int rng 3 in
  let extra = List.init (nblocks - 1) (fun _ -> Builder.new_block b) in
  let blocks = Array.of_list (0 :: extra) in
  let prog = ref prog in
  let vals = ref (List.init params (fun i -> i)) in
  let operand rng =
    if !vals <> [] && Rng.bool rng then Reg (Rng.choose rng (Array.of_list !vals))
    else Imm (Rng.int rng 100)
  in
  Array.iteri
    (fun bi label ->
      Builder.switch_to b label;
      let n_insts = Rng.int rng 5 in
      for _ = 1 to n_insts do
        match Rng.int rng 10 with
        | 0 ->
          (* scratch store to a fixed valid cell *)
          Builder.store b ~addr:(Imm (16 + Rng.int rng 16)) ~value:(operand rng)
        | 1 ->
          let r = Builder.reg b in
          Builder.assign b r (Load (Imm (Rng.int rng mem_cells)));
          vals := r :: !vals
        | 2 -> Builder.observe b (operand rng)
        | 3 | 4 when callees <> [] ->
          let callee = Rng.choose rng (Array.of_list callees) in
          let r = Builder.reg b in
          let p, site = Program.fresh_site !prog in
          prog := p;
          Builder.call b ~dst:r site callee [ operand rng; operand rng ];
          vals := r :: !vals
        | 5 when n_fptrs > 0 ->
          (* fptr index loaded from a dedicated cell holding a valid index *)
          let fp = Builder.reg b in
          Builder.assign b fp (Load (Imm (Rng.int rng fptr_cells)));
          let r = Builder.reg b in
          let p, site = Program.fresh_site !prog in
          prog := p;
          Builder.icall b ~dst:r site [ operand rng ] ~fptr:(Reg fp);
          vals := r :: !vals
        | _ ->
          let r = Builder.reg b in
          let op = Rng.choose rng [| Add; Sub; Mul; Xor; And; Or |] in
          Builder.assign b r (Binop (op, operand rng, operand rng));
          vals := r :: !vals
      done;
      (* Terminator: strictly forward edges keep every CFG a DAG. *)
      let succs = Array.sub blocks (bi + 1) (Array.length blocks - bi - 1) in
      if Array.length succs = 0 || Rng.int rng 4 = 0 then
        Builder.ret b (if Rng.bool rng then Some (operand rng) else None)
      else
        match Rng.int rng 3 with
        | 0 -> Builder.jmp b (Rng.choose rng succs)
        | 1 -> Builder.br b (operand rng) (Rng.choose rng succs) (Rng.choose rng succs)
        | _ ->
          let cases =
            List.init (1 + Rng.int rng 3) (fun v -> (v, Rng.choose rng succs))
          in
          Builder.switch b
            ~lowering:(if Rng.bool rng then Jump_table else Branch_ladder)
            (operand rng) cases ~default:(Rng.choose rng succs))
    blocks;
  (!prog, Builder.finish b ())

(* Chain-biased generator: functions whose CFGs are long runs of
   single-predecessor blocks linked by unconditional jumps — exactly the
   shape superblock traces fuse.  Occasional conditional
   branches, skip edges and duplicated-target [Br]s break some chains
   mid-way, so the head/interior analysis sees merges and non-[Jmp]
   single-predecessor edges too; occasional calls split fused segments;
   and a rare dynamically out-of-bounds load plants a fault in the
   middle of a fused segment. *)
let random_chain_func rng prog ~name ~callees =
  let params = 1 + Rng.int rng 2 in
  let b = Builder.create ~name ~params in
  let len = 4 + Rng.int rng 10 in
  let blocks = Array.of_list (0 :: List.init (len - 1) (fun _ -> Builder.new_block b)) in
  let prog = ref prog in
  let vals = ref (List.init params (fun i -> i)) in
  let operand rng =
    if !vals <> [] && Rng.bool rng then Reg (Rng.choose rng (Array.of_list !vals))
    else Imm (Rng.int rng 100)
  in
  Array.iteri
    (fun bi label ->
      Builder.switch_to b label;
      let n_insts = 1 + Rng.int rng 4 in
      for _ = 1 to n_insts do
        match Rng.int rng 12 with
        | 0 -> Builder.store b ~addr:(Imm (16 + Rng.int rng 16)) ~value:(operand rng)
        | 1 ->
          let r = Builder.reg b in
          Builder.assign b r (Load (Imm (Rng.int rng mem_cells)));
          vals := r :: !vals
        | 2 -> Builder.observe b (operand rng)
        | 3 when callees <> [] ->
          let callee = Rng.choose rng (Array.of_list callees) in
          let r = Builder.reg b in
          let p, site = Program.fresh_site !prog in
          prog := p;
          Builder.call b ~dst:r site callee [ operand rng; operand rng ];
          vals := r :: !vals
        | 4 ->
          (* dynamically out-of-bounds address: a fault mid-segment must
             roll the batched accounting back bit-exactly *)
          let a = Builder.reg b in
          Builder.assign b a (Const (mem_cells + 100 + Rng.int rng 50));
          if Rng.int rng 4 = 0 then begin
            let r = Builder.reg b in
            Builder.assign b r (Load (Reg a));
            vals := r :: !vals
          end
        | _ ->
          let r = Builder.reg b in
          let op = Rng.choose rng [| Add; Sub; Mul; Xor; And; Or |] in
          Builder.assign b r (Binop (op, operand rng, operand rng));
          vals := r :: !vals
      done;
      if bi = Array.length blocks - 1 then
        Builder.ret b (if Rng.bool rng then Some (operand rng) else None)
      else
        let next = blocks.(bi + 1) in
        match Rng.int rng 8 with
        | 0 ->
          (* both arms hit the next block: two predecessors, chain broken *)
          Builder.br b (operand rng) next next
        | 1 when bi + 2 < Array.length blocks ->
          (* skip edge: next keeps one pred but merges further down *)
          Builder.br b (operand rng) next blocks.(bi + 2)
        | 2 -> Builder.ret b (Some (operand rng))
        | _ -> Builder.jmp b next)
    blocks;
  (!prog, Builder.finish b ())

(* Call-chain-biased generator: deep chains of direct calls ending in
   straight-line leaves, so call/return seams dominate the run.  Leaves
   are CAssign/CStore/CObserve-only with [Jmp]-chained blocks (one
   superblock trace each); some plant a deterministically faulting load
   (a fault in the middle of a leaf's batched segment must roll the
   accounting back bit-exactly), and a few are deliberately oversized.
   Callers make several calls per activation, so each run enters leaves
   through both the link trampoline and the linked body. *)
let random_leaf_func rng ~name =
  let params = 1 + Rng.int rng 2 in
  let b = Builder.create ~name ~params in
  let oversized = Rng.int rng 10 = 0 in
  let nblocks = 1 + Rng.int rng 2 in
  let blocks = Array.of_list (0 :: List.init (nblocks - 1) (fun _ -> Builder.new_block b)) in
  let vals = ref (List.init params (fun i -> i)) in
  let operand rng =
    if !vals <> [] && Rng.bool rng then Reg (Rng.choose rng (Array.of_list !vals))
    else Imm (Rng.int rng 100)
  in
  Array.iteri
    (fun bi label ->
      Builder.switch_to b label;
      let n_insts = if oversized then 30 else 2 + Rng.int rng 5 in
      for _ = 1 to n_insts do
        match Rng.int rng 10 with
        | 0 -> Builder.store b ~addr:(Imm (16 + Rng.int rng 16)) ~value:(operand rng)
        | 1 -> Builder.observe b (operand rng)
        | 2 ->
          let r = Builder.reg b in
          Builder.assign b r (Load (Imm (Rng.int rng mem_cells)));
          vals := r :: !vals
        | 3 when Rng.int rng 3 = 0 ->
          (* deterministically out-of-bounds: faults mid-fused-body *)
          let a = Builder.reg b in
          Builder.assign b a (Const (mem_cells + 50 + Rng.int rng 50));
          let r = Builder.reg b in
          Builder.assign b r (Load (Reg a));
          vals := r :: !vals
        | _ ->
          let r = Builder.reg b in
          let op = Rng.choose rng [| Add; Sub; Mul; Xor; And; Or; Shl; Shr; Lt; Eq |] in
          Builder.assign b r (Binop (op, operand rng, operand rng));
          vals := r :: !vals
      done;
      if bi = Array.length blocks - 1 then
        Builder.ret b (if Rng.bool rng then Some (operand rng) else None)
      else Builder.jmp b blocks.(bi + 1))
    blocks;
  Builder.finish b ()

let random_caller_func rng prog ~name ~callees =
  let params = 1 + Rng.int rng 2 in
  let b = Builder.create ~name ~params in
  let nblocks = 1 + Rng.int rng 2 in
  let blocks = Array.of_list (0 :: List.init (nblocks - 1) (fun _ -> Builder.new_block b)) in
  let prog = ref prog in
  let vals = ref (List.init params (fun i -> i)) in
  let operand rng =
    if !vals <> [] && Rng.bool rng then Reg (Rng.choose rng (Array.of_list !vals))
    else Imm (Rng.int rng 100)
  in
  Array.iteri
    (fun bi label ->
      Builder.switch_to b label;
      (* several calls per block: leaf heat accumulates fast *)
      let n_items = 2 + Rng.int rng 3 in
      for _ = 1 to n_items do
        match Rng.int rng 4 with
        | 0 ->
          let r = Builder.reg b in
          Builder.assign b r (Binop (Add, operand rng, operand rng));
          vals := r :: !vals
        | _ ->
          let callee = Rng.choose rng (Array.of_list callees) in
          let p, site = Program.fresh_site !prog in
          prog := p;
          if Rng.int rng 5 = 0 then Builder.call b site callee [ operand rng ]
          else begin
            let r = Builder.reg b in
            Builder.call b ~dst:r site callee [ operand rng; operand rng ];
            vals := r :: !vals
          end
      done;
      if bi = Array.length blocks - 1 then
        Builder.ret b (if Rng.bool rng then Some (operand rng) else None)
      else Builder.jmp b blocks.(bi + 1))
    blocks;
  (!prog, Builder.finish b ())

(* [random_call_program seed]: a deep linear spine f0 -> f1 -> ... whose
   lower half are straight-line leaves; every fi may also call any
   fj (j > i), so seams appear at several depths of one activation. *)
let random_call_program seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 4 in
  let names = List.init n (fun i -> Printf.sprintf "f%d" i) in
  let prog = ref (Program.with_globals_size Program.empty mem_cells) in
  let rec build i =
    if i < 0 then ()
    else begin
      if i >= (n + 1) / 2 then prog := Program.add_func !prog (random_leaf_func rng ~name:(List.nth names i))
      else begin
        let callees = List.filteri (fun j _ -> j > i) names in
        let p, f = random_caller_func rng !prog ~name:(List.nth names i) ~callees in
        prog := Program.add_func p f
      end;
      build (i - 1)
    end
  in
  build (n - 1);
  let p = !prog in
  (match Validate.check_program p with
  | [] -> ()
  | errs ->
    failwith
      (Printf.sprintf "random_call_program %d invalid: %s" seed
         (String.concat "; " (List.map (fun e -> e.Validate.what) errs))));
  p

(* [random_chain_program seed]: a few chain-heavy functions in a call
   DAG, validated like [random_program]. *)
let random_chain_program seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 3 in
  let names = List.init n (fun i -> Printf.sprintf "f%d" i) in
  let prog = ref (Program.with_globals_size Program.empty mem_cells) in
  let rec build i =
    if i < 0 then ()
    else begin
      let callees = List.filteri (fun j _ -> j > i) names in
      let p, f = random_chain_func rng !prog ~name:(List.nth names i) ~callees in
      prog := Program.add_func p f;
      build (i - 1)
    end
  in
  build (n - 1);
  let p = !prog in
  (match Validate.check_program p with
  | [] -> ()
  | errs ->
    failwith
      (Printf.sprintf "random_chain_program %d invalid: %s" seed
         (String.concat "; " (List.map (fun e -> e.Validate.what) errs))));
  p

(* [random_program seed] builds a small valid program: a DAG of functions
   (later names callable from earlier ones), a fptr table over the leafier
   half, and memory cells 0-7 holding valid fptr indices. *)
let random_program seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 4 in
  let names = List.init n (fun i -> Printf.sprintf "f%d" i) in
  let prog = ref (Program.with_globals_size Program.empty mem_cells) in
  (* Build leaves-first so callees exist; fi may call fj for j > i. *)
  let rec build i =
    if i < 0 then ()
    else begin
      (* Indirect calls only from the first half, targeting the second
         half: no cycles even through the fptr table. *)
      let callees = List.filteri (fun j _ -> j > i) names in
      let p, f =
        random_func rng !prog ~name:(List.nth names i) ~callees
          ~n_fptrs:(if i < n / 2 then 1 else 0)
      in
      prog := Program.add_func p f;
      build (i - 1)
    end
  in
  build (n - 1);
  (* fptr table over the leafier half (guaranteed call-DAG safe targets). *)
  let targets = List.filteri (fun j _ -> j >= n / 2) names in
  List.iter
    (fun t ->
      let p, _ = Program.add_fptr !prog t in
      prog := p)
    targets;
  let n_targets = List.length targets in
  for cell = 0 to fptr_cells - 1 do
    prog := Program.set_global !prog ~addr:cell ~value:(Rng.int rng n_targets)
  done;
  let p = !prog in
  (match Validate.check_program p with
  | [] -> ()
  | errs ->
    failwith
      (Printf.sprintf "random_program %d invalid: %s" seed
         (String.concat "; " (List.map (fun e -> e.Validate.what) errs))));
  p

(* [f] with its terminators redrawn over all of its labels, back edges
   and self-loops included, so CFG analyses see the cycles, unreachable
   blocks and Ret-less regions the generators' DAGs never have.  For
   analyses only: the result may not terminate if run. *)
let with_cycles rng (f : func) =
  let n = Array.length f.blocks in
  let label () = Rng.int rng n in
  let cond b =
    match Array.find_map (function Assign (d, _) -> Some (Reg d) | _ -> None) b.insts with
    | Some r -> r
    | None -> Imm 1
  in
  {
    f with
    blocks =
      Array.map
        (fun b ->
          match Rng.int rng 4 with
          | 0 -> b
          | 1 -> { b with term = Jmp (label ()) }
          | 2 -> { b with term = Br (cond b, label (), label ()) }
          | _ ->
            {
              b with
              term =
                Switch
                  {
                    scrutinee = cond b;
                    cases = [| (0, label ()); (1, label ()) |];
                    default = label ();
                    lowering = Branch_ladder;
                  };
            })
        f.blocks;
  }

(* ------------------------------------------------------------------ *)
(* Differential equivalence                                             *)
(* ------------------------------------------------------------------ *)

type observation = {
  trace : int list;
  results : int option list;
  memory : int list;
}

let observe prog ~calls =
  let config = { Pibe_cpu.Engine.default_config with Pibe_cpu.Engine.record_trace = true } in
  let engine = Pibe_cpu.Engine.create ~config prog in
  let results = List.map (fun (entry, args) -> Pibe_cpu.Engine.call engine entry args) calls in
  {
    trace = Pibe_cpu.Engine.trace engine;
    results;
    memory = Array.to_list (Pibe_cpu.Engine.memory engine);
  }

let standard_calls prog =
  match Program.find_opt prog "f0" with
  | None -> []
  | Some f ->
    List.init 5 (fun i -> ("f0", List.init f.params (fun j -> (i * 7) + j)))

let equivalent ?calls a b =
  let calls = match calls with Some c -> c | None -> standard_calls a in
  observe a ~calls = observe b ~calls

(* ------------------------------------------------------------------ *)
(* Shared quick environment                                             *)
(* ------------------------------------------------------------------ *)

let quick_env = lazy (Pibe.Env.quick ())
let env () = Lazy.force quick_env

let quick_info = lazy (Pibe_kernel.Gen.generate { Pibe_kernel.Ctx.seed = 42; scale = 1 })
let kernel () = Lazy.force quick_info

(* The paper-scale kernel (seed 42, scale 3) and its training profile:
   the one whose lax inlining grows [syscall_entry] to about 2,000
   blocks. *)
let scale3_env = lazy (Pibe.Env.create ~scale:3 ())
let env3 () = Lazy.force scale3_env

(* The program [spec] leaves behind on [env]'s kernel and profile,
   before hardening ([spec] holds no defense pass). *)
let optimized env spec =
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  match
    Result.bind (Pibe_pm.Spec.of_string spec) (fun spec ->
        Pibe.Pipeline.run_spec prog (Pibe.Env.lmbench_profile env) spec)
  with
  | Ok r -> r.Pibe_pm.Manager.image.Pibe_harden.Pass.prog
  | Error e -> failwith ("Helpers.optimized: " ^ e)

let qcheck_to_alcotest = QCheck_alcotest.to_alcotest
