open Pibe_ir
open Types

type stats = {
  folded : int;
  branches_folded : int;
  blocks_removed : int;
  dead_assigns_removed : int;
}

let zero_stats = { folded = 0; branches_folded = 0; blocks_removed = 0; dead_assigns_removed = 0 }

let add_stats a b =
  {
    folded = a.folded + b.folded;
    branches_folded = a.branches_folded + b.branches_folded;
    blocks_removed = a.blocks_removed + b.blocks_removed;
    dead_assigns_removed = a.dead_assigns_removed + b.dead_assigns_removed;
  }

(* ------------------------------------------------------------------ *)
(* Block-local constant / copy propagation with folding.               *)
(* ------------------------------------------------------------------ *)

type binding =
  | Known of int
  | Copy of reg

(* All rewrites below preserve physical identity when nothing changes:
   an untouched instruction comes back [==] to the input, an untouched
   block comes back as the same record, and a converged [run_once]
   returns the function it was given.  That lets the fixpoint check in
   [run_func_with_stats] test [==] first and skip the structural compare,
   which (unlike [compare]) does not stop at physically equal values and
   would walk the whole converged function; and it stops every pass from
   reallocating an identical copy of every function it merely inspects.
   The produced values are structurally identical either way, so pass
   output and stats do not change. *)

let rec map_shared f = function
  | [] -> []
  | x :: rest as l ->
    let x' = f x in
    let rest' = map_shared f rest in
    if x' == x && rest' == rest then l else x' :: rest'

let array_shared a' a =
  let n = Array.length a' in
  let rec same i = i >= n || (Array.unsafe_get a' i == Array.unsafe_get a i && same (i + 1)) in
  if Array.length a = n && same 0 then a else a'

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
  (* Reassigning [d] kills both its binding and any copies of it. *)
  let kill d =
    Hashtbl.remove env d;
    let stale =
      Hashtbl.fold
        (fun k v acc -> match v with Copy r when r = d -> k :: acc | _ -> acc)
        env []
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
      let args' = map_shared resolve_operand c.args in
      let i' = if args' == c.args then i else Call { c with args = args' } in
      Option.iter kill c.dst;
      i'
    | Icall c ->
      let fptr' = resolve_operand c.fptr in
      let args' = map_shared resolve_operand c.args in
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
  let insts = array_shared (Array.map rewrite_inst b.insts) b.insts in
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

(* ------------------------------------------------------------------ *)
(* Jump threading + unreachable-block removal (joint label rewrite).   *)
(* ------------------------------------------------------------------ *)

let map_labels term ~f =
  match term with
  | Jmp l ->
    let l' = f l in
    if l' = l then term else Jmp l'
  | Br (c, l1, l2) ->
    let l1' = f l1 and l2' = f l2 in
    if l1' = l1 && l2' = l2 then term else Br (c, l1', l2')
  | Switch s ->
    let cases =
      array_shared
        (Array.map
           (fun ((v, l) as p) ->
             let l' = f l in
             if l' = l then p else (v, l'))
           s.cases)
        s.cases
    in
    let default = f s.default in
    if cases == s.cases && default = s.default then term
    else Switch { s with cases; default }
  | Ret _ as t -> t

let thread_and_compact f =
  let n = Array.length f.blocks in
  (* forwarding: an empty block ending in jmp forwards to its target *)
  let forward = Array.init n (fun l -> l) in
  Array.iteri
    (fun l b ->
      match b.term with
      | Jmp m when Array.length b.insts = 0 && m <> l -> forward.(l) <- m
      | _ -> ())
    f.blocks;
  let rec resolve seen l =
    if List.mem l seen then l
    else if forward.(l) = l then l
    else resolve (l :: seen) forward.(l)
  in
  let resolve l = resolve [] l in
  let blocks =
    array_shared
      (Array.map
         (fun b ->
           let term = map_labels b.term ~f:resolve in
           if term == b.term then b else { b with term })
         f.blocks)
      f.blocks
  in
  let f = if blocks == f.blocks then f else { f with blocks } in
  (* drop unreachable blocks and compact the label space *)
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
  let removed = n - !next in
  if removed = 0 then (f, 0)
  else begin
    let kept = Array.make !next { insts = [||]; term = Ret None } in
    Array.iteri
      (fun l b ->
        if reachable.(l) then
          kept.(mapping.(l)) <- { b with term = map_labels b.term ~f:(fun m -> mapping.(m)) })
      f.blocks;
    ({ f with blocks = kept }, removed)
  end

(* ------------------------------------------------------------------ *)
(* Global liveness + dead pure-assignment elimination.                 *)
(* ------------------------------------------------------------------ *)

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

let eliminate_dead f =
  let n = Array.length f.blocks in
  (* Backward dataflow: live-in/live-out per block, worklist-driven.  A
     block is rescanned only when the live-in of a successor changed, so
     converged regions are never revisited and there is no final
     verify-everything pass.  Liveness is a monotone framework with a
     unique least fixpoint, so the visit order cannot change the
     result. *)
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
  (* seed head-first with block n-1 so the initial sweep runs in the
     reverse order that backward liveness converges fastest in *)
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
              (* pure computation whose result is never read: drop it
                 (loads are treated as speculatable, as in LLVM) *)
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

(* ------------------------------------------------------------------ *)

let run_once f =
  let folded = ref 0 and branches = ref 0 in
  let blocks =
    array_shared
      (Array.map
         (fun b ->
           let b', fo, br = propagate_block b in
           folded := !folded + fo;
           branches := !branches + br;
           b')
         f.blocks)
      f.blocks
  in
  let f = if blocks == f.blocks then f else { f with blocks } in
  let f, removed_blocks = thread_and_compact f in
  let f, dead = eliminate_dead f in
  ( f,
    {
      folded = !folded;
      branches_folded = !branches;
      blocks_removed = removed_blocks;
      dead_assigns_removed = dead;
    } )

let run_func_with_stats f =
  let rec go f acc iters =
    if iters = 0 then (f, acc)
    else
      let f', s = run_once f in
      let acc = add_stats acc s in
      if f' == f || f' = f then (f', acc) else go f' acc (iters - 1)
  in
  go f zero_stats 8

let run_func f = fst (run_func_with_stats f)

let run_with_stats prog =
  Program.fold_funcs prog ~init:(prog, zero_stats) ~f:(fun (acc, total) f ->
      if f.attrs.optnone || f.attrs.is_asm then (acc, total)
      else
        let f', s = run_func_with_stats f in
        (Program.update_func acc f', add_stats total s))

let run prog = fst (run_with_stats prog)
