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
(* Sparse liveness + dead pure-assignment elimination.                 *)
(* ------------------------------------------------------------------ *)

let iter_operand g = function
  | Imm _ -> ()
  | Reg r -> g r

let rec iter_operands g = function
  | [] -> ()
  | o :: rest ->
    iter_operand g o;
    iter_operands g rest

let iter_inst_uses g = function
  | Assign (_, Const _) -> ()
  | Assign (_, (Move o | Load o)) | Observe o | Asm_icall { fptr = o; _ } -> iter_operand g o
  | Assign (_, Binop (_, a, b)) | Store (a, b) ->
    iter_operand g a;
    iter_operand g b
  | Call { args; _ } -> iter_operands g args
  | Icall { fptr; args; _ } ->
    iter_operand g fptr;
    iter_operands g args

let iter_inst_def g = function
  | Assign (d, _) | Call { dst = Some d; _ } | Icall { dst = Some d; _ } -> g d
  | Call { dst = None; _ } | Icall { dst = None; _ } | Asm_icall _ | Store _ | Observe _ -> ()

let iter_term_uses g = function
  | Jmp _ | Ret None -> ()
  | Br (o, _, _) | Switch { scrutinee = o; _ } | Ret (Some o) -> iter_operand g o

(* Liveness is solved per register, not per block.  A register is live
   out of a block iff a path from one of its successors reads it before
   anything writes it, so a backward walk from the blocks that read it
   first, stopped at the blocks that write it, reaches exactly the
   blocks it is live into and the writers it is live out of.  The sweep
   only asks about a block's own writes, so the writers are all the walk
   records.  The cost is the size of the live ranges, where a per-block
   set dataflow rescans a block and merges whole sets on every worklist
   visit; both compute the same least fixpoint.  The closures below are
   made once per call, not per block or register, and read the block or
   slot at hand from [cur]. *)
let eliminate_dead f =
  let n = Array.length f.blocks in
  (* Register slots.  Validated IR names registers densely from 0, so a
     name is its own slot.  A body naming a negative register (which the
     validator rejects) or one at twice its count of register mentions
     or beyond (a very sparse body) is renumbered through a table
     instead, so no name can size an array beyond the body. *)
  let lo = ref 0 and hi = ref (-1) and mentions = ref 0 in
  let note r =
    incr mentions;
    if r < !lo then lo := r;
    if r > !hi then hi := r
  in
  let note_inst i =
    iter_inst_uses note i;
    iter_inst_def note i
  in
  Array.iter
    (fun b ->
      Array.iter note_inst b.insts;
      iter_term_uses note b.term)
    f.blocks;
  let size, slot =
    if !lo >= 0 && !hi < 2 * !mentions then (!hi + 1, Fun.id)
    else
      let slots = Hashtbl.create 64 in
      ( !mentions,
        fun r ->
          match Hashtbl.find_opt slots r with
          | Some s -> s
          | None ->
            let s = Hashtbl.length slots in
            Hashtbl.add slots r s;
            s )
  in
  let cur = ref 0 in
  (* Two forward scans fill one list per slot with tagged block labels,
     newest first, each block at most once per tag: [2l] when block [l]
     reads the slot before writing it, then, only for slots some block
     reads that way, [2l + 1] when [l] writes it.  A slot no block reads
     first is dead at every block exit, so its writers need no walk.
     During the first scan [mark.(s)] is the last block that wrote slot
     [s]. *)
  let events = Array.make size [] and mark = Array.make size (-1) in
  let read r =
    let s = slot r and l = !cur in
    if mark.(s) <> l then
      match events.(s) with
      | e :: _ when e = 2 * l -> ()
      | es -> events.(s) <- (2 * l) :: es
  in
  let write r = mark.(slot r) <- !cur in
  let scan_inst i =
    iter_inst_uses read i;
    iter_inst_def write i
  in
  Array.iteri
    (fun l b ->
      cur := l;
      Array.iter scan_inst b.insts;
      iter_term_uses read b.term)
    f.blocks;
  let write r =
    let s = slot r and e = (2 * !cur) + 1 in
    match events.(s) with
    | [] -> ()
    | e' :: _ when e' = e -> ()
    | es -> events.(s) <- e :: es
  in
  let scan_def i = iter_inst_def write i in
  Array.iteri
    (fun l b ->
      cur := l;
      Array.iter scan_def b.insts)
    f.blocks;
  let preds = Array.make n [] in
  let add_pred s = preds.(s) <- !cur :: preds.(s) in
  Array.iteri
    (fun l b ->
      cur := l;
      Func.iter_successors b.term add_pred)
    f.blocks;
  (* The walks, one per slot that is both read first and written.
     [live_out.(l)] collects the slots written in [l] that are live on
     exit from it (a repeat would be at the head); [writer.(l)] and
     [reached.(l)] are the slot whose walk last marked [l] as writing
     it and as live into it. *)
  let live_out = Array.make n [] in
  let writer = Array.make n (-1) and reached = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 in
  let push l =
    reached.(l) <- !cur;
    stack.(!top) <- l;
    incr top
  in
  let start e = if e land 1 = 1 then writer.(e / 2) <- !cur else push (e / 2) in
  let visit p =
    let s = !cur in
    if writer.(p) = s then begin
      match live_out.(p) with
      | s' :: _ when s' = s -> ()
      | ss -> live_out.(p) <- s :: ss
    end
    else if reached.(p) <> s then push p
  in
  Array.iteri
    (fun s es ->
      match es with
      | e :: _ when e land 1 = 1 ->
        cur := s;
        List.iter start es;
        while !top > 0 do
          decr top;
          List.iter visit preds.(stack.(!top))
        done
      | _ -> ())
    events;
  (* The removal sweep, backward through each block over [mark], now
     stamped per block: while sweeping block [l], [mark.(s) = n + l]
     means slot [s] is live at that point (the scans left only labels
     below [n] there).  The blocks array is copied on the first
     removal. *)
  let gen r = mark.(slot r) <- n + !cur in
  let gen_slot s = mark.(s) <- n + !cur in
  let kill r = mark.(slot r) <- -1 in
  let removed = ref 0 and blocks = ref f.blocks in
  Array.iteri
    (fun l b ->
      cur := l;
      List.iter gen_slot live_out.(l);
      iter_term_uses gen b.term;
      let dead = ref [] in
      for i = Array.length b.insts - 1 downto 0 do
        match b.insts.(i) with
        | Assign (d, _) when mark.(slot d) <> n + l ->
          (* pure computation whose result is never read: drop it
             (loads are treated as speculatable, as in LLVM) *)
          dead := i :: !dead
        | inst ->
          iter_inst_def kill inst;
          iter_inst_uses gen inst
      done;
      match !dead with
      | [] -> ()
      | dead ->
        let len = Array.length b.insts and ndead = List.length dead in
        removed := !removed + ndead;
        let kept = Array.make (len - ndead) b.insts.(0) in
        let next = ref 0 and dead = ref dead in
        for i = 0 to len - 1 do
          match !dead with
          | d :: rest when d = i -> dead := rest
          | _ ->
            kept.(!next) <- b.insts.(i);
            incr next
        done;
        if !blocks == f.blocks then blocks := Array.copy f.blocks;
        !blocks.(l) <- { b with insts = kept })
    f.blocks;
  if !removed = 0 then (f, 0) else ({ f with blocks = !blocks }, !removed)

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

(* [run_func_with_stats] reads nothing but its argument, so its result is
   recorded per input function, keyed on physical identity and hashed by
   name as in {!Summary}: the functions ICP and inlining leave alone are
   cleaned once per process, not once per build.  Strong references, at
   most 2^15 of them; a paper-scale build matrix records about 1,900. *)
let cleaned : (func, func * stats) Pibe_util.Memo.t =
  Pibe_util.Memo.create ~capacity:(1 lsl 15) ~hash:(fun f -> Hashtbl.hash f.fname) ~equal:( == ) ()

(* The sum and the per-name rewrite do not depend on the visiting order,
   and a function cleanup leaves as it is keeps its map entry. *)
let run_with_stats prog =
  Program.fold_unordered prog ~init:(prog, zero_stats) ~f:(fun (acc, total) f ->
      if f.attrs.optnone || f.attrs.is_asm then (acc, total)
      else
        let f', s = Pibe_util.Memo.get cleaned f run_func_with_stats in
        ((if f' == f then acc else Program.update_func acc f'), add_stats total s))

let run prog = fst (run_with_stats prog)
