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
(* Operand walks and register slots.                                   *)
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

(* Register slots, the index of every per-register array below.
   Validated IR names registers densely from 0, so a name is its own
   slot.  A body naming a negative register (which the validator
   rejects) or one at twice its count of register mentions or beyond (a
   very sparse body) is renumbered through a table instead, so no name
   can size an array beyond the body.  Cleanup never names a register
   its input does not, so the slots of a body serve every body cleanup
   derives from it. *)
let slots f =
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

(* ------------------------------------------------------------------ *)
(* Block-local constant / copy propagation with folding.               *)
(* ------------------------------------------------------------------ *)

(* All rewrites below preserve physical identity when nothing changes:
   an untouched instruction comes back [==] to the input, an untouched
   block comes back as the same record, and a function none of whose
   blocks change comes back as itself.  That is how the round loop in
   [run_func_with_stats] tells that propagation changed nothing, and it
   stops every pass from reallocating an identical copy of every
   function it merely inspects. *)

let array_shared a' a =
  let n = Array.length a' in
  let rec same i = i >= n || (Array.unsafe_get a' i == Array.unsafe_get a i && same (i + 1)) in
  if Array.length a = n && same 0 then a else a'

(* The bindings of the block under propagation, one entry per register
   slot, made once per function and reused by every block and round.
   Every assignment to a register ticks [clock] and stamps its slot's
   [defined] with it, and [binding] holds what that assignment made the
   register: a constant ([Imm]), a copy of another register ([Reg]), or
   nothing ([unbound]).  A slot whose stamp predates [start], the clock
   when the current block began, is unbound, so starting a block clears
   nothing.  A copy is valid while its source has not been assigned
   since, so reassigning a register retires every copy of it at once:
   a kill costs O(1), not a search of the bindings for its copies. *)
type env = {
  slot : reg -> int;
  defined : int array;
  binding : operand array;
  mutable clock : int;
  mutable start : int;
  mutable folded : int;
  mutable branches : int;
}

(* Physically distinct from every binding: constants are bound as fresh
   [Imm] values. *)
let unbound = Imm 0

let env_of (size, slot) =
  {
    slot;
    defined = Array.make size 0;
    binding = Array.make size unbound;
    clock = 0;
    start = 0;
    folded = 0;
    branches = 0;
  }

let resolve env o =
  match o with
  | Imm _ -> o
  | Reg r -> (
    let s = env.slot r in
    let t = env.defined.(s) in
    if t <= env.start then o
    else
      match env.binding.(s) with
      | Imm _ as c when c != unbound ->
        env.folded <- env.folded + 1;
        c
      | Reg src as c when env.defined.(env.slot src) < t ->
        env.folded <- env.folded + 1;
        c
      | Imm _ | Reg _ -> o)

let rec resolve_list env = function
  | [] -> []
  | o :: rest as l ->
    let o' = resolve env o in
    let rest' = resolve_list env rest in
    if o' == o && rest' == rest then l else o' :: rest'

(* Records an assignment to [d] that binds it to [b]. *)
let assign env d b =
  let s = env.slot d in
  env.clock <- env.clock + 1;
  env.defined.(s) <- env.clock;
  env.binding.(s) <- b

let rewrite_expr env e =
  match e with
  | Const _ -> e
  | Move (Imm c) -> Const c
  | Move (Reg _ as o) -> (
    match resolve env o with
    | Imm c -> Const c
    | Reg _ as o' -> if o' == o then e else Move o')
  | Binop (op, a, b) -> (
    match (resolve env a, resolve env b) with
    | Imm x, Imm y ->
      env.folded <- env.folded + 1;
      Const (eval_binop op x y)
    | a', b' -> if a' == a && b' == b then e else Binop (op, a', b'))
  | Load o ->
    let o' = resolve env o in
    if o' == o then e else Load o'

let rewrite_inst env i =
  match i with
  | Assign (d, e) ->
    let e' = rewrite_expr env e in
    (* a register copied to itself stays unbound: resolving it would
       only rename it to itself *)
    assign env d
      (match e' with
      | Const c -> Imm c
      | Move (Reg r as o) when r <> d -> o
      | Move _ | Binop _ | Load _ -> unbound);
    if e' == e then i else Assign (d, e')
  | Store (a, v) ->
    let a' = resolve env a and v' = resolve env v in
    if a' == a && v' == v then i else Store (a', v')
  | Observe v ->
    let v' = resolve env v in
    if v' == v then i else Observe v'
  | Call c ->
    let args' = resolve_list env c.args in
    let i' = if args' == c.args then i else Call { c with args = args' } in
    (match c.dst with Some d -> assign env d unbound | None -> ());
    i'
  | Icall c ->
    let fptr' = resolve env c.fptr in
    let args' = resolve_list env c.args in
    let i' =
      if fptr' == c.fptr && args' == c.args then i
      else Icall { c with fptr = fptr'; args = args' }
    in
    (match c.dst with Some d -> assign env d unbound | None -> ());
    i'
  | Asm_icall c ->
    let fptr' = resolve env c.fptr in
    if fptr' == c.fptr then i else Asm_icall { c with fptr = fptr' }

(* One pass over one block.  Every operand it leaves is either an
   immediate or a register unbound at that point (a copy's source is
   unbound when the copy is made, and binding it again first kills it),
   so a second pass over its result changes nothing: a block needs
   propagating again only once something else rewrote its body. *)
let propagate_block env b =
  env.start <- env.clock;
  let src = b.insts in
  let insts = ref src in
  for i = 0 to Array.length src - 1 do
    let x = src.(i) in
    let x' = rewrite_inst env x in
    if x' != x then begin
      if !insts == src then insts := Array.copy src;
      !insts.(i) <- x'
    end
  done;
  let term =
    match b.term with
    | Jmp _ as t -> t
    | Br (c, l1, l2) as t -> (
      match resolve env c with
      | Imm v ->
        env.branches <- env.branches + 1;
        Jmp (if v <> 0 then l1 else l2)
      | Reg _ as c' -> if c' == c then t else Br (c', l1, l2))
    | Switch s as t -> (
      match resolve env s.scrutinee with
      | Imm v ->
        env.branches <- env.branches + 1;
        let target =
          match Array.find_opt (fun (case, _) -> case = v) s.cases with
          | Some (_, l) -> l
          | None -> s.default
        in
        Jmp target
      | Reg _ as sc -> if sc == s.scrutinee then t else Switch { s with scrutinee = sc })
    | Ret None as t -> t
    | Ret (Some v) as t ->
      let v' = resolve env v in
      if v' == v then t else Ret (Some v')
  in
  if !insts == src && term == b.term then b else { insts = !insts; term }

(* Propagates every block of [f] that is not physically the block at its
   label in [prev] (every block when there is no [prev]). *)
let propagate env ~prev f =
  let blocks = f.blocks in
  let out = ref blocks in
  for l = 0 to Array.length blocks - 1 do
    let b = blocks.(l) in
    let dirty = match prev with None -> true | Some p -> b != p.(l) in
    if dirty then begin
      let b' = propagate_block env b in
      if b' != b then begin
        if !out == blocks then out := Array.copy blocks;
        !out.(l) <- b'
      end
    end
  done;
  if !out == blocks then f else { f with blocks = !out }

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

(* Liveness is solved per register, not per block.  A register is live
   out of a block iff a path from one of its successors reads it before
   anything writes it, so a backward walk from the blocks that read it
   first, stopped at the blocks that write it, reaches exactly the
   blocks it is live into and the writers it is live out of.  The sweep
   only asks about a block's own writes, so the writers are all the walk
   records.  The cost is the size of the live ranges, where a per-block
   set dataflow rescans a block and merges whole sets on every worklist
   visit; both compute the same least fixpoint.  The closures the scans,
   walks and sweeps use are made once per call, not per block,
   instruction or register, and read the block or slot at hand from
   refs.

   With [fixpoint], the step is repeated until nothing more is dead, but
   only where a removal can change the answer.  Removing a dead write
   changes no register's liveness, and a removed read can shrink only
   its own register's.  So a register that lost a read in a block it
   was read first in is re-walked from the blocks that still read it
   first, and only its writers it stopped being live out of are swept
   again.  Deadness only grows as reads disappear, so any order of
   removals ends where iterating the whole step does. *)
let dead_core ~fixpoint (size, slot) f =
  let n = Array.length f.blocks in
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
     [reached.(l)] are the stamp of the walk that last marked [l] as
     writing the slot and as live into it.  A slot's first walk is
     stamped with the slot itself, a later one with a number past every
     slot. *)
  let live_out = Array.make n [] in
  let writer = Array.make n (-1) and reached = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 in
  let walk = ref 0 and walked = ref 0 in
  let push l =
    reached.(l) <- !walk;
    stack.(!top) <- l;
    incr top
  in
  let start e = if e land 1 = 1 then writer.(e / 2) <- !walk else push (e / 2) in
  let visit p =
    if writer.(p) = !walk then begin
      let s = !walked in
      match live_out.(p) with
      | s' :: _ when s' = s -> ()
      | ss -> live_out.(p) <- s :: ss
    end
    else if reached.(p) <> !walk then push p
  in
  let solve stamp s =
    walk := stamp;
    walked := s;
    List.iter start events.(s);
    while !top > 0 do
      decr top;
      List.iter visit preds.(stack.(!top))
    done
  in
  Array.iteri
    (fun s es ->
      match es with
      | e :: _ when e land 1 = 1 -> solve s s
      | _ -> ())
    events;
  (* The removal sweep, backward through one block over [mark], stamped
     per sweep: while a sweep runs, [mark.(s) = !live] means slot [s] is
     live at that point (the scans left only labels below [n] there, and
     sweep stamps start at [n]).  The blocks array is copied on the
     first removal.  With [fixpoint], [lost_in.(s)] lists the blocks
     whose removals read slot [s], and [lost] the slots with such a
     list. *)
  let live = ref n and stamp = ref n in
  let gen r = mark.(slot r) <- !live in
  let gen_slot s = mark.(s) <- !live in
  let kill r = mark.(slot r) <- -1 in
  let lost = ref [] and lost_in = if fixpoint then Array.make size [] else [||] in
  let lose r =
    let s = slot r and l = !cur in
    match lost_in.(s) with
    | [] ->
      lost := s :: !lost;
      lost_in.(s) <- [ l ]
    | l' :: _ when l' = l -> ()
    | ls -> lost_in.(s) <- l :: ls
  in
  let removed = ref 0 and blocks = ref f.blocks in
  let sweep l =
    let b = !blocks.(l) in
    cur := l;
    live := !stamp;
    incr stamp;
    List.iter gen_slot live_out.(l);
    iter_term_uses gen b.term;
    let dead = ref [] in
    for i = Array.length b.insts - 1 downto 0 do
      match b.insts.(i) with
      | Assign (d, _) when mark.(slot d) <> !live ->
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
        | d :: rest when d = i ->
          dead := rest;
          if fixpoint then iter_inst_uses lose b.insts.(i)
        | _ ->
          kept.(!next) <- b.insts.(i);
          incr next
      done;
      if !blocks == f.blocks then blocks := Array.copy f.blocks;
      !blocks.(l) <- { b with insts = kept }
  in
  for l = 0 to n - 1 do
    sweep l
  done;
  if fixpoint then begin
    (* Does block [l] still read slot [!probed] before writing it? *)
    let probed = ref 0 and hit = ref false in
    let probe r = if slot r = !probed then hit := true in
    let reads_first s l =
      let b = !blocks.(l) in
      probed := s;
      hit := false;
      let i = ref 0 and written = ref false in
      while (not !hit) && (not !written) && !i < Array.length b.insts do
        let inst = b.insts.(!i) in
        iter_inst_uses probe inst;
        if not !hit then begin
          iter_inst_def probe inst;
          if !hit then begin
            hit := false;
            written := true
          end
        end;
        incr i
      done;
      if not (!hit || !written) then iter_term_uses probe b.term;
      !hit
    in
    let walks = ref size and batch = ref 0 in
    let queued = Array.make n (-1) and todo = ref [] in
    let requeue s e =
      if e land 1 = 1 then
        match live_out.(e / 2) with
        | s' :: _ when s' = s -> ()
        | _ ->
          let w = e / 2 in
          if queued.(w) <> !batch then begin
            queued.(w) <- !batch;
            todo := w :: !todo
          end
    in
    let resolve s =
      let gone = List.filter (fun l -> not (reads_first s l)) lost_in.(s) in
      lost_in.(s) <- [];
      let es = events.(s) in
      let es' = List.filter (fun e -> e land 1 = 1 || not (List.mem (e / 2) gone)) es in
      if List.compare_lengths es' es <> 0 then begin
        events.(s) <- es';
        (* the writers [s] was live out of stop there only if the new
           walk reaches them again *)
        let was =
          List.filter (fun e -> e land 1 = 1 && List.mem s live_out.(e / 2)) es'
        in
        if was <> [] then begin
          List.iter
            (fun e -> live_out.(e / 2) <- List.filter (fun s' -> s' <> s) live_out.(e / 2))
            was;
          solve !walks s;
          incr walks;
          List.iter (requeue s) was
        end
      end
    in
    while !lost <> [] do
      let slots = !lost in
      lost := [];
      incr batch;
      List.iter resolve slots;
      let sweeps = !todo in
      todo := [];
      List.iter sweep sweeps
    done
  end;
  if !removed = 0 then (f, 0) else ({ f with blocks = !blocks }, !removed)

let eliminate_dead f = dead_core ~fixpoint:false (slots f) f
let eliminate_dead_fixpoint f = dead_core ~fixpoint:true (slots f) f

(* ------------------------------------------------------------------ *)

(* Each round propagates, threads, then removes dead assignments to
   their fixpoint.  Only a round's removals can give propagation more to
   do (a removed write of [d] no longer retires the copies of [d]), so
   the next round propagates only the blocks they rewrote.  The loop
   ends after a round whose removal found nothing, or a later round
   whose propagation changed nothing: threading is idempotent and
   leaves liveness alone, so neither needs another pass.  Every round
   that goes on removed an assignment, so the loop ends without a
   cap. *)
let run_func_with_stats f =
  let slots = slots f in
  let env = env_of slots in
  let rec round prev f blocks_removed dead_removed =
    let g = propagate env ~prev f in
    let h, removed = thread_and_compact g in
    let blocks_removed = blocks_removed + removed in
    let finish f dead_removed =
      ( f,
        {
          folded = env.folded;
          branches_folded = env.branches;
          blocks_removed;
          dead_assigns_removed = dead_removed;
        } )
    in
    match prev with
    | Some _ when g == f -> finish h dead_removed
    | _ ->
      let i, dead = dead_core ~fixpoint:true slots h in
      if dead = 0 then finish i dead_removed
      else round (Some h.blocks) i blocks_removed (dead_removed + dead)
  in
  round None f 0 0

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
