(** Closure-threaded compiled execution backend: lazy superblock traces.

    Lowers every {!Machine.cinst}, expression and terminator into a
    pre-specialized OCaml closure once per program, so the hot loop runs
    flat closure arrays with zero constructor matching and zero
    per-activation closure allocation: operand kinds ([Imm] vs [Reg]),
    binop selection (down to constant-folded immediate pairs), statically
    bounds-checked global loads and stores, per-instruction cycle costs,
    resolved direct-call targets, PHT keys, switch-ladder costs and
    indirect-call protection slots are all baked at closure-construction
    time.

    {2 Superblock traces}

    The unit of lowering is a {e superblock trace}: the chain of blocks a
    label reaches by following unconditional [Jmp] edges (see
    [trace_of]), lowered as ONE closure.  Its instruction streams are
    flattened into one item stream in which each seam — a non-final
    block's [Jmp] — is a zero-body [SJump] item, and maximal runs of
    simple instructions (assign / store / observe, including statically
    bounds-checked loads) are fused into {e segments} with batched
    accounting: one fuel check and one pre-summed step/instruction/cycle
    bump per segment instead of one per instruction, so a hot K-block
    chain pays one fuel check and no per-block closure dispatch at all.
    Branch predictor, RSB, i-cache and PHT state are only materialized at
    conditional branches, indirect transfers and call boundaries —
    exactly where the interpreter touches them.

    Exactness is preserved on every path — each potentially-faulting
    instruction carries baked rollback deltas (cycles, steps and
    instruction counts kept separate, because seams step without retiring
    an instruction) that rewind the not-yet-earned remainder of the batch
    before raising, and a segment that could exhaust its fuel budget
    falls back to a per-item slow path that dies at exactly the
    interpreter's instruction — so cycles, counters and errors stay
    bit-exact even mid-segment (pinned by the out-of-fuel and fault
    differential tests in [test/test_backend.ml]).

    {2 Lazy linking}

    Lowering is lazy at two levels.  A function's body is linked on the
    first call that reaches it: its [fexec] field starts as a trampoline
    that lowers under [link_lock] (double-checked) and publishes the
    linked entry in its own place, so the post-link call path has no
    dispatcher at all.  Inside a linked function every label is again a
    trampoline that lowers the trace headed there on its first dispatch,
    so only the heads a workload actually reaches ever pay for closure
    construction and for their copy of a duplicated tail.  A function's
    entry-live zero set is likewise computed on the first call path that
    needs it, not by [compile].  Lowering is pure and emits nothing
    observable (its trace events are "sched"-category), so which engine
    triggers it, and when, is invisible in cycles, counters, traces or
    errors.

    Each function is lowered once, in one variant with no taint anywhere
    on its path: an engine whose config carries a speculation drill
    state runs {!Interp} instead (see [Engine.create]), so the drills'
    verdicts come straight off the reference semantics.

    Everything whose semantics is shared with the reference interpreter
    (indirect-branch transfer, return path, frame pools, step/fuel
    accounting) is called through {!Machine}, which is what makes the
    backend cycle- and counter-exact against {!Interp} (pinned by
    [test/test_measure.ml] and [test/test_backend.ml]).

    Closures capture only per-program data — never an engine — so one
    compiled program is shared by every engine created on it, across
    domains, exactly like {!Machine.compiled}. *)

open Pibe_ir
open Types
open Machine
module Trace = Pibe_trace.Trace

(* The whole execution state of the running activation — register frame,
   depth, return-prediction target — is threaded through mutable fields
   of [Machine.t] ([cur_regs], [cur_depth], [cur_ret_to]) rather than
   closure arguments.  That makes every hot closure type below arity-1,
   which ocamlopt applies as ONE indirect call at the call site; at
   arity >= 2 every dispatch would detour through the program-wide
   [caml_applyN] trampolines — an extra call frame, an arity check, and a single
   shared indirect-jump site that aliases every dispatch in the program
   in the host's branch-target predictor.  Call chunks save the three
   fields in locals, install the callee's activation, and restore after
   the callee returns; frames come from per-depth pools, so the pointer
   publications usually re-store an unchanged value (see
   [publish_regs]). *)

(* entry of one function; expects the activation installed *)
type fexec = Machine.t -> int option

(* one lowered block/superblock; terminators chain through these *)
type bexec = Machine.t -> int option

(* one chunk (fused segment or complex instruction) of a chain *)
type iexec = Machine.t -> unit

(* Fused-segment instruction bodies: accounting is handled by the
   segment header, and the running frame is read from [t.cur_regs],
   which every invoking chunk publishes before its item run.  That makes
   bodies arity-1 closures over [t] alone — the one unknown-closure
   arity ocamlopt applies as a direct indirect call at the call site.  At arity >= 2 every body
   dispatch would go through the program-wide [caml_apply2] trampoline:
   an extra call frame, an arity check, and — worse — a single shared
   indirect-jump site that aliases every body in the program in the
   host's branch-target predictor.  Threading the frame through [t]
   spreads those jumps back out to one predictable site per segment
   position. *)
type pbody = Machine.t -> unit

type cfunc2 = {
  c2 : cfunc;
  mutable zeroset : int array;
      (* registers some path from entry may read before writing, sorted;
         the only slots of a pooled frame whose initial 0 is observable —
         see [zeroset_of].  [no_zeroset] until first needed, then
         written once under [prog.link_lock] (see [zeroset]) *)
  mutable fexec : fexec;
      (* what call closures invoke: a lazy-linking trampoline until the
         first call, then the linked trace-lowered body *)
  mutable linked : bool;  (* written only under [prog.link_lock], like [fexec] *)
}

type prog = {
  c2by_id : cfunc2 array;
  mem_len : int;  (* length of every engine's global memory, for baked bounds *)
  link_lock : Mutex.t;  (* serializes per-function lazy lowering and zero sets *)
}

let unlinked : fexec = fun _ -> assert false

(* Physically distinct from every computed zero set, the empty one
   included. *)
let no_zeroset : int array = [| -1 |]

(* --------------------- entry-live zero sets -------------------- *)

(* Register frames come from a per-depth pool, so a fresh activation
   sees whatever its predecessor left.  The interpreter zeroes the whole
   file ([frame]); but the only slots whose initial value is observable
   are those some path from the entry block may READ before writing —
   everything else is dead on entry and its stale contents can never
   flow into cycles, memory or traces.  [zeroset_of] computes that set
   once per function, on the first call path that needs it (a standard
   backward may-liveness fixpoint over the compiled blocks), and the
   call paths zero exactly it.  The big straight-line kernel functions
   have register files two orders of magnitude larger than their
   entry-live set, which makes this the difference between ~800 stores
   and ~4 per activation of the hottest callees. *)
let zeroset_of (cf : cfunc) : int array =
  let module RS = Set.Make (Int) in
  let blocks = cf.cblocks in
  let nblocks = Array.length blocks in
  (* Per-block summaries, one pass over each instruction total: [gen] is
     the registers read before any in-block write (sparse — live sets
     stay tiny even in functions with huge register files, which is what
     keeps this affordable on aggressively inlined images), [def] the
     registers the block writes. *)
  let gens = Array.make nblocks RS.empty in
  let defs = Array.make nblocks (Hashtbl.create 0) in
  for l = 0 to nblocks - 1 do
    let b = blocks.(l) in
    let def : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let gen = ref RS.empty in
    let use r = if not (Hashtbl.mem def r) then gen := RS.add r !gen in
    let use_op = function Imm _ -> () | Reg r -> use r in
    let use_expr = function
      | Const _ -> ()
      | Move o | Load o -> use_op o
      | Binop (_, a, b) ->
        use_op a;
        use_op b
    in
    let write r = Hashtbl.replace def r () in
    Array.iter
      (fun i ->
        match i with
        | CAssign (d, e) ->
          use_expr e;
          write d
        | CStore (a, v) ->
          use_op a;
          use_op v
        | CObserve v -> use_op v
        | CCall { dst; args; _ } ->
          Array.iter use_op args;
          (match dst with Some d -> write d | None -> ())
        | CIcall { dst; fptr; args; _ } ->
          use_op fptr;
          Array.iter use_op args;
          (match dst with Some d -> write d | None -> ())
        | CAsm_icall { fptr; _ } -> use_op fptr)
      b.cinsts;
    (match b.cterm with
    | Jmp _ | Ret None -> ()
    | Br (c, _, _) -> use_op c
    | Switch { scrutinee; _ } -> use_op scrutinee
    | Ret (Some v) -> use_op v);
    gens.(l) <- !gen;
    defs.(l) <- def
  done;
  (* Worklist fixpoint over the block summaries:
     live_in = gen ∪ (live_out − def).  A block is revisited only when
     the live-in of a successor changed. *)
  let live_in = Array.make nblocks RS.empty in
  let live_out = Array.make nblocks RS.empty in
  let preds = Array.make nblocks [] in
  for l = 0 to nblocks - 1 do
    List.iter
      (fun s -> preds.(s) <- l :: preds.(s))
      (Func.successors blocks.(l).cterm)
  done;
  let queued = Array.make nblocks true in
  let work = ref [] in
  for l = 0 to nblocks - 1 do
    work := l :: !work
  done;
  let continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | l :: rest ->
      work := rest;
      queued.(l) <- false;
      let out =
        List.fold_left
          (fun acc s -> RS.union acc live_in.(s))
          RS.empty
          (Func.successors blocks.(l).cterm)
      in
      live_out.(l) <- out;
      let def = defs.(l) in
      let inn =
        RS.union gens.(l) (RS.filter (fun r -> not (Hashtbl.mem def r)) out)
      in
      if not (RS.equal inn live_in.(l)) then begin
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
  Array.of_list (RS.elements live_in.(cf.f.entry))

(* The zero set of [c2f], computed on first need: by the direct call
   closures that reach it, the indirect calls that land on it, and the
   engine entry.  Most functions of a program are never called, so
   [compile] computes none.  Published like [fexec]: written once under
   [link_lock] (double-checked), and a racing reader either sees
   [no_zeroset] and takes the lock, or sees the finished array. *)
let publish_zeroset (p : prog) (c2f : cfunc2) =
  Mutex.protect p.link_lock (fun () ->
      if c2f.zeroset == no_zeroset then c2f.zeroset <- zeroset_of c2f.c2;
      c2f.zeroset)

let[@inline] zeroset (p : prog) (c2f : cfunc2) =
  let zs = c2f.zeroset in
  if zs != no_zeroset then zs else publish_zeroset p c2f

(* Zero the zeroset slots at index >= [n] (the written argument prefix)
   of a pooled frame. *)
let[@inline] zero_tail (zs : int array) n (fr : int array) =
  for i = 0 to Array.length zs - 1 do
    let r = Array.unsafe_get zs i in
    if r >= n then Array.unsafe_set fr r 0
  done

(* ------------------------- operands ---------------------------- *)

(* The specialized bodies below use unchecked array accesses: every
   static register index and block label was checked once per program
   by [Machine.compile] ([func_valid]; Builder and Validate enforce the
   same bounds, and a program that fails never reaches lowering), and
   every pooled frame has length >= the program-wide
   [max_regs] >= the function's [nregs].  Global-memory accesses keep
   their explicit bounds check against the baked [mem_len] (the fault
   path is observable semantics) and go unchecked only after it. *)

let cop : operand -> int array -> int = function
  | Imm i -> fun _ -> i
  | Reg r -> fun regs -> Array.unsafe_get regs r

(* ---------------------- fused segments ------------------------- *)

(* A segment batches the accounting of a run of [k] items — simple
   instructions plus [SJump] seam markers standing
   for an unconditional fallthrough (the predecessor block's terminator
   fuel step and jump cost): the header bumps steps by [k], retired
   instructions by the number of real instructions, and cycles by the
   segment's static cost sum, then runs the instruction bodies (seams
   have no body at all on the fast path).  When a body must raise
   mid-segment (an out-of-bounds load or store), it first rewinds the
   not-yet-earned remainder — [dc] cycles, [dns] steps and [dni]
   retired instructions, all baked at compile time and distinct because
   seams step without retiring — so the observable state at the raise
   point is exactly the interpreter's. *)
type sitem =
  | SInst of Machine.cinst
  | SJump
      (* a fused unconditional fallthrough seam: one fuel step plus
         [Cost.jmp], batched mid-segment *)

(* Lowering statistics of one function, gathered only while
   tracing and reported as "sched" trace counters (see [lower_traced]). *)
type fuse_stats = {
  mutable sb_count : int;  (* >=2-block chains lowered as one superblock *)
  mutable sb_blocks : int;  (* blocks covered by those superblocks *)
  mutable seg_fused : int;  (* instructions inside batched (>=2-item) segments *)
  mutable seg_total : int;  (* simple instructions lowered into segments *)
}

let[@inline] seg_unwind t ~dc ~dns ~dni =
  t.cyc <- t.cyc - dc;
  t.steps <- t.steps - dns;
  t.ctrs.insts <- t.ctrs.insts - dni

let oob_load fname addr =
  Runtime_error (Printf.sprintf "load out of bounds: %d in %s" addr fname)

let oob_store fname addr =
  Runtime_error (Printf.sprintf "store out of bounds: %d in %s" addr fname)

let inst_cost = function
  | CAssign (_, e) -> Cost.assign_cost e
  | CStore _ -> Cost.store
  | CObserve _ -> Cost.observe
  | CCall _ | CIcall _ | CAsm_icall _ -> assert false

let sitem_cost = function
  | SInst i -> inst_cost i
  | SJump -> Cost.jmp

(* Batch accounting of an item run: per-item static costs, their sum,
   the retired instruction count, and per-position suffix deltas —
   cycles, steps and retired instructions strictly after position [j],
   i.e. what a fault at [j] must rewind from the pre-charged batch (kept
   separate because seams step without retiring). *)
let seg_suffixes (items : sitem array) =
  let k = Array.length items in
  let costs = Array.map sitem_cost items in
  let total = Array.fold_left ( + ) 0 costs in
  let ni =
    Array.fold_left
      (fun acc it -> match it with SInst _ -> acc + 1 | SJump -> acc)
      0 items
  in
  let dcs = Array.make k 0 and dnss = Array.make k 0 and dnis = Array.make k 0 in
  let rc = ref 0 and rs = ref 0 and ri = ref 0 in
  for j = k - 1 downto 0 do
    dcs.(j) <- !rc;
    dnss.(j) <- !rs;
    dnis.(j) <- !ri;
    rc := !rc + costs.(j);
    incr rs;
    (match items.(j) with SInst _ -> incr ri | SJump -> ())
  done;
  (costs, total, ni, dcs, dnss, dnis)

(* Assign of a binop, fully specialized on the operator and both operand
   kinds: the closure body is the register reads and the arithmetic,
   nothing else.  Immediate pairs constant-fold at compile time. *)
let pbinop r op a b : pbody =
  (* spelled out with the array primitives directly in every arm: the
     compiler has no flambda, so a local [get]/[set] helper captured in
     the returned closure would cost a real call per register access in
     the hottest bodies the backend emits *)
  match (a, b) with
  | Reg x, Reg y -> (
    match op with
    | Add ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x + Array.unsafe_get regs y)
    | Sub ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x - Array.unsafe_get regs y)
    | Mul ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x * Array.unsafe_get regs y)
    | Xor ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x lxor Array.unsafe_get regs y)
    | And ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x land Array.unsafe_get regs y)
    | Or ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x lor Array.unsafe_get regs y)
    | Shl ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (Array.unsafe_get regs x lsl (Array.unsafe_get regs y land 31))
    | Shr ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (Array.unsafe_get regs x lsr (Array.unsafe_get regs y land 31))
    | Lt ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (if Array.unsafe_get regs x < Array.unsafe_get regs y then 1 else 0)
    | Eq ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (if Array.unsafe_get regs x = Array.unsafe_get regs y then 1 else 0))
  | Reg x, Imm y -> (
    match op with
    | Add -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x + y)
    | Sub -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x - y)
    | Mul -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x * y)
    | Xor -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lxor y)
    | And -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x land y)
    | Or -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lor y)
    | Shl ->
      let s = y land 31 in
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lsl s)
    | Shr ->
      let s = y land 31 in
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lsr s)
    | Lt ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if Array.unsafe_get regs x < y then 1 else 0)
    | Eq ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if Array.unsafe_get regs x = y then 1 else 0))
  | Imm x, Reg y -> (
    match op with
    | Add -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x + Array.unsafe_get regs y)
    | Sub -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x - Array.unsafe_get regs y)
    | Mul -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x * Array.unsafe_get regs y)
    | Xor -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x lxor Array.unsafe_get regs y)
    | And -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x land Array.unsafe_get regs y)
    | Or -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x lor Array.unsafe_get regs y)
    | Shl ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (x lsl (Array.unsafe_get regs y land 31))
    | Shr ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (x lsr (Array.unsafe_get regs y land 31))
    | Lt ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if x < Array.unsafe_get regs y then 1 else 0)
    | Eq ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if x = Array.unsafe_get regs y then 1 else 0))
  | Imm x, Imm y ->
    let v = eval_binop op x y in
    fun t -> let regs = t.cur_regs in Array.unsafe_set regs r v

let passign ~mem_len fname ~dc ~dns ~dni r e : pbody =
  match e with
  | Const i | Move (Imm i) -> fun t -> Array.unsafe_set t.cur_regs r i
  | Move (Reg s) ->
    fun t ->
      let regs = t.cur_regs in
      Array.unsafe_set regs r (Array.unsafe_get regs s)
  | Binop (op, a, b) -> pbinop r op a b
  | Load (Imm i) ->
    if i >= 0 && i < mem_len then
      fun t -> Array.unsafe_set t.cur_regs r (Array.unsafe_get t.mem i)
    else
      fun t ->
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_load fname i)
  | Load (Reg ar) ->
    fun t ->
      let regs = t.cur_regs in
      let addr = Array.unsafe_get regs ar in
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_load fname addr)
      end
      else Array.unsafe_set regs r (Array.unsafe_get t.mem addr)

let pstore ~mem_len fname ~dc ~dns ~dni a v : pbody =
  match (a, v) with
  | Imm i, Imm vv ->
    if i >= 0 && i < mem_len then fun t -> Array.unsafe_set t.mem i vv
    else
      fun t ->
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname i)
  | Imm i, Reg vr ->
    if i >= 0 && i < mem_len then
      fun t -> Array.unsafe_set t.mem i (Array.unsafe_get t.cur_regs vr)
    else
      fun t ->
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname i)
  | Reg ar, Imm vv ->
    fun t ->
      let addr = Array.unsafe_get t.cur_regs ar in
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname addr)
      end
      else Array.unsafe_set t.mem addr vv
  | Reg ar, Reg vr ->
    fun t ->
      let regs = t.cur_regs in
      let addr = Array.unsafe_get regs ar in
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname addr)
      end
      else Array.unsafe_set t.mem addr (Array.unsafe_get regs vr)

let pobserve v : pbody =
  match v with
  | Imm i -> fun t -> if t.cfg.record_trace then t.trace_rev <- i :: t.trace_rev
  | Reg r ->
    fun t ->
      if t.cfg.record_trace then
        t.trace_rev <- Array.unsafe_get t.cur_regs r :: t.trace_rev

let pbody_of ~mem_len fname ~dc ~dns ~dni (i : Machine.cinst) : pbody =
  match i with
  | CAssign (r, e) -> passign ~mem_len fname ~dc ~dns ~dni r e
  | CStore (a, v) -> pstore ~mem_len fname ~dc ~dns ~dni a v
  | CObserve v -> pobserve v
  | CCall _ | CIcall _ | CAsm_icall _ -> assert false

(* Publication of the running frame for the arity-1 bodies above.  The
   pointer compare skips the [caml_modify] write barrier in the common
   case — consecutive segments of one activation, or a pooled frame
   reused at the same depth, already have the right array published. *)
let[@inline] publish_regs t regs = if t.cur_regs != regs then t.cur_regs <- regs

(* Compile a maximal run of items into one fused closure.  The fuel
   guard [steps + k > fuel] holds exactly when per-item bumping would
   raise somewhere inside the segment, in which case the slow path
   replays the segment with the interpreter's per-item accounting and
   dies (or faults) at precisely the right instruction — it is always
   exact, only slower, so the guard can be conservative.  On the fast
   path, [SJump] seams have no body at all: their step and cost are
   folded into the batch header, so a fused fallthrough is free. *)
let compile_segment ~mem_len ?stats fname (items : sitem array) : iexec =
  let k = Array.length items in
  let costs, total, ni, dcs, dnss, dnis = seg_suffixes items in
  (match stats with
  | Some s ->
    s.seg_total <- s.seg_total + ni;
    if k >= 2 then s.seg_fused <- s.seg_fused + ni
  | None -> ());
  (* The dispatch shapes below are deliberately arity-specialized: the
     per-item closure call is the single biggest runtime cost the backend
     emits, so single-item segments skip the batch header entirely, small
     segments bind their bodies as direct captures (no array indexing at
     all), and the generic loops index with the unsafe primitives (the
     bounds are fixed at lowering time). *)
  match items with
  | [| SInst i |] ->
    let body = pbody_of ~mem_len fname ~dc:0 ~dns:0 ~dni:0 i and c = costs.(0) in
    fun t ->
      bump_inst t;
      charge t c;
      body t
  | [| SJump |] ->
    fun t ->
      step_fuel t;
      charge t Cost.jmp
  | _ ->
    let slow =
      Array.mapi
        (fun j it ->
          match it with
          | SInst i ->
            let body = pbody_of ~mem_len fname ~dc:0 ~dns:0 ~dni:0 i
            and c = costs.(j) in
            fun t ->
              bump_inst t;
              charge t c;
              body t
          | SJump ->
            fun t ->
              step_fuel t;
              charge t Cost.jmp)
        items
    in
    let run_slow t =
      for j = 0 to k - 1 do
        (Array.unsafe_get slow j) t
      done
    in
    let bodies =
      Array.of_list
        (List.filter_map
           (fun j ->
             match items.(j) with
             | SInst i ->
               Some (pbody_of ~mem_len fname ~dc:dcs.(j) ~dns:dnss.(j) ~dni:dnis.(j) i)
             | SJump -> None)
           (List.init k (fun j -> j)))
    in
    (match bodies with
    | [| b0 |] ->
      fun t ->
        if t.steps + k > t.fuel_cap then run_slow t
        else begin
          t.steps <- t.steps + k;
          t.ctrs.insts <- t.ctrs.insts + ni;
          t.cyc <- t.cyc + total;
          b0 t
        end
    | [| b0; b1 |] ->
      fun t ->
        if t.steps + k > t.fuel_cap then run_slow t
        else begin
          t.steps <- t.steps + k;
          t.ctrs.insts <- t.ctrs.insts + ni;
          t.cyc <- t.cyc + total;
          b0 t;
          b1 t
        end
    | [| b0; b1; b2 |] ->
      fun t ->
        if t.steps + k > t.fuel_cap then run_slow t
        else begin
          t.steps <- t.steps + k;
          t.ctrs.insts <- t.ctrs.insts + ni;
          t.cyc <- t.cyc + total;
          b0 t;
          b1 t;
          b2 t
        end
    | [| b0; b1; b2; b3 |] ->
      fun t ->
        if t.steps + k > t.fuel_cap then run_slow t
        else begin
          t.steps <- t.steps + k;
          t.ctrs.insts <- t.ctrs.insts + ni;
          t.cyc <- t.cyc + total;
          b0 t;
          b1 t;
          b2 t;
          b3 t
        end
    | _ ->
      let nb = Array.length bodies in
      fun t ->
        if t.steps + k > t.fuel_cap then run_slow t
        else begin
          t.steps <- t.steps + k;
          t.ctrs.insts <- t.ctrs.insts + ni;
          t.cyc <- t.cyc + total;
          for j = 0 to nb - 1 do
            (Array.unsafe_get bodies j) t
          done
        end)

(* --------------------------- calls ----------------------------- *)

(* Result write-back destination as a sentinel int (-1 = no destination):
   the call closures inline the store behind one statically-predictable
   compare instead of bouncing a 3-argument closure through
   [caml_apply3] on every return. *)
let dst_reg = function None -> -1 | Some r -> r

(* Argument evaluators plus the entry-live zero tail for a direct call
   with a static argument list (operand evaluation is pure, so
   truncating past the parameter count drops nothing observable).  The
   call closures loop over the evaluators inline — each one is an
   arity-1 application, a direct indirect call, where a two-array
   writer closure would route every seam through [caml_apply2].  The
   static argument count lets the entry-live zeroing be filtered at
   compile time: only zeroset slots past the written prefix survive
   into [zs_tail]. *)
let direct_call_frame p (callee2 : cfunc2) (args : operand array) :
    (int array -> int) array * int array =
  let callee_cf = callee2.c2 in
  let argv = Array.map cop args in
  let n = min callee_cf.f.params (Array.length argv) in
  let zs_tail =
    Array.of_list (List.filter (fun r -> r >= n) (Array.to_list (zeroset p callee2)))
  in
  let argv = if Array.length argv > n then Array.sub argv 0 n else argv in
  (argv, zs_tail)

let ccall p (caller : cfunc) ~dst ~callee_name ~callee_id
    ~(args : operand array) ~site : iexec =
  let caller_id = caller.id and site_id = site.site_id in
  if callee_id < 0 then
    (* Unknown callee: counters and cycles still happen before the
       failure, exactly like the interpreter's [lookup]; no edge is
       reported. *)
    fun t ->
      bump_inst t;
      t.ctrs.calls <- t.ctrs.calls + 1;
      charge t (Cost.direct_call + t.cfg.extra_call_cycles);
      raise (Runtime_error ("call to unknown function @" ^ callee_name))
  else begin
    let callee2 = p.c2by_id.(callee_id) in
    let callee_cf = callee2.c2 in
    let argv, zs_tail = direct_call_frame p callee2 args in
    let nargs = Array.length argv in
    let dst_r = dst_reg dst in
    fun t ->
      bump_inst t;
      t.ctrs.calls <- t.ctrs.calls + 1;
      charge t (Cost.direct_call + t.cfg.extra_call_cycles);
      emit_call t site_id callee_id;
      enter_code t callee_cf;
      Rsb.push t.trsb caller_id;
      (* Save the caller's activation, install the callee's, restore on
         return.  The frame pools hand back distinct arrays per depth,
         so the install stores are never redundant. *)
      let regs = t.cur_regs in
      let depth = t.cur_depth and rt = t.cur_ret_to in
      (* Write the argument prefix, zero only the entry-live tail: the
         prefix is about to be overwritten anyway, and registers dead
         on entry never surface their stale contents. *)
      let callee_regs = raw_frame t ~depth:(depth + 1) in
      for i = 0 to nargs - 1 do
        Array.unsafe_set callee_regs i ((Array.unsafe_get argv i) regs)
      done;
      zero_tail zs_tail 0 callee_regs;
      t.cur_regs <- callee_regs;
      t.cur_depth <- depth + 1;
      t.cur_ret_to <- caller_id;
      let v = callee2.fexec t in
      t.cur_regs <- regs;
      t.cur_depth <- depth;
      t.cur_ret_to <- rt;
      if dst_r >= 0 then
        match v with
        | Some x -> Array.unsafe_set regs dst_r x
        | None -> Array.unsafe_set regs dst_r 0
  end

let cicall ~asm p (caller : cfunc) ~dst ~fptr ~(args : operand array) ~site ~slot :
    iexec =
  let caller_id = caller.id and site_id = site.site_id and c2by_id = p.c2by_id in
  let ofp = cop fptr in
  let argv = Array.map cop args in
  let nargs = Array.length argv in
  let dst_r = dst_reg dst in
  fun t ->
    bump_inst t;
    t.ctrs.icalls <- t.ctrs.icalls + 1;
    charge t t.cfg.extra_icall_cycles;
    let regs = t.cur_regs in
    let depth = t.cur_depth and rt = t.cur_ret_to in
    let v = ofp regs in
    let target_id = icall_resolve t v in
    (match t.cfg.fwd_override with
    | Some hook when not asm -> charge t (hook ~site ~target:t.fptr_table.(v))
    | Some _ | None ->
      let protection = if asm then Protection.F_none else t.fwd_prots.(slot) in
      indirect_transfer t ~site ~target:target_id ~fptr_taint:None ~protection);
    emit_call t site_id target_id;
    let callee2 = c2by_id.(target_id) in
    let callee_cf = callee2.c2 in
    enter_code t callee_cf;
    Rsb.push t.trsb caller_id;
    let callee_regs = raw_frame t ~depth:(depth + 1) in
    (* integer min by hand: the polymorphic version costs a C call per
       indirect transfer *)
    let n = if callee_cf.f.params < nargs then callee_cf.f.params else nargs in
    for i = 0 to n - 1 do
      Array.unsafe_set callee_regs i ((Array.unsafe_get argv i) regs)
    done;
    zero_tail (zeroset p callee2) n callee_regs;
    t.cur_regs <- callee_regs;
    t.cur_depth <- depth + 1;
    t.cur_ret_to <- caller_id;
    let r = callee2.fexec t in
    t.cur_regs <- regs;
    t.cur_depth <- depth;
    t.cur_ret_to <- rt;
    if dst_r >= 0 then
      match r with
      | Some x -> Array.unsafe_set regs dst_r x
      | None -> Array.unsafe_set regs dst_r 0

let ccomplex p (caller : cfunc) (i : Machine.cinst) : iexec =
  match i with
  | CCall { dst; callee; callee_id; args; site } ->
    ccall p caller ~dst ~callee_name:callee ~callee_id ~args ~site
  | CIcall { dst; fptr; args; site; slot } ->
    cicall ~asm:false p caller ~dst ~fptr ~args ~site ~slot
  | CAsm_icall { fptr; site } ->
    cicall ~asm:true p caller ~dst:None ~fptr ~args:[||] ~site ~slot:(-1)
  | CAssign _ | CStore _ | CObserve _ -> assert false

(* ----------------------- chain scanning ------------------------ *)

(* Flatten a chain of blocks into an alternating sequence of fused
   segments and individual complex (call) instructions: each non-final
   block contributes an [SJump] seam item for its unconditional
   terminator, and only the FINAL block's terminator survives (returned
   alongside its label). *)
let scan_chain (chain : (int * Machine.cblock) list) :
    [ `Seg of sitem array | `Cx of Machine.cinst ] list * int * terminator =
  let rev_chunks = ref [] and pending = ref [] in
  let flush () =
    match !pending with
    | [] -> ()
    | l ->
      rev_chunks := `Seg (Array.of_list (List.rev l)) :: !rev_chunks;
      pending := []
  in
  let scan_insts (b : Machine.cblock) =
    Array.iter
      (fun i ->
        match i with
        | CAssign _ | CStore _ | CObserve _ -> pending := SInst i :: !pending
        | CCall _ | CIcall _ | CAsm_icall _ ->
          flush ();
          rev_chunks := `Cx i :: !rev_chunks)
      b.cinsts
  in
  let rec go = function
    | [] -> assert false
    | [ (label, (b : Machine.cblock)) ] ->
      scan_insts b;
      flush ();
      (label, b.cterm)
    | (_, b) :: rest ->
      scan_insts b;
      (* the seam: this block's fuel step + jump, fused into the
         surrounding segment *)
      pending := SJump :: !pending;
      go rest
  in
  let last_label, last_term = go chain in
  (List.rev !rev_chunks, last_label, last_term)

(* ------------------------ terminators -------------------------- *)

let[@inline] br_follow t ~key ~taken =
  charge t Cost.br;
  if Pht.predict t.tpht ~key <> taken then begin
    t.ctrs.pht_misses <- t.ctrs.pht_misses + 1;
    charge t Cost.br_mispredict_penalty
  end;
  Pht.train t.tpht ~key ~taken

let cterm (bexecs : bexec array) (cf : cfunc) label (term : terminator) : bexec =
  match term with
  | Jmp l ->
    fun t ->
      charge t Cost.jmp;
      (Array.unsafe_get bexecs l) t
  | Br (Reg cr, l1, l2) ->
    let key = cf.key_base + label in
    fun t ->
      let taken = Array.unsafe_get t.cur_regs cr <> 0 in
      br_follow t ~key ~taken;
      if taken then (Array.unsafe_get bexecs l1) t
      else (Array.unsafe_get bexecs l2) t
  | Br (Imm i, l1, l2) ->
    let key = cf.key_base + label in
    let taken = i <> 0 in
    let l = if taken then l1 else l2 in
    fun t ->
      br_follow t ~key ~taken;
      (Array.unsafe_get bexecs l) t
  | Switch { scrutinee; cases; default; lowering } ->
    let ov = cop scrutinee in
    let ncases = Array.length cases in
    let cost =
      match lowering with
      | Jump_table -> Cost.switch_jump_table
      | Branch_ladder -> ladder_cost ncases
    in
    fun t ->
      let v = ov t.cur_regs in
      let rec find i =
        if i >= ncases then default
        else
          let case_v, l = cases.(i) in
          if case_v = v then l else find (i + 1)
      in
      let target = find 0 in
      charge t cost;
      (Array.unsafe_get bexecs target) t
  | Ret None ->
    fun t ->
      do_ret t cf ~ret_to:t.cur_ret_to;
      None
  | Ret (Some (Imm i)) ->
    fun t ->
      let v = Some i in
      do_ret t cf ~ret_to:t.cur_ret_to;
      v
  | Ret (Some (Reg r)) ->
    fun t ->
      let v = Some (Array.unsafe_get t.cur_regs r) in
      do_ret t cf ~ret_to:t.cur_ret_to;
      v

(* ---------------------- superblock traces ---------------------- *)

(* Lower a superblock trace (see [trace_of]) into one closure.  The
   chain's instruction streams are flattened into one item stream, each
   non-final block contributing an [SJump] seam marker for its
   unconditional terminator; the stream is partitioned into maximal
   fused segments and individual call instructions, and only the FINAL
   block's terminator is compiled (non-final terminators are guaranteed
   [Jmp] and live inside the segments as seam accounting). *)
let lower_chain ?stats (p : prog) (cf : cfunc) bexecs
    (chain : (int * Machine.cblock) list) : bexec =
  let fname = cf.f.fname in
  let mem_len = p.mem_len in
  let chunk_list, last_label, last_term = scan_chain chain in
  let chunks =
    Array.of_list
      (List.map
         (function
           | `Seg items -> compile_segment ~mem_len ?stats fname items
           | `Cx i -> ccomplex p cf i)
         chunk_list)
  in
  let term = cterm bexecs cf last_label last_term in
  match chunks with
  | [||] ->
    fun t ->
      step_fuel t;
      term t
  | [| c0 |] ->
    fun t ->
      c0 t;
      step_fuel t;
      term t
  | [| c0; c1 |] ->
    fun t ->
      c0 t;
      c1 t;
      step_fuel t;
      term t
  | [| c0; c1; c2 |] ->
    fun t ->
      c0 t;
      c1 t;
      c2 t;
      step_fuel t;
      term t
  | _ ->
    let n = Array.length chunks in
    fun t ->
      for i = 0 to n - 1 do
        (Array.unsafe_get chunks i) t
      done;
      step_fuel t;
      term t

(* Superblock trace formation: the trace headed at [l] follows
   unconditional [Jmp] edges for as long as they go — REGARDLESS of the
   target's predecessor count.  A shared tail (a merge point entered by
   [Jmp] from several arms) is duplicated into every trace that reaches
   it, which is exactly classic superblock tail duplication: on the
   optimized kernel images nearly every surviving [Jmp] targets a merge
   point (the cleanup pass already forwards the single-predecessor empty
   blocks away), so a single-predecessor-only rule finds nothing to fuse
   there.  Duplication is bounded twice over: traces stop on a revisit
   (no unrolling of [Jmp]-only cycles) and at [max_trace] blocks, and
   lazy per-head lowering means only the heads execution actually
   dispatches to ever pay for their copy of a tail.  A truncated trace
   simply ends in a [Jmp] terminator, which dispatches to the target
   head's own trace like any other transfer. *)
let max_trace = 32

let trace_of (cf : cfunc) l : (int * Machine.cblock) list =
  let rec go acc seen l' len =
    let b = cf.cblocks.(l') in
    match b.cterm with
    | Jmp s when len < max_trace && not (List.mem s seen) ->
      go ((l', b) :: acc) (s :: seen) s (len + 1)
    | _ -> List.rev ((l', b) :: acc)
  in
  go [] [ l ] l 1

(* Lower one function into its entry [fexec]: one closure per
   superblock trace, {e lazily per head}.  Every label gets a trampoline
   that lowers [trace_of] its label on first dispatch (double-checked
   under a per-function mutex) and replaces itself in [bexecs] —
   terminators fetch [bexecs.(l)] at dispatch time, so the swap is picked
   up transparently.  On the aggressively inlined images a function has
   hundreds of blocks and a workload touches a few percent of them, so
   paying for lowering (and the tail duplication it implies) only at the
   heads execution actually reaches is what keeps short-lived engines
   cheap.  [stats], passed only while tracing, collects the static
   superblock shape up front and the segment coverage as traces lower. *)
let lower_fexec ?stats (p : prog) (c2f : cfunc2) : fexec =
  let cf = c2f.c2 in
  let nblocks = Array.length cf.cblocks in
  (match stats with
  | Some st ->
    (* Every label heads a trace; the multi-block ones are the fusion
       opportunities (tails shared by several traces are counted once per
       trace — they are lowered once per trace too). *)
    for l = 0 to nblocks - 1 do
      match trace_of cf l with
      | _ :: _ :: _ as c ->
        st.sb_count <- st.sb_count + 1;
        st.sb_blocks <- st.sb_blocks + List.length c
      | _ -> ()
    done
  | None -> ());
  let dead : bexec = fun _ -> assert false in
  let bexecs = Array.make nblocks dead in
  let mu = Mutex.create () in
  let lowered = Array.make nblocks false in
  for l = 0 to nblocks - 1 do
    bexecs.(l) <-
      (fun t ->
        Mutex.lock mu;
        if not lowered.(l) then begin
          bexecs.(l) <- lower_chain ?stats p cf bexecs (trace_of cf l);
          lowered.(l) <- true;
          match stats with
          | Some s when Trace.enabled () ->
            Trace.counter ~cat:"sched" "segment-coverage"
              [ ("fused", Trace.Int s.seg_fused); ("total", Trace.Int s.seg_total) ]
          | _ -> ()
        end;
        Mutex.unlock mu;
        bexecs.(l) t)
  done;
  let entry = cf.f.entry in
  fun t ->
    enter_frame t cf;
    bexecs.(entry) t

(* ------------------------ lazy linking ------------------------- *)

(* Functions are linked lazily, on the first call that reaches them
   (double-checked under [link_lock]): compile itself only installs the
   trampolines, and only the functions a workload actually executes
   ever pay for closure construction.  That matters for
   compile-dominated workloads: short runs over many images, and the
   online loop's fresh controller program every window.

   Call closures fetch their callee's [fexec] field at call time, so a
   linked body is picked up transparently; the only cross-function data
   baked at construction time is the callee's zero set, which the direct
   call closure computes through [zeroset] if no caller has yet.  The
   [fexec] field and the [linked] flag are only written under the lock.
   A racing domain either still sees a trampoline — and then
   synchronizes on the lock before re-reading the field — or sees the
   published closure; unlinked bodies are never reachable. *)

(* The [fused-superblocks] / [segment-coverage] statistics are gathered
   only while tracing: the static [trace_of] scan over every label would
   otherwise be paid by every function a workload executes. *)
let lower_traced p c2f =
  let cf = c2f.c2 in
  Trace.span ~cat:"sched" "engine:link" ~args:[ ("fn", Trace.Str cf.f.fname) ] (fun () ->
      if not (Trace.enabled ()) then lower_fexec p c2f
      else begin
        let stats = { sb_count = 0; sb_blocks = 0; seg_fused = 0; seg_total = 0 } in
        let fx = lower_fexec ~stats p c2f in
        Trace.counter ~cat:"sched" "fused-superblocks"
          [ ("superblocks", Trace.Int stats.sb_count); ("blocks", Trace.Int stats.sb_blocks) ];
        fx
      end)

let link_now p c2f =
  Mutex.lock p.link_lock;
  if not c2f.linked then begin
    c2f.fexec <- lower_traced p c2f;
    c2f.linked <- true
  end;
  Mutex.unlock p.link_lock

let compile (cv : Machine.compiled) ~mem_len : prog =
  let c2by_id =
    Array.map
      (fun cf -> { c2 = cf; zeroset = no_zeroset; fexec = unlinked; linked = false })
      cv.cby_id
  in
  let p = { c2by_id; mem_len; link_lock = Mutex.create () } in
  Array.iter
    (fun c2f ->
      c2f.fexec <-
        (fun t ->
          link_now p c2f;
          c2f.fexec t))
    c2by_id;
  p

(* The backend entry installed into [Machine.t.exec_entry]: builds the
   top-level frame (argument prefix + entry-live zeroing, like any call
   site) and runs the entry function's body.  [Engine.create] never
   installs it for an engine with a speculation drill state. *)
let entry (p : prog) : Machine.t -> cfunc -> int list -> int option =
 fun t cf args ->
  let c2 = p.c2by_id.(cf.id) in
  let regs = raw_frame t ~depth:0 in
  let params = cf.f.params in
  let rec write i = function
    | v :: rest when i < params ->
      regs.(i) <- v;
      write (i + 1) rest
    | _ -> i
  in
  let n = write 0 args in
  zero_tail (zeroset p c2) n regs;
  publish_regs t regs;
  t.cur_depth <- 0;
  t.cur_ret_to <- top_id;
  c2.fexec t
