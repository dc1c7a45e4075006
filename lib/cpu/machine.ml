(** Shared machine state and compiled program view for the execution
    backends.

    One {!t} models one machine (global memory, BTB, RSB, i-cache,
    counters); {!compiled} is the immutable per-program lowering both
    backends consume (interned ids, pre-resolved call targets, dense
    indirect-call slots).  Everything whose semantics must be identical
    across backends — cycle charging, the indirect-branch transfer, the
    return-path protection logic, frame pools — lives here as plain
    functions, so {!Interp} and {!Compile2} cannot drift apart on the
    subtle parts.  The speculation drills inside the transfer and the
    return path run only on {!Interp}: an engine that carries a drill
    state never selects the compiled backend.  [Engine] is the public
    façade; this module is internal to [pibe_cpu]. *)

open Pibe_ir
open Types

type backend =
  | Interp  (** reference tree-walking interpreter *)
  | Compiled  (** closure-threaded compiled backend *)

type config = {
  fwd_protection : site -> Protection.forward;
  bwd_protection : string -> Protection.backward;
  cfi_valid : site:site -> target:string -> protection:Protection.forward -> bool;
  fwd_override : (site:site -> target:string -> int) option;
  icache_bytes : int;
  footprint : func -> int;
  record_trace : bool;
  on_call : (site:int -> callee:int -> unit) option;
  on_entry : (string -> unit) option;
  on_exit : (string -> unit) option;
  speculation : Speculation.t option;
  fuel : int;
  extra_call_cycles : int;
  extra_icall_cycles : int;
  extra_ret_cycles : int;
  rsb_refill : bool;
}

let default_config =
  {
    fwd_protection = (fun _ -> Protection.F_none);
    bwd_protection = (fun _ -> Protection.B_none);
    cfi_valid = (fun ~site:_ ~target:_ ~protection:_ -> true);
    fwd_override = None;
    icache_bytes = 32 * 1024;
    footprint = Layout.func_size;
    record_trace = false;
    on_call = None;
    on_entry = None;
    on_exit = None;
    speculation = None;
    fuel = 100_000_000;
    extra_call_cycles = 0;
    extra_icall_cycles = 0;
    extra_ret_cycles = 0;
    rsb_refill = false;
  }

type counters = {
  mutable calls : int;
  mutable icalls : int;
  mutable rets : int;
  mutable insts : int;
  mutable btb_misses : int;
  mutable rsb_misses : int;
  mutable pht_misses : int;
  mutable stack_bytes : int;
  mutable peak_stack_bytes : int;
}

(* Compiled view of the IR, built once per program: function names are
   interned to dense ids, every direct-call target and fptr-table entry is
   pre-resolved, per-function constants (PHT key base, frame bytes) are
   computed up front, and every non-asm indirect-call site gets a dense
   slot so per-engine protection kinds live in a flat array. *)

type cinst =
  | CAssign of reg * expr
  | CStore of operand * operand
  | CObserve of operand
  | CCall of {
      dst : reg option;
      callee : string;  (* kept for the unknown-function error message *)
      callee_id : int;  (* -1 when the name does not resolve *)
      args : operand array;
      site : site;
    }
  | CIcall of {
      dst : reg option;
      fptr : operand;
      args : operand array;
      site : site;
      slot : int;  (* dense index into the per-engine protection array *)
    }
  | CAsm_icall of {
      fptr : operand;
      site : site;
    }

type cblock = {
  cinsts : cinst array;
  cterm : terminator;
}

type cfunc = {
  f : func;
  id : int;
  cblocks : cblock array;
  key_base : int;  (* PHT key base: Hashtbl.hash fname * 613, as the seed *)
  frame_bytes : int;  (* stack-coloring frame model, precomputed *)
}

(* id of the synthetic top-of-stack return continuation *)
let top_id = -1

(* The compiled view is immutable and depends only on the program, so
   engines created on the same program (physical equality) share it —
   config-dependent state (protections, footprint memo) lives in
   per-engine arrays instead. *)
type compiled = {
  cfuncs : (string, cfunc) Hashtbl.t;  (* API edge only; never on the hot path *)
  cby_id : cfunc array;
  cfptr_ids : int array;  (* pre-resolved fptr targets; -1 = unknown name *)
  cmax_regs : int;
  cicall_sites : site array;  (* CIcall slot -> site, in lowering order *)
}

type t = {
  prog : Program.t;
  funcs : (string, cfunc) Hashtbl.t;
  by_id : cfunc array;
  fptr_table : string array;
  fptr_ids : int array;
  bwds : Protection.backward array;  (* per-function backward protection, by id *)
  fwd_prots : Protection.forward array;  (* per-site forward protection, by slot *)
  sizes : int array;  (* memoized config.footprint, by id; -1 until first entry *)
  mem : int array;
  tbtb : Btb.t;
  trsb : Rsb.t;
  tpht : Pht.t;
  ticache : Icache.t;
  cfg : config;
  fuel_cap : int;
      (* copy of [cfg.fuel], hoisted out of the nested record: the fuel
         guard runs once per executed instruction in both backends, and
         the flat field saves an indirection each time *)
  ctrs : counters;
  max_regs : int;
  backend : backend;
  mutable exec_entry : t -> cfunc -> int list -> int option;
      (* installed by [Engine.create]: the selected backend's entry path;
         builds the top-level frame from the argument list itself, so
         each backend controls how much of the register file it zeroes *)
  mutable frames : int array array;  (* register-frame pool, one per depth *)
  mutable taint_frames : int option array array;
      (* taint-frame pool, one per depth; only the interpreter's
         speculation drills use it *)
  (* The [cur_*] fields are the compiled backend's running activation;
     the interpreter passes its activation as arguments instead. *)
  mutable cur_regs : int array;
      (* the running activation's register frame, (re-)published by every
         compiled chunk that invokes per-instruction bodies: bodies are
         arity-1 closures over [t] alone, which OCaml applies as a direct
         indirect call at each site — arity >= 2 would funnel every body
         through the program-wide [caml_apply2] trampoline *)
  mutable cur_depth : int;  (* the running activation's depth *)
  mutable cur_ret_to : int;
      (* the running activation's return-prediction target (caller id);
         saved and restored around nested calls by the call chunks *)
  mutable call_memo : (string * cfunc) option;
      (* last [Engine.call] name resolution, keyed on physical string
         identity — workload drivers pass the same entry-name value on
         every simulated request *)
  mutable cyc : int;
  mutable steps : int;
  mutable trace_rev : int list;
}

exception Runtime_error of string
exception Out_of_fuel

(* Frame accounting with a stack-coloring model: inlined callees' locals
   have disjoint lifetimes, so the allocator merges most of their slots.
   Sub-linear growth in the register count approximates that; coloring
   degrades as merged frames grow, which is exactly the inefficiency paper
   Rule 2 exists to bound (section 5.2). *)
let frame_bytes_of nregs = 16 + (8 * int_of_float (Float.of_int nregs ** 0.6))

let compile_func ~id ~slots intern (f : func) =
  let compile_inst = function
    | Assign (r, e) -> CAssign (r, e)
    | Store (a, v) -> CStore (a, v)
    | Observe v -> CObserve v
    | Call { dst; callee; args; site; tail = _ } ->
      CCall { dst; callee; callee_id = intern callee; args = Array.of_list args; site }
    | Icall { dst; fptr; args; site } ->
      let slot = List.length !slots in
      slots := site :: !slots;
      CIcall { dst; fptr; args = Array.of_list args; site; slot }
    | Asm_icall { fptr; site } -> CAsm_icall { fptr; site }
  in
  let cblocks =
    Array.map
      (fun (b : block) -> { cinsts = Array.map compile_inst b.insts; cterm = b.term })
      f.blocks
  in
  {
    f;
    id;
    cblocks;
    key_base = Hashtbl.hash f.fname * 613;
    frame_bytes = frame_bytes_of f.nregs;
  }

(* [Array.for_all] without its per-call closure: validation runs over
   every instruction of every program an engine is created on. *)
let rec all_from p a i = i >= Array.length a || (p a.(i) && all_from p a (i + 1))

let all p a = all_from p a 0

(* Static index validation backing both backends' unchecked register,
   frame and block accesses ([lib/cpu] builds with [-unsafe]): all
   register operands within [0, nregs), all labels within [0, nblocks),
   and no more parameters than registers (both entry paths copy the
   arguments into the first [params] slots). *)
let func_valid (cf : cfunc) =
  let nregs = cf.f.nregs and nblocks = Array.length cf.cblocks in
  let reg r = r >= 0 && r < nregs and label l = l >= 0 && l < nblocks in
  let op = function Imm _ -> true | Reg r -> reg r in
  let dst = function Some r -> reg r | None -> true in
  let expr = function Const _ -> true | Move o | Load o -> op o | Binop (_, a, b) -> op a && op b in
  let inst = function
    | CAssign (d, e) -> reg d && expr e
    | CStore (a, v) -> op a && op v
    | CObserve v -> op v
    | CCall { dst = d; args; _ } -> dst d && all op args
    | CIcall { dst = d; fptr; args; _ } -> dst d && op fptr && all op args
    | CAsm_icall { fptr; _ } -> op fptr
  in
  let term = function
    | Jmp l -> label l
    | Br (c, l1, l2) -> op c && label l1 && label l2
    | Switch { scrutinee; cases; default; _ } ->
      op scrutinee && label default && all (fun (_, l) -> label l) cases
    | Ret v -> Option.fold ~none:true ~some:op v
  in
  cf.f.params >= 0 && cf.f.params <= nregs && label cf.f.entry
  && all (fun b -> all inst b.cinsts && term b.cterm) cf.cblocks

let compile prog =
  let order = Program.layout_order prog in
  let n = List.length order in
  let ids = Hashtbl.create (2 * max n 1) in
  List.iteri (fun i name -> Hashtbl.replace ids name i) order;
  let intern name = match Hashtbl.find_opt ids name with Some i -> i | None -> -1 in
  let cfuncs = Hashtbl.create (2 * max n 1) in
  let slots = ref [] in
  let cby_id =
    Array.of_list
      (List.mapi
         (fun i name ->
           let f = Program.find prog name in
           let cf = compile_func ~id:i ~slots intern f in
           Hashtbl.replace cfuncs name cf;
           cf)
         order)
  in
  Array.iter
    (fun cf ->
      if not (func_valid cf) then
        raise (Runtime_error ("invalid static indices in @" ^ cf.f.fname)))
    cby_id;
  {
    cfuncs;
    cby_id;
    cfptr_ids = Array.map intern prog.Program.fptr_table;
    cmax_regs = Array.fold_left (fun m cf -> max m cf.f.nregs) 1 cby_id;
    cicall_sites = Array.of_list (List.rev !slots);
  }

let func_name t id = if id = top_id then "#top" else t.by_id.(id).f.fname

let lookup t id name =
  if id >= 0 then t.by_id.(id)
  else raise (Runtime_error ("call to unknown function @" ^ name))

let footprint_of t cf =
  let s = t.sizes.(cf.id) in
  if s >= 0 then s
  else begin
    let s = t.cfg.footprint cf.f in
    t.sizes.(cf.id) <- s;
    s
  end

(* Register-frame pool: one zeroed frame per activation depth, allocated on
   first use and reused by every later activation at that depth — no
   allocation on the call hot path.  Frames are sized to the largest
   register file in the program; only the first [nregs] slots are ever
   read, and they are re-zeroed on entry (registers start at 0).

   The pools stop at [max_call_depth] activations: a call that needs a
   deeper frame is the simulated stack-depth fault, a [Runtime_error]
   raised on both backends at the same point (after the call's
   [enter_code] and [Rsb.push], before any callee state), long before
   the host stack could overflow.  The check sits on the pool-growth
   branch only, so calls within the pool pay nothing. *)
let max_call_depth = 1 lsl 16

let grow_pool pool ~depth =
  if depth >= max_call_depth then
    raise (Runtime_error (Printf.sprintf "call depth exceeds %d activations" max_call_depth));
  let len = Array.length pool in
  let grown = Array.make (min max_call_depth (max 64 (max (2 * len) (depth + 1)))) [||] in
  Array.blit pool 0 grown 0 len;
  grown

(* The pooled frame for [depth], with whatever contents its previous
   activation left: callers zero exactly the slots the callee can read
   ([frame] zeroes all of them; the compiled call path writes the
   argument prefix and zeroes only the tail).  Slot stores are
   bounds-check-free: every [nregs] is <= [t.max_regs] = the pool frame
   length by construction. *)
let raw_frame t ~depth =
  if depth >= Array.length t.frames then t.frames <- grow_pool t.frames ~depth;
  let fr = t.frames.(depth) in
  if Array.length fr = 0 then begin
    let fr = Array.make (max t.max_regs 1) 0 in
    t.frames.(depth) <- fr;
    fr
  end
  else fr

let frame t ~depth ~nregs =
  let fr = raw_frame t ~depth in
  (* Hand-rolled zeroing: [Array.fill] is a C call, and this runs once
     per activation — straight stores beat the call overhead for the
     small register files that dominate. *)
  for i = 0 to nregs - 1 do
    Array.unsafe_set fr i 0
  done;
  fr

(* The pooled taint frame for [depth], its first [nregs] slots cleared:
   the mirror of [frame] for the interpreter's speculation drills. *)
let taint_frame t ~depth ~nregs =
  if depth >= Array.length t.taint_frames then
    t.taint_frames <- grow_pool t.taint_frames ~depth;
  if Array.length t.taint_frames.(depth) = 0 then
    t.taint_frames.(depth) <- Array.make (max t.max_regs 1) None;
  let fr = t.taint_frames.(depth) in
  for i = 0 to nregs - 1 do
    Array.unsafe_set fr i None
  done;
  fr

let operand_value regs = function
  | Imm i -> i
  | Reg r -> regs.(r)

(* Taint: the attacker-injectable transient value of each register, used
   only when a speculation drill is active. *)
let operand_taint taint = function
  | Imm _ -> None
  | Reg r -> taint.(r)

(* Reports one resolved call edge to the profiling hook: the site id and
   the callee's interned id, never names, so a hooked run allocates
   nothing per edge.  Only resolved callees are reported — an unknown
   function's id of -1 would alias [top_id]. *)
let emit_call t site callee =
  match t.cfg.on_call with
  | None -> ()
  | Some f -> f ~site ~callee

let charge t c = t.cyc <- t.cyc + c

(* Per-instruction step accounting: both backends must count and check fuel
   at exactly the same points (one bump per executed instruction, one per
   evaluated terminator) so an out-of-fuel run dies mid-block at the same
   instruction with the same cycles under either backend. *)
let[@inline] step_fuel t =
  t.steps <- t.steps + 1;
  if t.steps > t.fuel_cap then raise Out_of_fuel

let[@inline] bump_inst t =
  t.ctrs.insts <- t.ctrs.insts + 1;
  step_fuel t

let enter_code t callee =
  charge t (Icache.touch t.ticache ~id:callee.id ~size:(footprint_of t callee))

(* Forward transfer through an indirect call site: prediction, cost,
   training, speculation drill.  Returns unit; the caller then executes
   the resolved target.  [target] is the interned id of the resolved
   callee; prediction hit/miss is a single int compare. *)
let indirect_transfer t ~site ~target ~fptr_taint ~protection =
  let spec = t.cfg.speculation in
  (match protection with
  | Protection.F_none ->
    let predicted = Btb.predict t.tbtb ~site:site.site_id in
    let hit = predicted = target in
    if not hit then t.ctrs.btb_misses <- t.ctrs.btb_misses + 1;
    charge t (Cost.forward_cost protection ~btb_hit:hit);
    (* The resolved branch retrains its slot. *)
    Btb.train t.tbtb ~site:site.site_id ~target;
    (match spec with
    | Some s when predicted <> Btb.no_target && predicted <> target ->
      Speculation.record s
        {
          Speculation.mechanism = Speculation.Spectre_v2;
          site_id = site.site_id;
          gadget = func_name t predicted;
        }
    | _ -> ())
  | Protection.F_fineibt | Protection.F_coarse_cfi ->
    (* CFI checks keep the BTB in the loop: the branch predicts and
       trains normally and pays the check on top.  A transiently entered
       target only matters when it passes the target-set check — the
       whole point of the landing-pad precision model. *)
    let predicted = Btb.predict t.tbtb ~site:site.site_id in
    let hit = predicted = target in
    if not hit then t.ctrs.btb_misses <- t.ctrs.btb_misses + 1;
    charge t (Cost.forward_cost protection ~btb_hit:hit);
    Btb.train t.tbtb ~site:site.site_id ~target;
    (match spec with
    | Some s when predicted <> Btb.no_target && predicted <> target ->
      let gadget = func_name t predicted in
      if t.cfg.cfi_valid ~site ~target:gadget ~protection then
        Speculation.record s
          { Speculation.mechanism = Speculation.Spectre_v2; site_id = site.site_id; gadget }
    | _ -> ())
  | Protection.F_retpoline | Protection.F_lvi | Protection.F_fenced_retpoline ->
    charge t (Cost.forward_cost protection ~btb_hit:false);
    (* Retpolines never execute a BTB-predicted branch; the LVI thunk
       still does, so V2 injection remains possible through it. *)
    if not (Protection.forward_stops_btb_injection protection) then begin
      let predicted = Btb.predict t.tbtb ~site:site.site_id in
      Btb.train t.tbtb ~site:site.site_id ~target;
      match spec with
      | Some s when predicted <> Btb.no_target && predicted <> target ->
        Speculation.record s
          {
            Speculation.mechanism = Speculation.Spectre_v2;
            site_id = site.site_id;
            gadget = func_name t predicted;
          }
      | _ -> ()
    end);
  (* LVI: a poisoned branch-target load lets the attacker steer the
     transient call unless the sequence fences the load.  Under a CFI
     kind the injected target still has to pass the target-set check
     before the transient entry lands. *)
  match (spec, fptr_taint) with
  | Some s, Some injected when not (Protection.forward_stops_lvi protection) ->
    let gadget =
      if injected >= 0 && injected < Array.length t.fptr_table then t.fptr_table.(injected)
      else "#fault"
    in
    if
      (not (Protection.forward_checks_target protection))
      || t.cfg.cfi_valid ~site ~target:gadget ~protection
    then
      Speculation.record s
        { Speculation.mechanism = Speculation.Lvi; site_id = site.site_id; gadget }
  | _ -> ()

(* Bounds/unknown-name checks on an evaluated fptr value; returns the
   resolved callee id.  Shared so both backends raise the same errors at
   the same execution points. *)
let[@inline] icall_resolve t v =
  if v < 0 || v >= Array.length t.fptr_table then
    raise
      (Runtime_error
         (Printf.sprintf "wild indirect call: fptr value %d outside table of %d" v
            (Array.length t.fptr_table)));
  let target_id = t.fptr_ids.(v) in
  if target_id < 0 then
    raise (Runtime_error ("call to unknown function @" ^ t.fptr_table.(v)));
  target_id

(* The whole return path: backward-protection cost, RSB pop and
   prediction, Ret2spec drills, stack accounting and the on_exit hook.
   The returned value itself is threaded by the caller. *)
let do_ret t (cf : cfunc) ~ret_to =
  t.ctrs.rets <- t.ctrs.rets + 1;
  charge t t.cfg.extra_ret_cycles;
  let protection = t.bwds.(cf.id) in
  (match protection with
  | Protection.B_none | Protection.B_lvi ->
    let popped = Rsb.pop t.trsb in
    let hit = popped = ret_to in
    if not hit then t.ctrs.rsb_misses <- t.ctrs.rsb_misses + 1;
    charge t (Cost.backward_cost protection ~rsb_hit:hit);
    (match t.cfg.speculation with
    | Some s when not (Protection.backward_stops_rsb_poisoning protection) ->
      (* An armed desynchronization means this return's prediction is
         attacker-controlled. *)
      (match Speculation.take_rsb_desync s with
      | Some (_, gadget) ->
        Speculation.record s
          { Speculation.mechanism = Speculation.Ret2spec; site_id = -1; gadget }
      | None -> ());
      if popped <> Rsb.none && popped <> ret_to then
        Speculation.record s
          {
            Speculation.mechanism = Speculation.Ret2spec;
            site_id = -1;
            gadget = func_name t popped;
          }
    | _ -> ())
  | Protection.B_pac ->
    (* PAC signs the return address at call time and authenticates it
       here: the RSB still predicts (and pays hit/miss as usual), but a
       poisoned prediction is squashed by the failing authenticate — no
       transient entry, no RSB refill needed.  A correctly-signed forged
       pointer (signing-gadget attack) authenticates fine and survives. *)
    let popped = Rsb.pop t.trsb in
    let hit = popped = ret_to in
    if not hit then t.ctrs.rsb_misses <- t.ctrs.rsb_misses + 1;
    charge t (Cost.backward_cost protection ~rsb_hit:hit);
    (match t.cfg.speculation with
    | Some s ->
      (match Speculation.take_rsb_desync s with
      | Some (Speculation.Forged_pac, gadget) ->
        Speculation.record s
          { Speculation.mechanism = Speculation.Ret2spec; site_id = -1; gadget }
      | Some ((Speculation.User_pollution | Speculation.Cross_thread), _) | None -> ())
    | None -> ())
  | Protection.B_ret_retpoline | Protection.B_fenced_ret_retpoline ->
    (* The sequence forces the top-of-RSB into a known state; the stale
       entry is consumed without being followed. *)
    ignore (Rsb.pop t.trsb);
    charge t (Cost.backward_cost protection ~rsb_hit:false));
  t.ctrs.stack_bytes <- t.ctrs.stack_bytes - cf.frame_bytes;
  match t.cfg.on_exit with
  | Some h -> h cf.f.fname
  | None -> ()

(* Function-entry stack accounting, shared by both backends. *)
let[@inline] enter_frame t (cf : cfunc) =
  t.ctrs.stack_bytes <- t.ctrs.stack_bytes + cf.frame_bytes;
  if t.ctrs.stack_bytes > t.ctrs.peak_stack_bytes then
    t.ctrs.peak_stack_bytes <- t.ctrs.stack_bytes

(* Cost of a compare-ladder switch lowering, a pure function of the case
   count (compilers lower large switches as balanced compare trees). *)
let ladder_cost ncases =
  let depth =
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v / 2) in
    1 + log2 0 (ncases + 1)
  in
  Cost.br + (Cost.switch_ladder_step * depth)
