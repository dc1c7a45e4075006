(* Differential suite for the two execution backends and the compile
   cache.

   The engine's parity contract (engine.mli) says Interp and Compiled are
   bit-exact: identical cycles, counters, traces, memory and errors for
   any program and configuration.  The qcheck properties here drive
   random programs through both backends under every interesting
   configuration axis — protections, surcharges, rsb_refill, a stateful
   fwd_override hook, tiny fuel budgets and wild indirect calls — and
   compare full observable snapshots.  Speculation drills are not an
   axis: an engine with a drill state runs the interpreter whatever
   backend it asks for (pinned below), and the drill verdicts are pinned
   by test_attack.ml's matrix and test_measure.ml's attack fingerprint.
   The golden fingerprints in test_measure.ml pin the same contract
   against the recorded seed. *)

open Pibe_ir
open Pibe_cpu
module Trace = Pibe_trace.Trace

(* ------------------------------------------------------------------ *)
(* Observable snapshot of a run                                        *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  outcomes : (int option, string) result list;
  cycles : int;
  counters : int list;
  trace : int list;
  memory : int list;
  icache : int * int;
  edges : (int * int) list;  (** (site id, callee id) call edges, in order *)
}

let counters_list (c : Engine.counters) =
  [
    c.Engine.calls;
    c.Engine.icalls;
    c.Engine.rets;
    c.Engine.insts;
    c.Engine.btb_misses;
    c.Engine.rsb_misses;
    c.Engine.pht_misses;
    c.Engine.stack_bytes;
    c.Engine.peak_stack_bytes;
  ]

(* [mkconfig] builds a fresh config per run, so stateful hooks never
   leak between the two backends under comparison.  The call-edge hook is installed on
   top, so every differential also compares the edge stream a profiler
   sees. *)
let run_with ~backend ~mkconfig prog calls =
  let config = mkconfig () in
  let edges = ref [] in
  let config =
    { config with Engine.on_call = Some (fun ~site ~callee -> edges := (site, callee) :: !edges) }
  in
  let engine = Engine.create ~config ~backend prog in
  let outcomes =
    List.map
      (fun (entry, args) ->
        match Engine.call engine entry args with
        | v -> Ok v
        | exception Engine.Runtime_error m -> Error ("runtime: " ^ m)
        | exception Engine.Out_of_fuel -> Error "out-of-fuel")
      calls
  in
  {
    outcomes;
    cycles = Engine.cycles engine;
    counters = counters_list (Engine.counters engine);
    trace = Engine.trace engine;
    memory = Array.to_list (Engine.memory engine);
    icache =
      (Icache.hit_count (Engine.icache engine), Icache.miss_count (Engine.icache engine));
    edges = List.rev !edges;
  }

let agree ~mkconfig prog calls =
  run_with ~backend:Engine.Interp ~mkconfig prog calls
  = run_with ~backend:Engine.Compiled ~mkconfig prog calls

(* ------------------------------------------------------------------ *)
(* Configuration axes                                                  *)
(* ------------------------------------------------------------------ *)

let base () =
  { Engine.default_config with Engine.record_trace = true }

(* Site/function-keyed protections (pure, so both backends resolve the
   same kinds) plus every per-event surcharge and rsb_refill. *)
let hardened () =
  {
    Engine.default_config with
    Engine.record_trace = true;
    fwd_protection =
      (fun site ->
        match site.Types.site_id mod 6 with
        | 0 -> Protection.F_none
        | 1 -> Protection.F_retpoline
        | 2 -> Protection.F_lvi
        | 3 -> Protection.F_fineibt
        | 4 -> Protection.F_coarse_cfi
        | _ -> Protection.F_fenced_retpoline);
    bwd_protection =
      (fun name ->
        match Hashtbl.hash name mod 5 with
        | 0 -> Protection.B_none
        | 1 -> Protection.B_lvi
        | 2 -> Protection.B_ret_retpoline
        | 3 -> Protection.B_pac
        | _ -> Protection.B_fenced_ret_retpoline);
    extra_call_cycles = 2;
    extra_icall_cycles = 3;
    extra_ret_cycles = 1;
    rsb_refill = true;
  }

(* Stateful forward-override hook (the JumpSwitches-style comparator):
   the charge depends on call order, so any divergence in execution order
   between backends shows up as a cycle mismatch. *)
let overridden () =
  let n = ref 0 in
  {
    Engine.default_config with
    Engine.record_trace = true;
    fwd_override =
      Some
        (fun ~site:_ ~target:_ ->
          incr n;
          !n mod 7);
  }

(* A live speculation drill with planted injections: poisoned fptr-cell
   loads (LVI) and an armed cross-thread RSB desync (Ret2spec). *)
let drilled () =
  let s = Speculation.create () in
  Speculation.inject_load s ~addr:3 ~value:1;
  Speculation.inject_rsb s ~scenario:Speculation.Cross_thread ~gadget:"f1";
  { Engine.default_config with Engine.record_trace = true; speculation = Some s }

(* Tiny step budget: both backends must die out-of-fuel at the same
   instruction with the same partial cycles and counters. *)
let starved () =
  { Engine.default_config with Engine.record_trace = true; fuel = 37 }

let differential name mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_program seed in
      agree ~mkconfig prog (Helpers.standard_calls prog))

(* ------------------------------------------------------------------ *)
(* Superblock traces and call seams                                    *)
(* ------------------------------------------------------------------ *)

(* Chain-biased programs: long Jmp-linked block chains, so every run
   executes multi-block superblock traces — including the planted
   mid-segment faulting loads of the generator. *)
let differential_chain name mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      agree ~mkconfig prog (Helpers.standard_calls prog))

(* The same chain programs once an earlier compiled engine has linked
   them: the second engine is a compile-cache hit that starts on the
   already published traces instead of the link trampolines, and must
   still match the interpreter exactly. *)
let differential_chain_linked =
  QCheck.Test.make ~count:60 ~name:"superblock chains agree once linked"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      let calls = Helpers.standard_calls prog in
      ignore (run_with ~backend:Engine.Compiled ~mkconfig:base prog calls);
      let _, misses = Engine.compile_cache_stats () in
      let ok = agree ~mkconfig:base prog calls in
      ok && snd (Engine.compile_cache_stats ()) = misses)

(* Fuel budgets swept per seed around the size of one superblock: both
   backends must die out-of-fuel at the same step even when the budget
   runs dry in the middle of a fused segment or exactly at a chain
   seam. *)
let differential_chain_starved =
  QCheck.Test.make ~count:80 ~name:"superblock out-of-fuel agrees at every seam"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      let mkconfig () =
        { Engine.default_config with Engine.record_trace = true; fuel = 5 + (seed mod 97) }
      in
      agree ~mkconfig prog (Helpers.standard_calls prog))

(* Call-chain-biased programs: loops of direct calls into small leaves,
   including the generator's planted mid-leaf faults and oversized
   leaves, so call/return seams dominate the run. *)
let differential_calls name mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_call_program seed in
      agree ~mkconfig prog (Helpers.standard_calls prog))

(* Fuel budgets swept around the size of one call span: both backends
   must die out-of-fuel at the same step even when the budget runs dry
   exactly at a call or return seam. *)
let differential_calls_starved =
  QCheck.Test.make ~count:80 ~name:"out-of-fuel at call seams agrees"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_call_program seed in
      let mkconfig () =
        { Engine.default_config with Engine.record_trace = true; fuel = 5 + (seed mod 97) }
      in
      agree ~mkconfig prog (Helpers.standard_calls prog))

(* A deterministic fault in the middle of a fused run: the load's address
   register goes out of bounds only for the poisoned argument, after the
   trace is already lowered — the rolled-back batch accounting must
   leave exactly the interpreter's partial state. *)
let test_fault_mid_superblock () =
  let open Types in
  let b = Builder.create ~name:"f0" ~params:1 in
  let blocks = Array.init 4 (fun i -> if i = 0 then 0 else Builder.new_block b) in
  let addr = Builder.reg b in
  Array.iteri
    (fun i label ->
      Builder.switch_to b label;
      let r1 = Builder.reg b in
      Builder.assign b r1 (Binop (Add, Reg 0, Imm (i * 3)));
      if i = 2 then begin
        (* in-bounds for arg 0, far out of bounds for arg 9999 *)
        Builder.assign b addr (Binop (Mul, Reg 0, Imm 7));
        let r2 = Builder.reg b in
        Builder.assign b r2 (Load (Reg addr));
        Builder.observe b (Reg r2)
      end;
      Builder.store b ~addr:(Imm (16 + i)) ~value:(Reg r1);
      if i = Array.length blocks - 1 then Builder.ret b (Some (Reg r1))
      else Builder.jmp b blocks.(i + 1))
    blocks;
  let prog =
    Program.add_func
      (Program.with_globals_size Program.empty Helpers.mem_cells)
      (Builder.finish b ())
  in
  let calls =
    [ ("f0", [ 1 ]); ("f0", [ 2 ]); ("f0", [ 3 ]); ("f0", [ 9999 ]); ("f0", [ 4 ]) ]
  in
  Alcotest.(check bool)
    "fault mid-superblock rolls back bit-exactly" true
    (agree ~mkconfig:base prog calls)

(* A caller with two call seams into a straight-line leaf that faults
   only for a poisoned argument, long after both traces are lowered: the
   leaf's batched segment must roll back to exactly the interpreter's
   partial state (call counter bumped, edge recorded, callee frame
   live). *)
let leaf_call_prog () =
  let open Types in
  let leaf =
    let b = Builder.create ~name:"leaf" ~params:1 in
    let r1 = Builder.reg b in
    Builder.assign b r1 (Binop (Add, Reg 0, Imm 3));
    let addr = Builder.reg b in
    (* in-bounds for small args, far out of bounds for arg 9999 *)
    Builder.assign b addr (Binop (Mul, Reg 0, Imm 7));
    let r2 = Builder.reg b in
    Builder.assign b r2 (Load (Reg addr));
    Builder.store b ~addr:(Imm 20) ~value:(Reg r2);
    Builder.ret b (Some (Reg r1));
    Builder.finish b ()
  in
  let prog =
    Program.add_func (Program.with_globals_size Program.empty Helpers.mem_cells) leaf
  in
  let prog = ref prog in
  let main =
    let b = Builder.create ~name:"f0" ~params:1 in
    let r0 = Builder.reg b in
    Builder.assign b r0 (Binop (Add, Reg 0, Imm 1));
    (* a straight-line compute stretch ahead of the two call seams *)
    let acc = ref r0 in
    for k = 1 to 9 do
      let r = Builder.reg b in
      Builder.assign b r (Binop (Xor, Reg !acc, Imm (k * 5)));
      acc := r
    done;
    Builder.assign b r0 (Binop (Add, Reg !acc, Imm 0));
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r1 = Builder.reg b in
    Builder.call b ~dst:r1 site "leaf" [ Reg 0 ];
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r2 = Builder.reg b in
    Builder.call b ~dst:r2 site "leaf" [ Reg r1 ];
    Builder.observe b (Reg r2);
    Builder.ret b (Some (Reg r2));
    Builder.finish b ()
  in
  Program.add_func !prog main

let test_fault_mid_call () =
  let prog = leaf_call_prog () in
  let calls =
    [ ("f0", [ 1 ]); ("f0", [ 2 ]); ("f0", [ 3 ]); ("f0", [ 9999 ]); ("f0", [ 4 ]) ]
  in
  Alcotest.(check bool)
    "fault mid-call rolls back bit-exactly" true
    (agree ~mkconfig:base prog calls && agree ~mkconfig:hardened prog calls)

(* A call to a function the program lacks fails on both backends after
   the call's counters and cycles, and reports no edge: the unknown
   callee's id of -1 would alias [Engine.top_id]. *)
let test_unknown_callee_reports_no_edge () =
  let leaf =
    let b = Builder.create ~name:"leaf" ~params:1 in
    Builder.ret b (Some (Reg 0));
    Builder.finish b ()
  in
  let prog = Program.add_func (Program.with_globals_size Program.empty Helpers.mem_cells) leaf in
  let prog, known = Program.fresh_site prog in
  let prog, unknown = Program.fresh_site prog in
  let main =
    let b = Builder.create ~name:"f0" ~params:1 in
    let r = Builder.reg b in
    Builder.call b ~dst:r known "leaf" [ Reg 0 ];
    Builder.call b ~dst:r unknown "nosuch" [ Reg r ];
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  let prog = Program.add_func prog main in
  let calls = [ ("f0", [ 1 ]); ("f0", [ 2 ]) ] in
  Alcotest.(check bool) "backends agree" true
    (agree ~mkconfig:base prog calls && agree ~mkconfig:hardened prog calls);
  let s = run_with ~backend:Engine.Interp ~mkconfig:base prog calls in
  let leaf_id = Engine.func_id (Engine.create prog) "leaf" in
  Alcotest.(check (list (pair int int)))
    "only the resolved call is an edge"
    [ (known.Types.site_id, leaf_id); (known.Types.site_id, leaf_id) ]
    s.edges;
  Alcotest.(check int) "both calls counted" 4 (List.hd s.counters)

(* Every fuel budget from empty to past the whole workload: wherever the
   budget dies — before the seam, on the call step, inside the leaf's
   batched segment, on the return — both backends stop identically. *)
let test_fuel_sweep_at_call_seam () =
  let prog = leaf_call_prog () in
  let calls = [ ("f0", [ 1 ]); ("f0", [ 2 ]); ("f0", [ 3 ]); ("f0", [ 4 ]) ] in
  for fuel = 1 to 80 do
    let mkconfig () =
      { Engine.default_config with Engine.record_trace = true; fuel }
    in
    Alcotest.(check bool)
      (Printf.sprintf "fuel %d dies at the same step" fuel)
      true
      (agree ~mkconfig prog calls)
  done

(* Accumulator runs: long stretches of [d = op d rhs] binops through one
   register.  Cover every binop in both operand shapes, an odd-length
   run, self-aliasing operands ([x = x + x]), comparisons that collapse
   the accumulator to 0/1 mid-run, and register shift amounts past the
   mask — all bit-exact against the interpreter. *)
let acc_run_prog () =
  let open Types in
  let b = Builder.create ~name:"f0" ~params:1 in
  let x = Builder.reg b and y = Builder.reg b in
  Builder.assign b x (Move (Reg 0));
  Builder.assign b y (Binop (Mul, Reg 0, Imm 3));
  (* immediate-shape run over every op (Lt/Eq mid-run collapse to 0/1) *)
  List.iter
    (fun (op, i) -> Builder.assign b x (Binop (op, Reg x, Imm i)))
    [ (Add, 5); (Sub, 3); (Mul, 7); (Xor, 9); (Or, 33); (And, 255);
      (Shl, 3); (Shr, 2); (Lt, 1000); (Eq, 1); (Add, 41); (Mul, 13) ];
  (* operand aliasing the accumulator *)
  Builder.assign b x (Binop (Add, Reg x, Reg x));
  (* register-shape run, including shift amounts >= 32 in [y] *)
  List.iter
    (fun op -> Builder.assign b x (Binop (op, Reg x, Reg y)))
    [ Add; Sub; Xor; And; Or; Shl; Shr; Mul; Lt; Eq ];
  Builder.observe b (Reg x);
  (* odd-length tail run exercises the single-item epilogue *)
  Builder.assign b x (Binop (Add, Reg x, Imm 2));
  Builder.assign b x (Binop (Xor, Reg x, Imm 5));
  Builder.assign b x (Binop (Or, Reg x, Reg y));
  Builder.ret b (Some (Reg x));
  Program.add_func (Program.with_globals_size Program.empty Helpers.mem_cells)
    (Builder.finish b ())

let test_acc_runs () =
  let prog = acc_run_prog () in
  let calls =
    List.map
      (fun v -> ("f0", [ v ]))
      [ 0; 1; 5; 17; 40; 255; 100000; max_int / 3; 0; 7 ]
  in
  Alcotest.(check bool)
    "accumulator runs agree bit-exactly" true
    (agree ~mkconfig:base prog calls && agree ~mkconfig:hardened prog calls)

(* A self-recursive callee: every activation re-enters the same lowered
   traces from a deeper frame, and the runs must agree with the
   interpreter, also under protections that charge every return. *)
let test_recursive_callee () =
  let open Types in
  let prog = ref (Program.with_globals_size Program.empty Helpers.mem_cells) in
  let rec_func =
    let b = Builder.create ~name:"rec" ~params:1 in
    let base_b = Builder.new_block b in
    let rec_b = Builder.new_block b in
    let cond = Builder.reg b in
    Builder.assign b cond (Binop (Lt, Reg 0, Imm 1));
    Builder.br b (Reg cond) base_b rec_b;
    Builder.switch_to b base_b;
    Builder.ret b (Some (Imm 0));
    Builder.switch_to b rec_b;
    let n1 = Builder.reg b in
    Builder.assign b n1 (Binop (Sub, Reg 0, Imm 1));
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r = Builder.reg b in
    Builder.call b ~dst:r site "rec" [ Reg n1 ];
    let r2 = Builder.reg b in
    Builder.assign b r2 (Binop (Add, Reg r, Imm 1));
    Builder.ret b (Some (Reg r2));
    Builder.finish b ()
  in
  prog := Program.add_func !prog rec_func;
  let main =
    let b = Builder.create ~name:"f0" ~params:1 in
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r = Builder.reg b in
    Builder.call b ~dst:r site "rec" [ Reg 0 ];
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  let prog = Program.add_func !prog main in
  let calls = List.init 6 (fun i -> ("f0", [ i ])) in
  Alcotest.(check bool)
    "recursive callee agrees" true
    (agree ~mkconfig:base prog calls && agree ~mkconfig:hardened prog calls)

(* Lazy lowering is shared: four domains drive private engines over ONE
   program, so whichever domain first reaches a function or a trace head
   lowers it for all of them, in a scheduling-dependent order.  Every
   domain's snapshots must still equal a sequential run over a
   structurally identical but physically distinct copy (its own cache
   entry, lowered by one engine alone). *)
let test_lazy_lowering_deterministic_across_domains () =
  let progs () = (Helpers.random_chain_program 321_123, Helpers.random_call_program 321_124) in
  let profile (chain_prog, call_prog) () =
    ( run_with ~backend:Engine.Compiled ~mkconfig:base chain_prog
        (Helpers.standard_calls chain_prog),
      run_with ~backend:Engine.Compiled ~mkconfig:hardened call_prog
        (Helpers.standard_calls call_prog) )
  in
  let sequential = profile (progs ()) () in
  let shared = progs () in
  let domains = List.init 4 (fun _ -> Domain.spawn (profile shared)) in
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d matches the sequential run" i)
        true
        (Domain.join d = sequential))
    domains

(* Wild indirect calls: corrupt the fptr-index cells so icalls resolve
   out of table (or to a huge index) — both backends must raise the same
   Runtime_error at the same point, with identical partial state. *)
let differential_wild =
  QCheck.Test.make ~count:60 ~name:"wild icalls agree"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_program seed in
      let prog = Program.set_global prog ~addr:0 ~value:997 in
      let prog = Program.set_global prog ~addr:1 ~value:(-3) in
      agree ~mkconfig:base prog (Helpers.standard_calls prog))

(* ------------------------------------------------------------------ *)
(* Compile cache                                                       *)
(* ------------------------------------------------------------------ *)

(* Two interleaved programs must each compile exactly once: the LRU keeps
   both live across the alternation (the online dual replay's deployed /
   pristine pattern). *)
let test_interleaved_compile_once () =
  let p1 = Helpers.random_program 424_201 in
  let p2 = Helpers.random_program 424_202 in
  let h0, m0 = Engine.compile_cache_stats () in
  for _ = 1 to 4 do
    ignore (Engine.create p1);
    ignore (Engine.create p2)
  done;
  let h1, m1 = Engine.compile_cache_stats () in
  Alcotest.(check int) "each program compiled exactly once" 2 (m1 - m0);
  Alcotest.(check int) "remaining creates were cache hits" 6 (h1 - h0)

let test_trace_compile_events () =
  let p = Helpers.random_program 777_001 in
  Trace.start ();
  ignore (Engine.create p);
  ignore (Engine.create p);
  let events = Trace.stop () in
  let sched name ph =
    List.exists
      (fun (e : Trace.event) ->
        String.equal e.Trace.cat "sched" && String.equal e.Trace.name name
        && e.Trace.ph = ph)
      events
  in
  Alcotest.(check bool) "engine:compile span opened" true
    (sched "engine:compile" Trace.Begin);
  Alcotest.(check bool) "engine:compile span closed" true
    (sched "engine:compile" Trace.End);
  Alcotest.(check bool) "compile-cache-miss counter" true
    (sched "compile-cache-miss" Trace.Counter);
  Alcotest.(check bool) "compile-cache-hit counter" true
    (sched "compile-cache-hit" Trace.Counter)

(* The cache is keyed on physical program identity alone: a plain
   compiled engine, a speculation-drill engine (which runs the
   interpreter) and an interpreter engine on one program share one
   entry, so together they cost exactly one compile. *)
let test_cache_shared_across_engine_kinds () =
  let p = Helpers.random_chain_program 424_203 in
  let h0, m0 = Engine.compile_cache_stats () in
  ignore (Engine.create ~backend:Engine.Compiled p);
  ignore
    (Engine.create ~backend:Engine.Compiled
       ~config:{ Engine.default_config with Engine.speculation = Some (Speculation.create ()) }
       p);
  ignore (Engine.create ~backend:Engine.Interp p);
  let h1, m1 = Engine.compile_cache_stats () in
  Alcotest.(check int) "one compile for all three engines" 1 (m1 - m0);
  Alcotest.(check int) "the other two creates were cache hits" 2 (h1 - h0)

(* IR that [Validate] rejects never reaches either backend's unchecked
   accesses: the static index check runs in the shared compile step, so
   [create] raises on both backends, eagerly, and nothing is cached (two
   creates, two misses).  Without it an out-of-range destination crashed
   the interpreter, and an out-of-range read crashed the compiled
   backend's entry zeroing. *)
let invalid_program body =
  Parser.parse_program
    ("program {\n  globals 4\n  next_site 0\n}\n\nfunc @main(params=1, regs=2) {\nbb0:\n"
   ^ body ^ "\n  ret r0\n}\n")

let test_invalid_indices_rejected_at_create () =
  List.iter
    (fun body ->
      let p = invalid_program body in
      let h0, m0 = Engine.compile_cache_stats () in
      List.iter
        (fun backend ->
          Alcotest.check_raises
            (body ^ " on " ^ Engine.backend_to_string backend)
            (Engine.Runtime_error "invalid static indices in @main")
            (fun () -> ignore (Engine.create ~backend p)))
        [ Engine.Interp; Engine.Compiled ];
      let h1, m1 = Engine.compile_cache_stats () in
      Alcotest.(check (pair int int)) (body ^ ": two misses, no hit") (0, 2) (h1 - h0, m1 - m0))
    [ "  r900000 = move r1"; "  observe r900000" ]

(* The simulated stack-depth fault: a self-recursive function whose
   deepest activation needs frame [max_call_depth] raises on both
   backends with the same cycles, counters and edges; one level less
   returns on both. *)
let recursion =
  Parser.parse_program
    "program {\n  globals 4\n  next_site 1\n}\n\n\
     func @rec(params=1, regs=3) {\nbb0:\n  br r0, bb1, bb2\nbb1:\n\
    \  r1 = sub r0, 1\n  r2 = call @rec(r1) !site 0\n  ret r2\nbb2:\n  ret 7\n}\n"

let test_call_depth_fault () =
  let mkconfig () = { Engine.default_config with Engine.fuel = max_int } in
  let run depth =
    let calls = [ ("rec", [ depth ]) ] in
    let a = run_with ~backend:Engine.Interp ~mkconfig recursion calls in
    let b = run_with ~backend:Engine.Compiled ~mkconfig recursion calls in
    Alcotest.(check bool) (Printf.sprintf "depth %d agrees" depth) true (a = b);
    a.outcomes
  in
  let limit = Engine.max_call_depth in
  Alcotest.(check bool) "one level less returns" true (run (limit - 1) = [ Ok (Some 7) ]);
  Alcotest.(check bool) "the cap raises" true
    (run limit
    = [ Error (Printf.sprintf "runtime: call depth exceeds %d activations" limit) ])

(* Link observability: the first call into a function links it inside an
   engine:link span, and while tracing the lowering reports
   fused-superblocks and segment-coverage counters (all "sched"
   category, stripped from canonical traces, rendered by every sink). *)
let test_trace_link_events () =
  let p = Helpers.random_chain_program 777_002 in
  Trace.start ();
  let engine = Engine.create p in
  List.iter
    (fun (entry, args) -> ignore (Engine.call engine entry args))
    (Helpers.standard_calls p);
  let events = Trace.stop () in
  let sched name ph =
    List.exists
      (fun (e : Trace.event) ->
        String.equal e.Trace.cat "sched" && String.equal e.Trace.name name
        && e.Trace.ph = ph)
      events
  in
  Alcotest.(check bool) "engine:link span opened" true (sched "engine:link" Trace.Begin);
  Alcotest.(check bool) "engine:link span closed" true (sched "engine:link" Trace.End);
  Alcotest.(check bool) "fused-superblocks counter" true
    (sched "fused-superblocks" Trace.Counter);
  Alcotest.(check bool) "segment-coverage counter" true
    (sched "segment-coverage" Trace.Counter)

(* ------------------------------------------------------------------ *)
(* Backend selection plumbing                                          *)
(* ------------------------------------------------------------------ *)

(* A drill engine runs the interpreter whatever backend it asks for, and
   links nothing: a traced drill run on a fresh program opens no
   engine:link span, while a plain compiled run on the same program
   afterwards does. *)
let test_drill_engines_run_interp () =
  let p = Helpers.random_call_program 777_003 in
  List.iter
    (fun backend ->
      let config = drilled () in
      Alcotest.(check bool) "drill engine reports interp" true
        (Engine.backend (Engine.create ~config ?backend p) = Engine.Interp))
    [ Some Engine.Compiled; Some Engine.Interp; None ];
  let links mkconfig =
    Trace.start ();
    ignore (run_with ~backend:Engine.Compiled ~mkconfig p (Helpers.standard_calls p));
    List.exists (fun (e : Trace.event) -> String.equal e.Trace.name "engine:link") (Trace.stop ())
  in
  Alcotest.(check bool) "a drill run links nothing" false (links drilled);
  Alcotest.(check bool) "a plain compiled run links" true (links base)

let test_backend_selection () =
  let p = Helpers.random_program 9_001 in
  let i = Engine.create ~backend:Engine.Interp p in
  let c = Engine.create ~backend:Engine.Compiled p in
  Alcotest.(check bool) "explicit interp" true (Engine.backend i = Engine.Interp);
  Alcotest.(check bool) "explicit compiled" true (Engine.backend c = Engine.Compiled);
  Alcotest.(check bool) "default is compiled" true
    (Engine.default_backend () = Engine.Compiled);
  List.iter
    (fun b ->
      Alcotest.(check bool) "name round-trips" true
        (Engine.backend_of_string (Engine.backend_to_string b) = Some b))
    [ Engine.Interp; Engine.Compiled ];
  Alcotest.(check bool) "unknown name rejected" true
    (Engine.backend_of_string "threaded" = None)

let suite =
  [
    Helpers.qcheck_to_alcotest (differential "plain runs agree" base);
    Helpers.qcheck_to_alcotest (differential "hardened+rsb_refill runs agree" hardened);
    Helpers.qcheck_to_alcotest (differential "stateful fwd_override agrees" overridden);
    Helpers.qcheck_to_alcotest (differential "out-of-fuel agrees" starved);
    Helpers.qcheck_to_alcotest differential_wild;
    Helpers.qcheck_to_alcotest (differential_chain "superblock chains agree" base);
    Helpers.qcheck_to_alcotest
      (differential_chain "superblock chains agree hardened" hardened);
    Helpers.qcheck_to_alcotest differential_chain_linked;
    Helpers.qcheck_to_alcotest differential_chain_starved;
    Helpers.qcheck_to_alcotest (differential_calls "call-seam fusion agrees" base);
    Helpers.qcheck_to_alcotest
      (differential_calls "call-seam fusion agrees hardened" hardened);
    Helpers.qcheck_to_alcotest differential_calls_starved;
    Alcotest.test_case "fault mid-superblock rolls back" `Quick
      test_fault_mid_superblock;
    Alcotest.test_case "fault mid-fused-call rolls back" `Quick test_fault_mid_call;
    Alcotest.test_case "unknown callee reports no edge" `Quick
      test_unknown_callee_reports_no_edge;
    Alcotest.test_case "fuel sweep at call seams" `Quick
      test_fuel_sweep_at_call_seam;
    Alcotest.test_case "accumulator runs bit-exact" `Quick test_acc_runs;
    Alcotest.test_case "recursive callee never fuses" `Quick test_recursive_callee;
    Alcotest.test_case "lazy lowering deterministic across domains" `Quick
      test_lazy_lowering_deterministic_across_domains;
    Alcotest.test_case "interleaved programs compile once" `Quick
      test_interleaved_compile_once;
    Alcotest.test_case "compile cache shared across engine kinds" `Quick
      test_cache_shared_across_engine_kinds;
    Alcotest.test_case "compile spans and cache counters traced" `Quick
      test_trace_compile_events;
    Alcotest.test_case "link spans and counters traced" `Quick test_trace_link_events;
    Alcotest.test_case "invalid indices rejected at create" `Quick
      test_invalid_indices_rejected_at_create;
    Alcotest.test_case "call depth fault agrees" `Quick test_call_depth_fault;
    Alcotest.test_case "backend selection and names" `Quick test_backend_selection;
    Alcotest.test_case "drill engines run the interpreter" `Quick
      test_drill_engines_run_interp;
  ]
