(** The execution engine façade: backend selection, compile caching and
    the public API over {!Machine}.

    Two backends share one semantics (see {!Machine} for everything that
    must not drift): {!Interp}, the reference tree-walking interpreter,
    and {!Compile2}, the closure-threaded compiled backend that bakes
    dispatch decisions at compile time.  [create ?backend] picks one per
    engine; the process default (normally [Compiled]) is set once by the
    CLI/bench [--engine] flag through {!set_default_backend}.  An engine
    whose config carries a speculation drill state always runs
    [Interp]: drills exist for their security verdicts, which come
    straight off the reference semantics.

    The compiled backend lowers each function once, lazily on its first
    call, into superblock-trace closures, themselves lowered lazily per
    trace head (see {!Compile2}); there is one compiled execution shape
    and no knob beyond the backend choice.

    Compilation output — the {!Machine.compiled} view plus the closure
    program — is cached in a {!Pibe_util.Memo} keyed on physical program
    identity alone, so alternating over a working set of programs (the
    online dual replay's deployed/pristine pair, attack drills over
    several images) compiles each program exactly once, whatever mix of
    backends its engines use.  Cache traffic is visible as
    ["sched"]-category [engine:compile] spans and
    [compile-cache-hit]/[compile-cache-miss] counters. *)

open Pibe_ir
include Machine

let backend_to_string = function
  | Interp -> "interp"
  | Compiled -> "compiled"

let backend_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

(* Process-wide default, overridable per engine at [create].  Atomic
   because worker domains read it while the main domain parses flags. *)
let default_backend_cell = Atomic.make Compiled
let set_default_backend b = Atomic.set default_backend_cell b
let default_backend () = Atomic.get default_backend_cell

(* ----------------------- compile cache ------------------------- *)

(* A {!Pibe_util.Memo} over physically distinct programs.  The common
   patterns are (a) many engines in a row over one image (attack drills,
   measurement cells) and (b) an alternating working set: the online
   dual replay flips deployed/pristine every window, each controller
   rebuild adds one fresh program, and parallel experiment cells sweep
   several images at once.  64 entries cover all of them with room for
   wide sweeps.

   An entry is keyed on physical program identity alone: the compiled
   view and the closure program depend on nothing else (interpreter
   engines, drill engines among them, use only the view, and the closure
   program links nothing until a compiled engine calls into it), so
   every engine on one image shares one entry (pinned by the
   cache-sharing test in test_backend.ml).  A program that fails the
   static index check raises from [compile] and is never recorded. *)
type cache_entry = {
  cview : compiled;
  cclosures : Compile2.prog;
}

let cache : (Program.t, cache_entry) Pibe_util.Memo.t =
  Pibe_util.Memo.create ~capacity:64 ~counter:"compile-cache" ~equal:( == ) ()

let compile_cache_stats () = Pibe_util.Memo.stats cache

let compile_entry prog =
  Pibe_trace.Trace.span ~cat:"sched" "engine:compile" (fun () ->
      let cview = compile prog in
      { cview; cclosures = Compile2.compile cview ~mem_len:prog.Program.globals_size })

let entry_for prog = Pibe_util.Memo.get cache prog compile_entry

(* ------------------------ construction ------------------------- *)

let create ?(config = default_config) ?backend prog =
  let backend =
    match (config.speculation, backend) with
    | Some _, _ -> Interp
    | None, Some b -> b
    | None, None -> Atomic.get default_backend_cell
  in
  let entry = entry_for prog in
  let compiled = entry.cview in
  let n = Array.length compiled.cby_id in
  {
    prog;
    funcs = compiled.cfuncs;
    by_id = compiled.cby_id;
    fptr_table = prog.Program.fptr_table;
    fptr_ids = compiled.cfptr_ids;
    bwds = Array.map (fun cf -> config.bwd_protection cf.f.fname) compiled.cby_id;
    (* Protections are per-engine (the config closes over a hardened
       image), but [Pass.fwd_protection] is a pure site-keyed lookup, so
       baking it into a slot-indexed array at create time is exact. *)
    fwd_prots = Array.map config.fwd_protection compiled.cicall_sites;
    sizes = Array.make (max n 1) (-1);
    mem = Program.initial_memory prog;
    tbtb = Btb.create ();
    trsb = Rsb.create ();
    tpht = Pht.create ();
    ticache = Icache.create ~capacity_bytes:config.icache_bytes;
    cfg = config;
    fuel_cap = config.fuel;
    ctrs =
      {
        calls = 0;
        icalls = 0;
        rets = 0;
        insts = 0;
        btb_misses = 0;
        rsb_misses = 0;
        pht_misses = 0;
        stack_bytes = 0;
        peak_stack_bytes = 0;
      };
    max_regs = compiled.cmax_regs;
    backend;
    exec_entry =
      (match backend with
      | Interp -> Interp.entry
      | Compiled -> Compile2.entry entry.cclosures);
    frames = Array.make 0 [||];
    taint_frames = Array.make 0 [||];
    cur_regs = [||];
    cur_depth = 0;
    cur_ret_to = 0;
    call_memo = None;
    cyc = 0;
    steps = 0;
    trace_rev = [];
  }

let func_id t name =
  match Hashtbl.find_opt t.funcs name with
  | Some cf -> cf.id
  | None -> raise (Runtime_error ("call to unknown function @" ^ name))

let call t name args =
  let cf =
    (* Workload drivers call the same entry point per request, passing
       the same physical string; skip the hash on that path. *)
    match t.call_memo with
    | Some (n, cf) when n == name -> cf
    | _ -> (
      match Hashtbl.find_opt t.funcs name with
      | Some cf ->
        t.call_memo <- Some (name, cf);
        cf
      | None -> raise (Runtime_error ("call to unknown function @" ^ name)))
  in
  (* the kernel-entry boundary is observable (perf sees the syscall
     dispatch), unlike in-program transfers which go through [on_call] *)
  (match t.cfg.on_entry with None -> () | Some f -> f name);
  if t.cfg.rsb_refill then begin
    (* stuffing: 16 dummy pushes at the entry point *)
    charge t 12;
    Rsb.flush t.trsb;
    (match t.cfg.speculation with
    | Some s -> Speculation.clear_user_rsb_desync s
    | None -> ())
  end;
  enter_code t cf;
  Rsb.push t.trsb top_id;
  t.exec_entry t cf args

let speculation t = t.cfg.speculation
let backend t = t.backend

let cycles t = t.cyc
let reset_cycles t = t.cyc <- 0
let counters t = t.ctrs
let trace t = List.rev t.trace_rev
let clear_trace t = t.trace_rev <- []
let memory t = t.mem
let btb t = t.tbtb
let rsb t = t.trsb
let pht t = t.tpht
let icache t = t.ticache
let program t = t.prog

(* One structured-metrics sample of everything this engine counts.  The
   values are simulated quantities (pure functions of program + seeds), so
   the emitted event content is deterministic; cost is one atomic load
   when trace collection is off. *)
let trace_counters ?(cat = "cpu") ~name t =
  if Pibe_trace.Trace.enabled () then begin
    let open Pibe_trace.Trace in
    let c = t.ctrs in
    counter ~cat name
      [
        ("cycles", Int t.cyc);
        ("insts", Int c.insts);
        ("calls", Int c.calls);
        ("icalls", Int c.icalls);
        ("rets", Int c.rets);
        ("btb_miss", Int c.btb_misses);
        ("rsb_miss", Int c.rsb_misses);
        ("pht_miss", Int c.pht_misses);
        ("icache_hit", Int (Icache.hit_count t.ticache));
        ("icache_miss", Int (Icache.miss_count t.ticache));
        ("peak_stack_bytes", Int c.peak_stack_bytes);
        ( "spec_events",
          Int
            (match t.cfg.speculation with
            | None -> 0
            | Some s -> List.length (Speculation.events s)) );
      ]
  end
