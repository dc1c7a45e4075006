(** The execution engine: a cycle-accounting executor with two backends.

    One engine instance models one machine: global memory, BTB, RSB and
    instruction cache persist across top-level calls, exactly like kernel
    state persists across syscalls.  Costs follow {!Cost}; indirect-branch
    costs depend on the protection looked up through the configuration
    (supplied by the hardening pass's image, or all-[none] by default).

    [create] interns every function name to a dense integer id and
    compiles the program into a pre-resolved form: direct-call targets and
    fptr-table entries become function references, the BTB/RSB/i-cache are
    keyed by id, per-function constants (PHT key base, frame bytes,
    backward protection) are computed once, and register frames come from
    a per-depth pool — so the per-call hot path performs no string
    hashing, no hashtable probes, and no allocation.  Strings survive only
    at the API edges (entry points, traces, errors); the call-edge hook
    sees ints.

    {2 Backends and the parity contract}

    Two interchangeable execution backends run the compiled view:

    - [Compiled] (the default): a closure-threading stage additionally
      lowers every instruction, expression and terminator into a
      pre-specialized closure — operand kinds, binop selection, costs,
      resolved callee ids, PHT keys and indirect-call protection kinds
      are baked at closure construction, so the hot loop does no
      constructor matching at all.  The unit of
      lowering is a {e superblock trace}: the chain of blocks a label
      reaches through unconditional [Jmp] edges runs as one closure, its
      straight-line runs fused into segments with one batched
      fuel/step/instruction/cycle update, so branch-predictor, RSB and
      i-cache state is only touched at conditional branches, indirect
      transfers and call boundaries.  Lowering is lazy twice over — per
      function on its first call, then per trace head on its first
      dispatch — so an engine pays only for the code its workload
      reaches.
    - [Interp]: the reference tree-walking interpreter, kept as the
      executable semantics.  It is also the only backend that runs
      speculation drills: an engine whose config carries a
      [speculation] state runs [Interp] whatever [?backend] or the
      process default asks for, so attack verdicts come straight off
      the reference semantics and the compiled backend keeps one
      taint-free lowering per function.

    The contract is bit-exactness: for any program, config and workload
    the two backends produce identical cycles, counters, traces, memory
    and errors, so when (or whether) a trace is lowered is unobservable
    except as wall-clock speed.  The golden fingerprints in
    [test/test_measure.ml] and the differential suite in
    [test/test_backend.ml] pin it; the golden [test/golden/bench.t]
    byte-compares full [--quick] bench output between the two backends.

    Compilation output is cached in a {!Pibe_util.Memo} of 64 entries
    keyed on {e physical} program identity alone, so repeated [create]
    over a working set of programs — attack drills, measurement cells,
    the online dual replay's deployed/pristine alternation — compiles
    each program exactly once, whatever backend each engine uses.  Compile cost and cache traffic are visible as
    ["sched"]-category [engine:compile] spans and
    [compile-cache-hit]/[compile-cache-miss] trace counters; linking a
    function additionally emits an [engine:link] span, and while tracing
    the lowering reports [fused-superblocks] and [segment-coverage]
    counters.

    The engine doubles as
    - the {e profiling binary}: [on_call] observes every resolved call
      edge as a (site id, callee id) pair (the simulated LBR feed), and
    - the {e attack testbed}: with [speculation] set, attacker-visible
      transient entries are recorded at unprotected indirect branches. *)

open Pibe_ir

type backend =
  | Interp  (** reference tree-walking interpreter *)
  | Compiled  (** closure-threaded compiled backend *)

val backend_to_string : backend -> string

val backend_of_string : string -> backend option
(** Recognizes ["interp"] and ["compiled"]. *)

val set_default_backend : backend -> unit
(** Sets the process-wide backend used by [create] when no explicit
    [?backend] is given (initially [Compiled]).  Wired to the [--engine]
    flag of [pibe_cli] and the bench harness. *)

val default_backend : unit -> backend

type config = {
  fwd_protection : Types.site -> Protection.forward;
  bwd_protection : string -> Protection.backward;
  cfi_valid :
    site:Types.site -> target:string -> protection:Protection.forward -> bool;
      (** Target-set oracle for the CFI forward kinds ([F_fineibt],
          [F_coarse_cfi]): a transient entry into [target] only lands
          when this returns true (the hardening pass installs the
          landing-pad / address-taken analysis here; defaults to
          always-valid, i.e. a label-only check) *)
  fwd_override : (site:Types.site -> target:string -> int) option;
      (** When set, indirect-call transfer cycles come from this hook
          instead of the protection/BTB machinery — used by stateful
          comparators such as the JumpSwitches model, which patch call
          sites at runtime. *)
  icache_bytes : int;  (** 0 disables the i-cache model *)
  footprint : Types.func -> int;  (** code footprint used by the i-cache *)
  record_trace : bool;
  on_call : (site:int -> callee:int -> unit) option;
      (** called on every resolved in-program call — direct, indirect
          and asm — with the call site's [site_id] and the callee's
          interned id (name it with {!func_name}); the simulated LBR
          feed.  It runs after the transfer's prediction and cost and
          before the callee's i-cache fill.  A call to a function the
          program lacks reports nothing: it fails with [Runtime_error]
          on both backends. *)
  on_entry : (string -> unit) option;
      (** called on every top-level {!call} with the entered function —
          the kernel-entry (syscall) boundary, which a hardware profiler
          observes even when every in-kernel call has been inlined away;
          in-program transfers go through [on_call] instead *)
  on_exit : (string -> unit) option;
      (** called when a function activation returns (profiler support;
          pairs with the entry visible through [on_call]) *)
  speculation : Speculation.t option;
  fuel : int;  (** interpreter step budget; guards against runaway code *)
  extra_call_cycles : int;
      (** flat per-direct-call surcharge (models stackprotector/safestack
          prologue work in Table 1's non-transient rows) *)
  extra_icall_cycles : int;  (** per-indirect-call surcharge (LLVM-CFI check) *)
  extra_ret_cycles : int;  (** per-return surcharge (canary check) *)
  rsb_refill : bool;
      (** stuff the RSB on every kernel entry (the ad-hoc Ret2spec
          mitigation of paper §6.4): clears user-planted desyncs — and
          only those — at a small fixed entry cost *)
}

val default_config : config
(** No protection, 32 KiB i-cache, [Layout.func_size] footprints, no trace,
    no hooks, fuel of 100 million steps. *)

type counters = {
  mutable calls : int;
  mutable icalls : int;
  mutable rets : int;
  mutable insts : int;
  mutable btb_misses : int;
  mutable rsb_misses : int;
  mutable pht_misses : int;
  mutable stack_bytes : int;  (** current stack footprint (frames * regs) *)
  mutable peak_stack_bytes : int;
}

type t

exception Runtime_error of string
exception Out_of_fuel

val create : ?config:config -> ?backend:backend -> Program.t -> t
(** [backend] defaults to {!default_backend}[ ()].  Both backends are
    bit-exact against each other (see the parity contract above).  A
    [config] with [speculation = Some _] selects [Interp] regardless of
    [backend], so {!backend} reports [Interp] for every drill engine.

    Raises [Runtime_error "invalid static indices in @f"] when a function
    [f] reads or writes a register outside [\[0, nregs)], names a block
    label outside its block array, or takes more parameters than it has
    registers — IR that [Validate] rejects.  The check runs once per
    program, whether or not [f] is ever called; a rejected program is
    not cached, so every [create] on it raises. *)

val backend : t -> backend
(** The backend this engine executes with. *)

val compile_cache_stats : unit -> int * int
(** Process-wide [(hits, misses)] of the compile memo since start — a hit
    means [create] reused a previously compiled program (physical
    identity); a [create] that raises counts as a miss. *)

val call : t -> string -> int list -> int option
(** [call t fname args] runs the function to completion and returns its
    return value.  Raises [Runtime_error] on wild indirect calls, unknown
    functions and calls deeper than {!max_call_depth}; [Out_of_fuel] when
    the step budget is exhausted. *)

val max_call_depth : int
(** Activations one top-level [call] may stack, itself included (2{^16}).
    A call that would go deeper raises [Runtime_error] on both backends
    at the same point, after the call's i-cache and RSB charges and
    before any callee state. *)

val cycles : t -> int
(** Accumulated simulated cycles since creation (or the last
    [reset_cycles]). *)

val reset_cycles : t -> unit
val counters : t -> counters
val trace : t -> int list
(** Observed values in program order (empty unless [record_trace]). *)

val clear_trace : t -> unit
val memory : t -> int array
(** The live global memory (mutable; workloads flip dispatch cells here). *)

val btb : t -> Btb.t
val rsb : t -> Rsb.t
val pht : t -> Pht.t
val icache : t -> Icache.t
val program : t -> Program.t

val func_id : t -> string -> int
(** The interned id of a function — the value the BTB/RSB/i-cache key on.
    Raises [Runtime_error] for names not in the program. *)

val func_name : t -> int -> string
(** Inverse of {!func_id} ([top_id] renders as ["#top"]). *)

val top_id : int
(** Sentinel id of the synthetic top-of-stack return continuation pushed
    before each top-level [call]. *)

val speculation : t -> Speculation.t option
(** The drill state this engine was configured with, if any. *)

val trace_counters : ?cat:string -> name:string -> t -> unit
(** Emit one {!Pibe_trace.Trace.counter} sample named [name] (category
    [cat], default ["cpu"]) carrying this engine's accumulated counters:
    cycles, instructions, calls/icalls/rets, BTB/RSB/PHT misses, i-cache
    hits+misses, peak stack bytes and recorded speculation events.  All
    values are simulated and identical on both backends, so
    {!Pibe_trace.Trace.canonical} streams do not depend on the backend;
    when trace collection is disabled this is a no-op costing one atomic
    load. *)
