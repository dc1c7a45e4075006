(** The pipeline driver: runs a pass list over a program + profile with
    built-in per-pass instrumentation, then materializes the hardened
    image from the accumulated defense requests.

    For every pass the manager records an IR snapshot delta (functions,
    blocks, instructions, code bytes, remaining indirect forward edges,
    remaining returns, remaining jump tables).  Host time is measured
    only by the trace spans below.  With [~verify:true] the IR validator
    runs between every pass (and on the final image); an optional
    [~check] hook — e.g. differential interpretation on a smoke workload
    — also runs after every pass.

    When {!Pibe_trace.Trace} collection is on, a run additionally emits a
    ["pm"]-category span tree — [pm:run] around the whole pipeline, one
    [pass:<elem>] span per pass, [pm:harden] around image
    materialization — with [ir-delta] counters (IR deltas plus remaining
    indirect/return/jump-table sites), per-pass [pass-detail] counters
    (sites promoted / inlined / folded), and a final [hardened] counter
    (sites protected, image bytes), emitted after [pm:harden] closes so
    that span times the hardening alone.  All values are deterministic; with
    collection off the instrumentation is a no-op.

    Builds that share an optimization prefix share its work: see {!run}
    for the reuse contract. *)

open Pibe_ir

type snapshot = {
  funcs : int;
  blocks : int;
  insts : int;  (** terminators included *)
  code_bytes : int;  (** pre-thunk text bytes (layout model) *)
  icalls : int;  (** remaining promotable indirect forward edges *)
  rets : int;  (** remaining backward edges *)
  jump_tables : int;
}

val snapshot : Program.t -> snapshot
(** Sums every function's {!Pibe_ir.Summary}, so a function is walked
    only the first time any summary reader meets it; [code_bytes] equals
    [Layout.total_code_bytes (Layout.build p)] without building the
    layout. *)

type pass_stats = {
  pass : string;  (** canonical spec element, e.g. ["icp(budget=99.999)"] *)
  before : snapshot;
  after : snapshot;
  detail : Pass.detail;
}

type result = {
  image : Pibe_harden.Pass.image;
  profile : Pibe_profile.Profile.t;
      (** the pipeline's own copy after every pass ran (post-ICP: promoted
          sites are direct now) *)
  provenance : Pibe_profile.Provenance.t;
      (** inline/promotion tree recorded by the optimization passes;
          shipped with the image for optimized-image profile lifting *)
  passes : pass_stats list;  (** in execution order *)
}

val run :
  ?verify:bool ->
  ?check:(Program.t -> unit) ->
  Program.t ->
  Pibe_profile.Profile.t ->
  Pass.t list ->
  result
(** The input profile is copied, never mutated.  [verify] defaults to
    false: release pipeline runs skip validation; tests and [--verify]
    CLI runs turn it on.

    {b Optimization-prefix reuse.}  The optimizing passes only elide
    indirect branches and the hardening requests only set flags, so one
    optimized program serves every defense set (paper §4–6).  [run]
    therefore remembers the state it reaches after the {e prefix} — the
    leading run of passes whose {!Pass.t} [request] tag is off — and a
    later run with the same prefix re-applies only its requests and the
    final hardening.  The contract:

    - {e Key}: the input program by physical identity, the input profile
      by physical identity plus {!Pibe_profile.Profile.version}, the
      canonical spec text of the prefix, and [verify].  Mutating the
      profile between two runs is therefore a miss.
    - {e Prefix}: a pass list that starts with a request has none and
      is never reused.
    - {e Ownership}: the remembered state keeps private copies of its
      profile and provenance; a reused run hands back fresh copies, so
      mutating a returned [profile] or [provenance] never reaches a later
      run.
    - {e Stats}: reused passes report the {!pass_stats} recorded when
      the prefix ran, which equal a cold run's.  A reused run does no
      whole-program work on the input.
    - {e Trace}: a reused run emits each reused pass's [pass:<elem>]
      span with its [ir-delta] and [pass-detail] counters, so
      {!Pibe_trace.Trace.canonical} is the same either way; reuse traffic
      shows only as ["sched"]-category [prefix-cache-hit] /
      [prefix-cache-miss] counters.
    - {e Bound}: a process-wide {!Pibe_util.Memo} of 8 prefixes; a
      miss computes outside its lock, and a racing domain's entry is
      adopted over its own.
    - A run given [?check] neither reuses nor records a prefix: the hook
      sees every pass. *)

val table : ?title:string -> pass_stats list -> Pibe_util.Tbl.t
(** Per-pass stats rendered as an aligned table: function/block/
    instruction/byte deltas, and remaining indirect edges, returns and
    jump tables. *)

val detail_lines : pass_stats -> string list
(** Pass-specific statistics (promotions, inlines, folds) as short
    human-readable lines; empty for passes without details. *)
