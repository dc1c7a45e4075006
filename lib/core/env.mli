(** Memoized experiment environment.

    Every experiment (one per paper table/figure) draws from the same
    generated kernel, the same profiling runs, and a cache of built
    images and measured latency suites, so running all experiments in one
    process does each expensive step once.

    The caches are {!Pibe_util.Memo}s, so they are domain-safe: with
    [jobs > 1] independent (configuration, workload) cells may be built
    and measured on separate domains via [par_map]/[warm], and every
    caller of one key gets the same physical value.  Each cell gets its
    own engine and every step is deterministic, so results are identical
    to a sequential run. *)

type t

val create :
  ?scale:int ->
  ?seed:int ->
  ?settings:Measure.settings ->
  ?profile_iters:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?engine:Pibe_cpu.Engine.backend ->
  unit ->
  t
(** Defaults: scale 3, seed 42, [Measure.default_settings], 300 profiling
    iterations per micro-op, [jobs] 1 (fully sequential), [verify] false
    (release builds skip the IR validator between pipeline passes).

    [engine] selects the execution backend for every engine the
    environment's cells create; when given it re-points the process-wide
    [Engine.default_backend] (engines are created deep inside
    measure/pipeline/online, on worker domains too).  Omitted, the
    current default — normally [Compiled] — is inherited.  Both backends
    are bit-exact, so results do not depend on this knob. *)

val quick : ?jobs:int -> ?verify:bool -> ?engine:Pibe_cpu.Engine.backend -> unit -> t
(** Small and fast, for unit tests: scale 1, quick settings, 60 profiling
    iterations; [verify] defaults to {e true} so tests keep validating the
    IR between every pipeline pass. *)

val engine_backend : t -> Pibe_cpu.Engine.backend
(** The execution backend this environment was created with. *)

val pool : t -> Pibe_util.Pool.t
val jobs : t -> int

val verify : t -> bool
(** Whether pipeline runs driven by this environment validate the IR
    between passes (on in the test environments). *)

val par_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [Pool.map] on the environment's pool: parallel when [jobs > 1],
    exactly [List.map] when [jobs = 1]. *)

val warm : t -> Config.t list -> unit
(** Populate the build+latency caches for the given configurations,
    in parallel across distinct configurations when [jobs > 1].  The
    shared kernel and training profile are computed first (once), so
    subsequent [latencies]/[overheads] calls are pure cache hits. *)

val warm_builds : t -> Config.t list -> unit
(** Like [warm] but only populates the build cache (no latency
    measurement) — for experiments that measure something other than the
    LMBench suite. *)

val info : t -> Pibe_kernel.Gen.info
val ops : t -> Pibe_kernel.Workload.op list
val settings : t -> Measure.settings

val profile_iters : t -> int
(** Profiling iterations per micro-op this environment was created with —
    for experiments that run their own profiling drivers and want to
    match [lmbench_profile]'s sampling effort. *)

val lmbench_profile : t -> Pibe_profile.Profile.t
(** Phase-1 profile over the full LMBench suite (the paper's default
    training workload). *)

val apache_profile : t -> Pibe_profile.Profile.t
(** Training profile from the ApacheBench-style workload (§8.4). *)

val build : t -> Config.t -> Pipeline.built
(** Cached optimize+harden for a configuration (LMBench profile). *)

val build_with_profile :
  t -> profile:Pibe_profile.Profile.t -> Config.t -> Pipeline.built
(** Uncached variant for alternate training profiles. *)

val latencies : t -> Config.t -> (string * float) list
(** Cached LMBench latency suite on the configuration's image. *)

val overheads : t -> baseline:Config.t -> Config.t -> (string * float) list
(** Per-op overhead (%) of a configuration against a baseline
    configuration. *)

val geomean_overhead : t -> baseline:Config.t -> Config.t -> float
