(** The continuous-profiling deployment simulator — the closed loop that
    turns PIBE's one-shot pipeline into sample / detect drift /
    re-optimize / live-patch.

    Time is divided into fixed-size windows.  By default each window
    replays the same seeded request stream on two machines: the
    {e deployed} hardened image (cycle accounting — what production pays)
    and a profiling build of the pristine kernel (edge collection lifted
    to origin ids — what the profiler sees).  With
    [config.profile_on_deployed] the second machine disappears: the
    collector hooks the deployed engine itself and the lift resolves the
    optimized image's clones, promotions, and inlined-away edges through
    its recorded provenance back to pristine origins — the AutoFDO
    production regime.  Either way the window profile feeds the {!Store}
    ring; the
    decayed merge is compared against the deployed image's training
    profile by {!Drift}; when the detector fires (and the re-opt budget
    allows), the {!Controller} rebuilds on the merged profile and the
    patch/downtime cycles are charged to that window.

    Everything is a pure function of [config.seed]: the per-window RNG
    streams are derived by splitting one master generator, so every
    variant (static or adaptive, any spec) faces byte-identical
    traffic. *)

type config = {
  requests_per_window : int;  (** phase requests replayed per window *)
  store_window : int;  (** snapshots retained by the profile store *)
  decay : float;  (** per-window exponential decay of old snapshots *)
  drift_threshold : float;  (** {!Drift.distance} above this is suspect *)
  hysteresis : int;  (** consecutive suspect windows before a rebuild *)
  top_k : int;  (** hot-site ranking depth of the distance metric *)
  max_reopts : int;  (** re-optimization budget for the whole run *)
  seed : int;
  profile_on_deployed : bool;
      (** collect windows on the deployed optimized image (single replay,
          provenance-based lift) instead of a pristine-kernel shadow *)
}

val default_config : config
(** 150 requests/window, window 3, decay 0.5, threshold 0.25,
    hysteresis 2, top-16, at most 3 rebuilds, seed 23, pristine-shadow
    profiling. *)

type window_record = {
  index : int;
  phase : string;
  cycles : int;  (** deployed-engine cycles for the window's requests *)
  patch_cycles : int;  (** downtime charged in this window (0 unless fired) *)
  distance : float;  (** drift of this window's profile vs the reference *)
  fired : bool;  (** a rebuild+swap happened at the end of this window *)
}

type outcome = {
  windows : window_record list;  (** in execution order *)
  rebuilds : int;
  total_cycles : int;  (** workload + patch cycles over the whole run *)
  total_patch_cycles : int;
  aborted : string option;
      (** [None] for a clean run.  If a window raised mid-flight the run
          stops, every {e completed} window's record is retained (the
          accounting is pushed inside the traced closure, right after the
          effects it describes), and the exception text lands here
          instead of losing the whole deployment's history. *)
}

val replay :
  requests:int ->
  image:Pibe_harden.Pass.image ->
  phase:Pibe_kernel.Workload.phase ->
  Pibe_util.Rng.t ->
  Pibe_cpu.Engine.t
(** The deployed half of a window: [requests] of [phase]'s requests,
    drawn from the generator, on a fresh engine over the hardened image
    (its protections and costs).  Returns the engine for its cycles and
    counters. *)

val profile_window :
  requests:int ->
  prog:Pibe_ir.Program.t ->
  phase:Pibe_kernel.Workload.phase ->
  Pibe_util.Rng.t ->
  Pibe_profile.Profile.t
(** The profiling half of a pristine-shadow window: the same replay on a
    collector-hooked engine over the pristine kernel, lifted to an
    origin-id window profile.  {!run} and {!Fleet} give it a copy of the
    deployed half's generator, so both halves see one request stream. *)

val run :
  ?config:config ->
  ?verify:bool ->
  adaptive:bool ->
  prog:Pibe_ir.Program.t ->
  spec:Pibe_pm.Spec.t ->
  training:Pibe_profile.Profile.t ->
  phases:(Pibe_kernel.Workload.phase * int) list ->
  unit ->
  (outcome, string) result
(** Simulate the deployment: each phase runs for its window count, in
    order.  With [adaptive:false] the loop still profiles and reports
    drift but never rebuilds (the static baselines).  [Error] reports an
    unresolvable spec. *)

val training_profile :
  ?config:config ->
  prog:Pibe_ir.Program.t ->
  phases:(Pibe_kernel.Workload.phase * int) list ->
  unit ->
  Pibe_profile.Profile.t
(** The offline oracle: profile the {e whole} phased stream (same seed
    derivation as [run], pristine kernel) in one run — what a perfectly
    fresh static profile would look like. *)
