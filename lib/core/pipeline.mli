(** The two-phase PIBE pipeline (paper §4), as a thin driver over the
    pass manager.

    Phase 1 runs a profiling image of the program under a representative
    workload, collecting edge counts at the binary level and lifting them
    back to IR identities.  Phase 2 lowers the configuration to a textual
    pipeline spec (see {!Pibe_pm.Spec}), resolves it against the pass
    registry, and runs it under the manager: the profile is copied, each
    pass is IR-delta-instrumented, and the remaining indirect branches
    are hardened into an image.  [verify] (off by default in
    release runs, on in the test environments) re-validates the IR between
    every pass. *)

open Pibe_ir

type built = {
  image : Pibe_harden.Pass.image;
  config : Config.t;
  icp_stats : Pibe_opt.Icp.stats option;
  inline_stats : Pibe_opt.Inliner.stats option;
  llvm_inline_stats : Pibe_opt.Llvm_inliner.stats option;
  post_icp_profile : Pibe_profile.Profile.t;
      (** the profile as mutated by ICP (promoted sites are direct now) *)
  provenance : Pibe_profile.Provenance.t;
      (** inline/promotion tree recorded while optimizing; feed it to
          {!profile_built} to lift optimized-image profiles back to
          pristine origins *)
  pass_stats : Pibe_pm.Manager.pass_stats list;
      (** per-pass IR deltas and pass details, in execution order *)
}

val profile :
  Program.t -> run:(Pibe_cpu.Engine.t -> unit) -> Pibe_profile.Profile.t
(** Phase 1: build the profiling engine (edge hook -> LBR -> collector),
    run the workload, lift. *)

val spec_of_config : Config.t -> Pibe_pm.Spec.t
(** Lowers a configuration to its pipeline spec, e.g. [pibe_baseline] to
    [icp(budget=99.999),inline(budget=99.9999,lax),cleanup].  The spec
    round-trips through {!Pibe_pm.Spec.to_string}/[of_string] and running
    it reproduces [build]'s image byte for byte. *)

val run_spec :
  ?verify:bool ->
  ?check:(Program.t -> unit) ->
  Program.t ->
  Pibe_profile.Profile.t ->
  Pibe_pm.Spec.t ->
  (Pibe_pm.Manager.result, string) result
(** Phase 2 on an arbitrary spec: resolve against the registry and run.
    [Error] reports unknown passes or bad options. *)

val build : ?verify:bool -> Program.t -> Pibe_profile.Profile.t -> Config.t -> built
(** Phase 2 on a configuration: optimize then harden; the input profile is
    copied, never mutated. *)

val profile_built :
  built ->
  run:(Pibe_cpu.Engine.t -> unit) ->
  Pibe_profile.Profile.t * Pibe_profile.Collector.lift_stats
(** Phase 1 on the {e hardened, optimized} image itself — the production
    regime where profiles are sampled from the deployed binary.  The
    engine runs with the image's own hardening config (defense costs
    included) plus the collector edge hook; the lift resolves clones
    through their origins, folds promoted direct counts back into
    pristine value profiles, and reconstructs inlined-away edges from the
    recorded provenance.  Returns the lifted profile and the lift stats
    (dropped pairs, recovered weight). *)

val engine : ?base:Pibe_cpu.Engine.config -> built -> Pibe_cpu.Engine.t
(** A fresh machine running this image. *)
