(** The uniform pass interface every pipeline stage registers into.

    A pass transforms the pipeline {!state} — the working program, the
    (mutable, pipeline-owned) profile, and the accumulated hardening
    request — and reports a typed {!detail} with its pass-specific
    statistics.  The manager (see {!Manager}) wraps every [run] with a
    trace span, IR delta accounting and optional verification, so passes
    themselves stay plain program transformations.

    A pass is a pure function of its spec element and its input state:
    two instances with the same canonical spec text, run on equal states,
    produce equal states and details.  The manager relies on this to
    reuse a build's optimization prefix across builds (see
    {!Manager.run}). *)

open Pibe_ir

type state = {
  prog : Program.t;
  profile : Pibe_profile.Profile.t;
      (** owned by the pipeline run (a {!Pibe_profile.Profile.copy} of the
          caller's profile); passes may mutate it, as ICP does when moving
          promoted weight onto the new direct sites *)
  defenses : Pibe_harden.Pass.defenses;
      (** hardening requests accumulated by the defense passes and
          materialized into an image after the last pass *)
  rsb_refill : bool;
  provenance : Pibe_profile.Provenance.t;
      (** inline/promotion tree the optimization passes append to; shipped
          with the built image so optimized-image profiles can be lifted
          back to pristine origins *)
}

type detail =
  | Icp of Pibe_opt.Icp.stats
  | Inline of Pibe_opt.Inliner.stats
  | Llvm_inline of Pibe_opt.Llvm_inliner.stats
  | Cleanup of Pibe_opt.Cleanup.stats
  | Defense  (** a hardening-request pass; no IR change *)
  | Nothing

type t = {
  name : string;  (** registered pass name, e.g. ["icp"] *)
  spec : Spec.elem;
      (** the canonical spec element this instance prints back to
          (round-trips through {!Spec.of_string}) *)
  request : bool;
      (** a hardening request: the pass only sets [defenses] or
          [rsb_refill] and leaves the program, profile and provenance
          alone.  The registry tags every defense pass and [rsb-refill];
          the leading run of untagged passes is the prefix the manager
          may reuse *)
  run : state -> state * detail;
}
