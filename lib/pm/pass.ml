open Pibe_ir

type state = {
  prog : Program.t;
  profile : Pibe_profile.Profile.t;
  defenses : Pibe_harden.Pass.defenses;
  rsb_refill : bool;
  provenance : Pibe_profile.Provenance.t;
}

type detail =
  | Icp of Pibe_opt.Icp.stats
  | Inline of Pibe_opt.Inliner.stats
  | Llvm_inline of Pibe_opt.Llvm_inliner.stats
  | Cleanup of Pibe_opt.Cleanup.stats
  | Defense
  | Nothing

type t = {
  name : string;
  spec : Spec.elem;
  request : bool;
  run : state -> state * detail;
}
