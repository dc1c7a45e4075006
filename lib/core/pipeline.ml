module Profile = Pibe_profile.Profile
module Spec = Pibe_pm.Spec
module Registry = Pibe_pm.Registry
module Manager = Pibe_pm.Manager
module Pm_pass = Pibe_pm.Pass

type built = {
  image : Pibe_harden.Pass.image;
  config : Config.t;
  icp_stats : Pibe_opt.Icp.stats option;
  inline_stats : Pibe_opt.Inliner.stats option;
  llvm_inline_stats : Pibe_opt.Llvm_inliner.stats option;
  post_icp_profile : Profile.t;
  provenance : Pibe_profile.Provenance.t;
  pass_stats : Manager.pass_stats list;
}

module Trace = Pibe_trace.Trace

let profile prog ~run =
  Trace.span ~cat:"core" "pipeline:profile" (fun () ->
      let collector = Pibe_profile.Collector.create prog in
      let engine = Pibe_profile.Collector.engine collector in
      run engine;
      Pibe_cpu.Engine.trace_counters ~cat:"core" ~name:"engine:profile-run" engine;
      Pibe_profile.Collector.lift collector)

(* ----------------------- Config -> pipeline spec ----------------------- *)

let budget b = ("budget", Some (Spec.float_arg b))

(* Scalar cleanup runs in every configuration: it is part of the plain
   LTO pipeline the paper's baseline uses, and it is what converts the
   inliner's opportunities (propagated constants, dead argument moves)
   into actual savings. *)
let opt_spec = function
  | Config.No_opt -> [ Spec.elem "cleanup" ]
  | Config.Icp_only { budget = b } ->
    [ Spec.elem ~args:[ budget b ] "icp"; Spec.elem "cleanup" ]
  | Config.Full { icp_budget; inline_budget; lax } ->
    [
      Spec.elem ~args:[ budget icp_budget ] "icp";
      Spec.elem
        ~args:(budget inline_budget :: (if lax then [ ("lax", None) ] else []))
        "inline";
      Spec.elem "cleanup";
    ]
  | Config.Llvm_pgo { icp_budget; inline_budget } ->
    [
      Spec.elem ~args:[ budget icp_budget ] "icp";
      Spec.elem ~args:[ budget inline_budget ] "llvm-inline";
      Spec.elem "cleanup";
    ]

let defense_spec (d : Pibe_harden.Pass.defenses) =
  (if d.Pibe_harden.Pass.retpolines then [ Spec.elem "retpoline" ] else [])
  @ (if d.Pibe_harden.Pass.ret_retpolines then [ Spec.elem "ret-retpoline" ] else [])
  @ (if d.Pibe_harden.Pass.lvi then [ Spec.elem "lvi-cfi" ] else [])
  @ (if d.Pibe_harden.Pass.fineibt then [ Spec.elem "fineibt" ] else [])
  @ (if d.Pibe_harden.Pass.pac then [ Spec.elem "pac-ret" ] else [])
  @ if d.Pibe_harden.Pass.coarse_cfi then [ Spec.elem "coarse-cfi" ] else []

let spec_of_config (c : Config.t) = opt_spec c.Config.opt @ defense_spec c.Config.defenses

(* ------------------------------ driver ------------------------------ *)

let run_spec ?verify ?check prog profile spec =
  match Registry.of_spec spec with
  | Error _ as e -> e
  | Ok passes -> Ok (Manager.run ?verify ?check prog profile passes)

let build ?(verify = false) prog profile config =
  let spec = spec_of_config config in
  let args =
    if Trace.enabled () then [ ("spec", Trace.Str (Spec.to_string spec)) ] else []
  in
  Trace.span ~cat:"core" "pipeline:build" ~args (fun () ->
  let r =
    match run_spec ~verify prog profile spec with
    | Ok r -> r
    | Error e ->
      (* Every [Config] variant lowers to registered passes; reaching this
         means the lowering and the registry have diverged. *)
      invalid_arg (Printf.sprintf "Pipeline.build: bad lowered spec %S: %s" (Spec.to_string spec) e)
  in
  let detail f = List.find_map (fun (s : Manager.pass_stats) -> f s.Manager.detail) r.Manager.passes in
  {
    image = r.Manager.image;
    config;
    icp_stats = detail (function Pm_pass.Icp s -> Some s | _ -> None);
    inline_stats = detail (function Pm_pass.Inline s -> Some s | _ -> None);
    llvm_inline_stats = detail (function Pm_pass.Llvm_inline s -> Some s | _ -> None);
    post_icp_profile = r.Manager.profile;
    provenance = r.Manager.provenance;
    pass_stats = r.Manager.passes;
  })

let profile_built built ~run =
  Trace.span ~cat:"core" "pipeline:profile-built" (fun () ->
      let prog = built.image.Pibe_harden.Pass.prog in
      let collector = Pibe_profile.Collector.create ~provenance:built.provenance prog in
      let engine =
        Pibe_profile.Collector.engine
          ~config:(Pibe_harden.Pass.engine_config built.image)
          collector
      in
      run engine;
      Pibe_cpu.Engine.trace_counters ~cat:"core" ~name:"engine:profile-built-run" engine;
      let p = Pibe_profile.Collector.lift collector in
      (p, Pibe_profile.Collector.stats collector))

let engine ?base built =
  let config = Pibe_harden.Pass.engine_config ?base built.image in
  Pibe_cpu.Engine.create ~config built.image.Pibe_harden.Pass.prog
