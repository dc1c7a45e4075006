module Profile = Pibe_profile.Profile
module Program = Pibe_ir.Program
module Spec = Pibe_pm.Spec
module Registry = Pibe_pm.Registry
module Manager = Pibe_pm.Manager
module Jumpswitch = Pibe_jumpswitch.Jumpswitch
module Trace = Pibe_trace.Trace

type t = {
  base_prog : Program.t;  (* pristine kernel; every rebuild starts here *)
  spec : Spec.t;
  verify : bool;
  patch_config : Jumpswitch.config;
  mutable image : Pibe_harden.Pass.image;
  mutable provenance : Pibe_profile.Provenance.t;
  mutable reference : Profile.t;
  mutable rebuilds : int;
  mutable total_patch_cycles : int;
}

let build ~verify base_prog spec profile =
  match Registry.of_spec spec with
  | Error e -> Error e
  | Ok passes ->
    let r = Manager.run ~verify base_prog profile passes in
    Ok (r.Manager.image, r.Manager.provenance)

let create ?(patch_config = Jumpswitch.default_config) ?(verify = false) ~prog ~spec
    ~profile () =
  match build ~verify prog spec profile with
  | Error e -> Error e
  | Ok (image, provenance) ->
    Ok
      {
        base_prog = prog;
        spec;
        verify;
        patch_config;
        image;
        provenance;
        reference = Profile.copy profile;
        rebuilds = 0;
        total_patch_cycles = 0;
      }

let image t = t.image
let provenance t = t.provenance
let reference t = t.reference
let rebuilds t = t.rebuilds
let total_patch_cycles t = t.total_patch_cycles
let spec t = t.spec

(* Functions whose body changed between the deployed image and the fresh
   one (plus additions and removals): each is one live-patch site the
   runtime must stop-machine over.  The IR is pure data, so structural
   equality is exact; rebuilds share untouched function records, and [=]
   does not stop at physically equal values, so [==] is tested first. *)
let changed_funcs old_prog new_prog =
  let changed =
    Program.fold_funcs new_prog ~init:0 ~f:(fun acc (f : Pibe_ir.Types.func) ->
        match Program.find_opt old_prog f.Pibe_ir.Types.fname with
        | Some g when g == f || g = f -> acc
        | Some _ | None -> acc + 1)
  in
  Program.fold_funcs old_prog ~init:changed ~f:(fun acc (f : Pibe_ir.Types.func) ->
      if Program.mem new_prog f.Pibe_ir.Types.fname then acc else acc + 1)

type candidate = {
  cand_image : Pibe_harden.Pass.image;
  cand_provenance : Pibe_profile.Provenance.t;
  cand_profile : Profile.t;
}

let prepare t new_profile =
  Trace.span ~cat:"online" "online:rebuild" (fun () ->
      match build ~verify:t.verify t.base_prog t.spec new_profile with
      | Error e ->
        (* the spec was validated at [create]; the registry cannot reject it now *)
        invalid_arg (Printf.sprintf "Controller.prepare: %s" e)
      | Ok (image, provenance) ->
        { cand_image = image; cand_provenance = provenance; cand_profile = Profile.copy new_profile })

let patch_sites ~from_image ~to_image =
  changed_funcs from_image.Pibe_harden.Pass.prog to_image.Pibe_harden.Pass.prog

let patch_cycles t ~sites = Jumpswitch.patch_cost ~config:t.patch_config ~sites ()

let commit t cand =
  let sites = patch_sites ~from_image:t.image ~to_image:cand.cand_image in
  let cycles = patch_cycles t ~sites in
  t.image <- cand.cand_image;
  t.provenance <- cand.cand_provenance;
  t.reference <- cand.cand_profile;
  t.rebuilds <- t.rebuilds + 1;
  t.total_patch_cycles <- t.total_patch_cycles + cycles;
  if Trace.enabled () then
    Trace.counter ~cat:"online" "patch"
      [
        ("sites", Trace.Int sites);
        ("downtime_cycles", Trace.Int cycles);
        ("rebuilds", Trace.Int t.rebuilds);
      ];
  cycles

let reoptimize t new_profile = commit t (prepare t new_profile)
