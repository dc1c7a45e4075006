module H = Pibe_harden.Pass
module Icp = Pibe_opt.Icp
module Inliner = Pibe_opt.Inliner
module Llvm_inliner = Pibe_opt.Llvm_inliner
module Cleanup = Pibe_opt.Cleanup

(* ------------------------- option validation ------------------------- *)

let ( let* ) = Result.bind

let check_keys ~pass ~allowed (args : Spec.arg list) =
  let rec go = function
    | [] -> Ok ()
    | (a : Spec.arg) :: rest ->
      if List.mem a.key allowed then go rest
      else if allowed = [] then
        Error (Printf.sprintf "pass %s takes no options, got %S" pass a.key)
      else
        Error
          (Printf.sprintf "pass %s: unknown option %S (accepted: %s)" pass a.key
             (String.concat ", " allowed))
  in
  go args

let lookup args key = List.find_opt (fun (a : Spec.arg) -> String.equal a.key key) args

(* An option's value: absent, or parsed by [parse] and then checked
   against [valid], whose accepted range [range] describes.  Errors name
   the pass, the option and the value as written.  Callers pass closed
   functions and literal strings, so a valid spec allocates nothing for
   the checks. *)
let value_opt ~pass args key ~example ~parse ~expects ~valid ~range =
  match lookup args key with
  | None -> Ok None
  | Some { value = None; _ } ->
    Error (Printf.sprintf "pass %s: option %s needs a value (e.g. %s=%s)" pass key key example)
  | Some { value = Some v; _ } -> (
    match parse v with
    | None -> Error (Printf.sprintf "pass %s: option %s expects %s, got %S" pass key expects v)
    | Some x when not (valid x) ->
      Error (Printf.sprintf "pass %s: option %s must be %s, got %S" pass key range v)
    | Some x -> Ok (Some x))

(* Every float option is a percentage: finite and within [0, 100]. *)
let pct_opt ~pass args key =
  value_opt ~pass args key ~example:"99.9" ~parse:float_of_string_opt ~expects:"a number"
    ~valid:(fun f -> Float.is_finite f && 0.0 <= f && f <= 100.0)
    ~range:"a percentage in [0, 100]"

let pct_arg ~pass args key ~default =
  let* v = pct_opt ~pass args key in
  Ok (Option.value ~default v)

let int_opt ~pass args key ~valid ~range =
  value_opt ~pass args key ~example:"3000" ~parse:int_of_string_opt ~expects:"an integer"
    ~valid ~range

(* Every integer option but max-targets is a threshold: at least 0. *)
let threshold_arg ~pass args key ~default =
  let* v = int_opt ~pass args key ~valid:(fun i -> i >= 0) ~range:"at least 0" in
  Ok (Option.value ~default v)

(* --------------------------- constructors --------------------------- *)

let make ?(request = false) (e : Spec.elem) run = { Pass.name = e.pass; spec = e; request; run }

let icp (e : Spec.elem) =
  let pass = e.pass in
  let* () = check_keys ~pass ~allowed:[ "budget"; "max-targets" ] e.args in
  let* budget_pct = pct_arg ~pass e.args "budget" ~default:Icp.default_config.Icp.budget_pct in
  let* max_targets =
    int_opt ~pass e.args "max-targets" ~valid:(fun k -> k >= 1) ~range:"at least 1"
  in
  let config = { Icp.budget_pct; max_targets } in
  Ok
    (make e (fun (st : Pass.state) ->
         let prog, stats = Icp.run ~provenance:st.provenance st.prog st.profile config in
         ({ st with prog }, Pass.Icp stats)))

let inline (e : Spec.elem) =
  let pass = e.pass in
  let* () = check_keys ~pass ~allowed:[ "budget"; "lax"; "rule2"; "rule3" ] e.args in
  let d = Inliner.default_config in
  let* budget_pct = pct_arg ~pass e.args "budget" ~default:d.Inliner.budget_pct in
  let* rule2_threshold = threshold_arg ~pass e.args "rule2" ~default:d.Inliner.rule2_threshold in
  let* rule3_threshold = threshold_arg ~pass e.args "rule3" ~default:d.Inliner.rule3_threshold in
  let* lax_within_pct =
    match lookup e.args "lax" with
    | None -> Ok None
    | Some { value = None; _ } -> Ok (Some 99.0)
    | Some { value = Some _; _ } -> pct_opt ~pass e.args "lax"
  in
  let config = { Inliner.budget_pct; rule2_threshold; rule3_threshold; lax_within_pct } in
  Ok
    (make e (fun (st : Pass.state) ->
         let prog, stats = Inliner.run ~provenance:st.provenance st.prog st.profile config in
         ({ st with prog }, Pass.Inline stats)))

let llvm_inline (e : Spec.elem) =
  let pass = e.pass in
  let* () = check_keys ~pass ~allowed:[ "budget"; "hot"; "cold"; "cap" ] e.args in
  let d = Llvm_inliner.default_config in
  let* budget_pct = pct_arg ~pass e.args "budget" ~default:d.Llvm_inliner.budget_pct in
  let* hot_callee_threshold =
    threshold_arg ~pass e.args "hot" ~default:d.Llvm_inliner.hot_callee_threshold
  in
  let* cold_callee_threshold =
    threshold_arg ~pass e.args "cold" ~default:d.Llvm_inliner.cold_callee_threshold
  in
  let* caller_cap = threshold_arg ~pass e.args "cap" ~default:d.Llvm_inliner.caller_cap in
  let config =
    { Llvm_inliner.budget_pct; hot_callee_threshold; cold_callee_threshold; caller_cap }
  in
  Ok
    (make e (fun (st : Pass.state) ->
         let prog, stats = Llvm_inliner.run ~provenance:st.provenance st.prog st.profile config in
         ({ st with prog }, Pass.Llvm_inline stats)))

let cleanup (e : Spec.elem) =
  let* () = check_keys ~pass:e.pass ~allowed:[] e.args in
  Ok
    (make e (fun (st : Pass.state) ->
         let prog, stats = Cleanup.run_with_stats st.prog in
         ({ st with prog }, Pass.Cleanup stats)))

let defense (e : Spec.elem) set =
  let* () = check_keys ~pass:e.pass ~allowed:[] e.args in
  Ok
    (make ~request:true e (fun (st : Pass.state) ->
         ({ st with defenses = set st.defenses }, Pass.Defense)))

let no_jump_tables (e : Spec.elem) =
  let* () = check_keys ~pass:e.pass ~allowed:[] e.args in
  Ok
    (make e (fun (st : Pass.state) ->
         ({ st with prog = H.disable_jump_tables st.prog }, Pass.Nothing)))

let rsb_refill (e : Spec.elem) =
  let* () = check_keys ~pass:e.pass ~allowed:[] e.args in
  Ok (make ~request:true e (fun (st : Pass.state) -> ({ st with rsb_refill = true }, Pass.Defense)))

(* ----------------------------- registry ----------------------------- *)

let builders : (string * (Spec.elem -> (Pass.t, string) result)) list =
  [
    ("cleanup", cleanup);
    ("coarse-cfi", fun e -> defense e (fun d -> { d with H.coarse_cfi = true }));
    ("fenced-retpoline", fun e -> defense e (fun d -> { d with H.retpolines = true; lvi = true }));
    ("fineibt", fun e -> defense e (fun d -> { d with H.fineibt = true }));
    ("icp", icp);
    ("inline", inline);
    ("llvm-inline", llvm_inline);
    ("lvi-cfi", fun e -> defense e (fun d -> { d with H.lvi = true }));
    ("no-jump-tables", no_jump_tables);
    ("pac-ret", fun e -> defense e (fun d -> { d with H.pac = true }));
    ("ret-retpoline", fun e -> defense e (fun d -> { d with H.ret_retpolines = true }));
    ("retpoline", fun e -> defense e (fun d -> { d with H.retpolines = true }));
    ("rsb-refill", rsb_refill);
  ]

let names = List.map fst builders

(* --------------------------- documentation --------------------------- *)

type opt_info = {
  opt_key : string;
  opt_type : string;
  opt_default : string;
  opt_sample : string option;
  opt_doc : string;
}

type pass_info = {
  info_name : string;
  info_doc : string;
  info_opts : opt_info list;
}

let budget_opt default =
  {
    opt_key = "budget";
    opt_type = "float";
    opt_default = Printf.sprintf "%g" default;
    opt_sample = Some "99.9";
    opt_doc = "percent of cumulative profile weight to optimize, in [0, 100]";
  }

let infos =
  [
    {
      info_name = "cleanup";
      info_doc = "post-inlining scalar cleanup (constant folding, dead code)";
      info_opts = [];
    };
    {
      info_name = "coarse-cfi";
      info_doc = "request coarse single-label CFI checks on indirect calls";
      info_opts = [];
    };
    {
      info_name = "fenced-retpoline";
      info_doc = "request retpolines + LVI (lowered to the combined fenced sequence)";
      info_opts = [];
    };
    {
      info_name = "fineibt";
      info_doc = "request FineIBT-style landing pads on indirect-call targets";
      info_opts = [];
    };
    {
      info_name = "icp";
      info_doc = "PIBE indirect-call promotion (profile-ordered, Rules 1-3)";
      info_opts =
        [
          budget_opt Icp.default_config.Icp.budget_pct;
          {
            opt_key = "max-targets";
            opt_type = "int";
            opt_default = "unbounded";
            opt_sample = Some "4";
            opt_doc = "cap on promoted targets per site, at least 1";
          };
        ];
    };
    {
      info_name = "inline";
      info_doc = "PIBE's weight-ordered interprocedural inliner";
      info_opts =
        [
          budget_opt Inliner.default_config.Inliner.budget_pct;
          {
            opt_key = "lax";
            opt_type = "flag or float";
            opt_default = "off (bare flag = 99)";
            opt_sample = None;
            opt_doc = "lax candidate window, percent of the hottest weight, in [0, 100]";
          };
          {
            opt_key = "rule2";
            opt_type = "int";
            opt_default = string_of_int Inliner.default_config.Inliner.rule2_threshold;
            opt_sample = Some "6";
            opt_doc = "Rule-2 caller InlineCost threshold, at least 0";
          };
          {
            opt_key = "rule3";
            opt_type = "int";
            opt_default = string_of_int Inliner.default_config.Inliner.rule3_threshold;
            opt_sample = Some "6";
            opt_doc = "Rule-3 callee InlineCost threshold, at least 0";
          };
        ];
    };
    {
      info_name = "llvm-inline";
      info_doc = "the LLVM-default bottom-up PGO inliner baseline";
      info_opts =
        [
          budget_opt Llvm_inliner.default_config.Llvm_inliner.budget_pct;
          {
            opt_key = "hot";
            opt_type = "int";
            opt_default =
              string_of_int Llvm_inliner.default_config.Llvm_inliner.hot_callee_threshold;
            opt_sample = Some "64";
            opt_doc = "callee size threshold at profiled-hot sites, at least 0";
          };
          {
            opt_key = "cold";
            opt_type = "int";
            opt_default =
              string_of_int Llvm_inliner.default_config.Llvm_inliner.cold_callee_threshold;
            opt_sample = Some "2";
            opt_doc = "callee size threshold elsewhere, at least 0";
          };
          {
            opt_key = "cap";
            opt_type = "int";
            opt_default = string_of_int Llvm_inliner.default_config.Llvm_inliner.caller_cap;
            opt_sample = Some "12";
            opt_doc = "caller-growth InlineCost cap, at least 0";
          };
        ];
    };
    {
      info_name = "lvi-cfi";
      info_doc = "request LVI-CFI hardening of indirect transfers";
      info_opts = [];
    };
    {
      info_name = "no-jump-tables";
      info_doc = "re-lower jump tables as branch ladders now (idempotent)";
      info_opts = [];
    };
    {
      info_name = "pac-ret";
      info_doc = "request PAC-style return-address signing on every return";
      info_opts = [];
    };
    {
      info_name = "ret-retpoline";
      info_doc = "request return retpolines on every function return";
      info_opts = [];
    };
    {
      info_name = "retpoline";
      info_doc = "request Spectre-V2 retpolines on indirect branches";
      info_opts = [];
    };
    {
      info_name = "rsb-refill";
      info_doc = "stuff the RSB at every kernel entry";
      info_opts = [];
    };
  ]

(* A spec element exercising every documented option of [i] — the
   round-trip the tests pin: the rendered form must parse and resolve. *)
let sample_spec_text (i : pass_info) =
  match i.info_opts with
  | [] -> i.info_name
  | opts ->
    let args =
      List.map
        (fun o ->
          match o.opt_sample with
          | None -> o.opt_key
          | Some v -> Printf.sprintf "%s=%s" o.opt_key v)
        opts
    in
    Printf.sprintf "%s(%s)" i.info_name (String.concat "," args)

let find (e : Spec.elem) =
  match List.assoc_opt e.pass builders with
  | Some build -> build e
  | None ->
    Error
      (Printf.sprintf "unknown pass %S (registered passes: %s)" e.pass
         (String.concat ", " names))

let of_spec spec =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* p = find e in
      go (p :: acc) rest
  in
  go [] spec
