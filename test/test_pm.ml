(* Pass manager: spec grammar round-trips, registry diagnostics, and the
   load-bearing guarantee of the refactor — every [Config] variant built
   through the manager produces the byte-identical image the hand-rolled
   seed pipeline produced. *)

module Spec = Pibe_pm.Spec
module Registry = Pibe_pm.Registry
module Manager = Pibe_pm.Manager
module Profile = Pibe_profile.Profile
module Pass = Pibe_harden.Pass

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let spec_gen =
  let open QCheck.Gen in
  let ident =
    let chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+%-" in
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 8) (map (String.get chars) (int_range 0 (String.length chars - 1))))
  in
  let arg = pair ident (opt ident) in
  let elem = map (fun (name, args) -> Spec.elem ~args name) (pair ident (list_size (int_range 0 3) arg)) in
  list_size (int_range 1 5) elem

let spec_arb = QCheck.make ~print:Spec.to_string spec_gen

let prop_spec_round_trip =
  QCheck.Test.make ~name:"spec print/parse round-trips" ~count:500 spec_arb (fun spec ->
      match Spec.of_string (Spec.to_string spec) with
      | Ok parsed -> Spec.equal spec parsed
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let prop_float_arg_round_trip =
  QCheck.Test.make ~name:"float_arg round-trips through float_of_string" ~count:500
    QCheck.(float_range 0.0 100.0)
    (fun f -> Float.equal (float_of_string (Spec.float_arg f)) f)

let test_spec_whitespace_and_canonical () =
  match Spec.of_string " icp ( budget = 99.9 , lax ) ,\tcleanup " with
  | Ok spec ->
    Alcotest.(check string) "canonical form" "icp(budget=99.9,lax),cleanup"
      (Spec.to_string spec)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_spec_rejects_malformed () =
  let bad =
    [
      "";
      ",icp";
      "icp,";
      "icp,,cleanup";
      "icp(";
      "icp()";
      "icp(budget=)";
      "icp(budget=1))";
      "icp(budget=1)x";
      "icp cleanup";
      "icp(=1)";
    ]
  in
  List.iter
    (fun text ->
      match Spec.of_string text with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions an offset" text)
          true
          (String.length e > 0)
      | Ok spec ->
        Alcotest.failf "%S parsed as %s" text (Spec.to_string spec))
    bad

(* ------------------------------------------------------------------ *)
(* Registry diagnostics                                                *)
(* ------------------------------------------------------------------ *)

let resolve text =
  match Spec.of_string text with
  | Error e -> Error e
  | Ok spec -> Result.map (fun _ -> ()) (Registry.of_spec spec)

let test_registry_rejections () =
  (match resolve "nonsense" with
  | Error e ->
    Alcotest.(check bool) "unknown pass lists the registry" true
      (List.for_all (contains e) Registry.names)
  | Ok () -> Alcotest.fail "unknown pass accepted");
  (match resolve "icp(budget=hot)" with
  | Error e -> Alcotest.(check bool) "bad number named" true (contains e "budget")
  | Ok () -> Alcotest.fail "bad number accepted");
  (match resolve "cleanup(budget=1)" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cleanup should take no options");
  (* Out-of-range values: the error names the pass, the option and the
     value as written. *)
  List.iter
    (fun (pass, key, value) ->
      let text = Printf.sprintf "%s(%s=%s)" pass key value in
      match resolve text with
      | Error e ->
        List.iter
          (fun part ->
            Alcotest.(check bool) (Printf.sprintf "%s: error names %s" text part) true
              (contains e part))
          [ "pass " ^ pass; key; value ]
      | Ok () -> Alcotest.failf "%s accepted" text)
    [
      ("icp", "max-targets", "0");
      ("icp", "max-targets", "-1");
      ("icp", "budget", "nan");
      ("icp", "budget", "inf");
      ("icp", "budget", "1e999");
      ("icp", "budget", "-5");
      ("icp", "budget", "250");
      ("inline", "budget", "-inf");
      ("inline", "budget", "100.5");
      ("inline", "lax", "nan");
      ("inline", "lax", "-0.5");
      ("inline", "rule2", "-1");
      ("inline", "rule3", "-1");
      ("llvm-inline", "budget", "inf");
      ("llvm-inline", "hot", "-1");
      ("llvm-inline", "cold", "-1");
      ("llvm-inline", "cap", "-1");
    ];
  (* ... and the ends of each range are accepted *)
  List.iter
    (fun text ->
      match resolve text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" text e)
    [
      "icp(budget=0,max-targets=1)";
      "icp(budget=100)";
      "inline(budget=0,lax=0,rule2=0,rule3=0)";
      "inline(lax=100)";
      "llvm-inline(budget=100,hot=0,cold=0,cap=0)";
    ]

(* Every documented option of every pass, set to each edge value: the
   registry rejects what a pass cannot run, and every spec it accepts
   runs on the quick kernel, validated between passes, without raising. *)
let test_registry_option_edges () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let values =
    [ "0"; "-1"; "nan"; "inf"; "-inf"; "1e999"; "100"; "250"; string_of_int max_int;
      string_of_int min_int ]
  in
  let accepted = ref 0 in
  List.iter
    (fun (i : Registry.pass_info) ->
      List.iter
        (fun (o : Registry.opt_info) ->
          List.iter
            (fun v ->
              let elem = Spec.elem ~args:[ (o.Registry.opt_key, Some v) ] i.Registry.info_name in
              let spec = [ elem ] in
              match Registry.of_spec spec with
              | Error _ -> ()
              | Ok passes -> (
                incr accepted;
                match Manager.run ~verify:true prog profile passes with
                | _ -> ()
                | exception e ->
                  Alcotest.failf "%s raised %s" (Spec.to_string spec) (Printexc.to_string e)))
            values)
        i.Registry.info_opts)
    Registry.infos;
  (* budget and lax: 0 and 100; max-targets: 100, 250 and max_int; the
     integer thresholds: 0, 100, 250 and max_int *)
  Alcotest.(check int) "specs accepted" 31 !accepted

let test_registry_accepts_all_names () =
  List.iter
    (fun name ->
      match Registry.find (Spec.elem name) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s does not resolve bare: %s" name e)
    Registry.names

(* The registry's self-documentation must round-trip through the spec
   grammar: every documented pass/option combination parses, resolves,
   and re-renders canonically — so `pibe passes` can never drift from
   what the registry actually accepts. *)
let test_registry_infos_round_trip () =
  Alcotest.(check (list string))
    "one info per registered pass, same order" Registry.names
    (List.map (fun (i : Registry.pass_info) -> i.Registry.info_name) Registry.infos);
  List.iter
    (fun (i : Registry.pass_info) ->
      let text = Registry.sample_spec_text i in
      match Spec.of_string text with
      | Error e -> Alcotest.failf "%s: sample %S does not parse: %s" i.Registry.info_name text e
      | Ok spec -> (
        Alcotest.(check string)
          (i.Registry.info_name ^ " sample is canonical")
          text (Spec.to_string spec);
        match Registry.of_spec spec with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s: documented options rejected: %s" i.Registry.info_name e))
    Registry.infos

(* ------------------------------------------------------------------ *)
(* Config lowering                                                     *)
(* ------------------------------------------------------------------ *)

let variants =
  [
    ("lto", Pibe.Config.lto);
    ("icp-only retp", Pibe.Exp_common.icp_only ~budget:99.9 Pibe.Exp_common.retpolines_only);
    ( "full strict retret",
      Pibe.Exp_common.full_opt ~icp:99.999 ~inline:99.9 Pibe.Exp_common.ret_retpolines_only );
    ("full lax all", Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses);
    ("full lax fineibt+pac", Pibe.Exp_common.best_config Pibe.Exp_common.fineibt_pac);
    ("icp-only coarse-cfi", Pibe.Exp_common.icp_only ~budget:99.9 Pibe.Exp_common.coarse_cfi_only);
    ( "llvm-pgo lvi",
      {
        Pibe.Config.defenses = Pibe.Exp_common.lvi_only;
        opt = Pibe.Config.Llvm_pgo { icp_budget = 99.999; inline_budget = 99.9999 };
      } );
  ]

let test_spec_of_config_round_trips () =
  List.iter
    (fun (label, config) ->
      let spec = Pibe.Pipeline.spec_of_config config in
      match Spec.of_string (Spec.to_string spec) with
      | Ok parsed ->
        Alcotest.(check bool) (label ^ " round-trips") true (Spec.equal spec parsed);
        (match Registry.of_spec parsed with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s does not resolve: %s" label e)
      | Error e -> Alcotest.failf "%s re-parse failed: %s" label e)
    variants

(* ------------------------------------------------------------------ *)
(* Byte-identical equivalence with the seed pipeline                   *)
(* ------------------------------------------------------------------ *)

(* The hand-rolled seed pipeline, replicated verbatim (including the old
   merge-into-empty profile clone): the manager must reproduce its image
   byte for byte on every configuration variant. *)
let legacy_build prog profile config =
  let profile = Profile.merge profile (Profile.create ()) in
  let prog =
    match config.Pibe.Config.opt with
    | Pibe.Config.No_opt -> Pibe_opt.Cleanup.run prog
    | Pibe.Config.Icp_only { budget } ->
      let prog, _ =
        Pibe_opt.Icp.run prog profile
          { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = budget }
      in
      Pibe_opt.Cleanup.run prog
    | Pibe.Config.Full { icp_budget; inline_budget; lax } ->
      let prog, _ =
        Pibe_opt.Icp.run prog profile
          { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = icp_budget }
      in
      let prog, _ =
        Pibe_opt.Inliner.run prog profile
          {
            Pibe_opt.Inliner.default_config with
            Pibe_opt.Inliner.budget_pct = inline_budget;
            lax_within_pct = (if lax then Some 99.0 else None);
          }
      in
      Pibe_opt.Cleanup.run prog
    | Pibe.Config.Llvm_pgo { icp_budget; inline_budget } ->
      let prog, _ =
        Pibe_opt.Icp.run prog profile
          { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = icp_budget }
      in
      let prog, _ =
        Pibe_opt.Llvm_inliner.run prog profile
          {
            Pibe_opt.Llvm_inliner.default_config with
            Pibe_opt.Llvm_inliner.budget_pct = inline_budget;
          }
      in
      Pibe_opt.Cleanup.run prog
  in
  Pass.harden prog config.Pibe.Config.defenses

let test_manager_matches_legacy_pipeline () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let profile = Pibe.Env.lmbench_profile env in
  List.iter
    (fun (label, config) ->
      let legacy = legacy_build info.Pibe_kernel.Gen.prog profile config in
      let built =
        Pibe.Pipeline.build ~verify:true info.Pibe_kernel.Gen.prog profile config
      in
      let image = built.Pibe.Pipeline.image in
      Alcotest.(check string)
        (label ^ " image IR is byte-identical")
        (Pibe_ir.Printer.program_to_string legacy.Pass.prog)
        (Pibe_ir.Printer.program_to_string image.Pass.prog);
      Alcotest.(check int)
        (label ^ " image bytes agree")
        (Pass.image_bytes legacy) (Pass.image_bytes image);
      let audit r = Pibe_harden.Audit.run r in
      Alcotest.(check int)
        (label ^ " defended icalls agree")
        (audit legacy).Pibe_harden.Audit.defended_icalls
        (audit image).Pibe_harden.Audit.defended_icalls;
      (* per-pass stats cover the whole lowered spec *)
      Alcotest.(check int)
        (label ^ " one stats row per spec element")
        (List.length (Pibe.Pipeline.spec_of_config config))
        (List.length built.Pibe.Pipeline.pass_stats))
    variants

let test_manager_run_spec_errors () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let profile = Pibe.Env.lmbench_profile env in
  match Spec.of_string "icp(budget=99.9),mystery" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok spec -> (
    match Pibe.Pipeline.run_spec info.Pibe_kernel.Gen.prog profile spec with
    | Error e -> Alcotest.(check bool) "names the unknown pass" true (contains e "mystery")
    | Ok _ -> Alcotest.fail "unknown pass ran anyway")

(* ------------------------------------------------------------------ *)
(* Profile.copy                                                        *)
(* ------------------------------------------------------------------ *)

let test_profile_copy_is_independent () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let original = Pibe.Env.lmbench_profile env in
  let before = Profile.to_string original in
  let copy = Profile.copy original in
  Alcotest.(check string) "copy starts identical" before (Profile.to_string copy);
  (* ICP mutates its profile (promoted sites become direct): the copy must
     absorb that while the original stays untouched. *)
  let _ =
    Pibe_opt.Icp.run info.Pibe_kernel.Gen.prog copy
      { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = 99.999 }
  in
  Alcotest.(check string) "original unchanged after mutating the copy" before
    (Profile.to_string original);
  Alcotest.(check bool) "the copy really was mutated" true
    (not (String.equal before (Profile.to_string copy)))

(* ------------------------------------------------------------------ *)
(* Optimization-prefix reuse                                           *)
(* ------------------------------------------------------------------ *)

module Provenance = Pibe_profile.Provenance
module Program = Pibe_ir.Program
module Trace = Pibe_trace.Trace

(* The benchmark's build matrix: every defense set shares each level's
   optimization prefix. *)
let levels =
  [
    Pibe.Config.No_opt;
    Pibe.Config.Icp_only { budget = 99.999 };
    Pibe.Config.Full { icp_budget = 99.999; inline_budget = 99.9; lax = false };
    Pibe.Config.Full { icp_budget = 99.999; inline_budget = 99.9999; lax = true };
  ]

let defense_sets =
  Pibe.Exp_common.
    [
      Pass.no_defenses;
      retpolines_only;
      ret_retpolines_only;
      lvi_only;
      all_defenses;
      fineibt_pac;
    ]

let config opt defenses = { Pibe.Config.opt; defenses }
let matrix_order = List.concat_map (fun o -> List.map (config o) defense_sets) levels
let interleaved = List.concat_map (fun d -> List.map (fun o -> config o d) levels) defense_sets

let label (c : Pibe.Config.t) = Spec.to_string (Pibe.Pipeline.spec_of_config c)

(* Checks that two builds hand back the same thing: the image (program,
   protections, size), the per-pass stats, the post-ICP profile and the
   provenance. *)
let check_same_build what (a : Pibe.Pipeline.built) (b : Pibe.Pipeline.built) =
  let pa = a.Pibe.Pipeline.image.Pass.prog and pb = b.Pibe.Pipeline.image.Pass.prog in
  let funcs p = List.map (Program.find p) (Program.layout_order p) in
  Alcotest.(check bool) (what ^ ": image functions") true (funcs pa = funcs pb);
  Alcotest.(check bool)
    (what ^ ": fptr table, memory, site counter")
    true
    (pa.Program.fptr_table = pb.Program.fptr_table
    && Program.initial_memory pa = Program.initial_memory pb
    && pa.Program.next_site = pb.Program.next_site);
  let img (b : Pibe.Pipeline.built) =
    let i = b.Pibe.Pipeline.image in
    (Pass.image_bytes i, i.Pass.hardened_icall_sites, i.Pass.hardened_ret_sites, i.Pass.defenses)
  in
  Alcotest.(check bool) (what ^ ": image bytes and protections") true (img a = img b);
  Alcotest.(check bool)
    (what ^ ": pass stats")
    true
    (a.Pibe.Pipeline.pass_stats = b.Pibe.Pipeline.pass_stats);
  Alcotest.(check string) (what ^ ": post-ICP profile")
    (Profile.to_string a.Pibe.Pipeline.post_icp_profile)
    (Profile.to_string b.Pibe.Pipeline.post_icp_profile);
  Alcotest.(check string) (what ^ ": provenance")
    (Provenance.to_string a.Pibe.Pipeline.provenance)
    (Provenance.to_string b.Pibe.Pipeline.provenance)

(* A build that cannot reuse anything: a fresh profile copy is a key no
   earlier run used, and the program is a physically distinct parse of
   the printed kernel. *)
let cold_build prog_copy profile cfg =
  Pibe.Pipeline.build prog_copy (Profile.copy profile) cfg

(* Builds [configs] under a trace and returns them with the prefix-cache
   (hits, misses) the trace recorded. *)
let traced_builds prog profile configs =
  Trace.start ();
  let builds =
    Fun.protect
      ~finally:(fun () -> if Trace.enabled () then ignore (Trace.stop ()))
      (fun () -> List.map (Pibe.Pipeline.build ~verify:true prog profile) configs)
  in
  let totals = Trace.counter_totals (Trace.stop ()) in
  let count name =
    int_of_float (Option.value ~default:0.0 (List.assoc_opt ("sched", name, "count") totals))
  in
  (builds, (count "prefix-cache-hit", count "prefix-cache-miss"))

let test_prefix_reuse_matches_cold () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let prog_copy = Pibe_ir.Parser.parse_program (Pibe_ir.Printer.program_to_string prog) in
  let cold = List.map (fun c -> (c, cold_build prog_copy profile c)) matrix_order in
  (* a profile no earlier test built with, so the first build of each
     level is the only miss *)
  let warm_profile = Profile.copy profile in
  let check_order order configs ~hits ~misses =
    let builds, (h, m) = traced_builds prog warm_profile configs in
    List.iter2
      (fun c b -> check_same_build (order ^ " " ^ label c) (List.assoc c cold) b)
      configs builds;
    Alcotest.(check (pair int int)) (order ^ ": prefix hits, misses") (hits, misses) (h, m)
  in
  check_order "matrix order" matrix_order ~hits:20 ~misses:4;
  check_order "interleaved" interleaved ~hits:24 ~misses:0

let test_prefix_reuse_mutation_safety () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let prog_copy = Pibe_ir.Parser.parse_program (Pibe_ir.Printer.program_to_string prog) in
  let cfg = Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses in
  let profile = Profile.copy (Pibe.Env.lmbench_profile env) in
  let first = Pibe.Pipeline.build prog profile cfg in
  (* mutating the input profile changes the key: the next build is the
     cold build of the mutated profile, not a replay of the first *)
  let origin =
    match Program.all_sites prog with
    | (_, s) :: _ -> s.Pibe_ir.Types.site_origin
    | [] -> Alcotest.fail "kernel without call sites"
  in
  Profile.add_direct profile ~origin ~count:1_000_000;
  let mutated = Pibe.Pipeline.build prog profile cfg in
  check_same_build "after Profile.add_direct" (cold_build prog_copy profile cfg) mutated;
  Alcotest.(check bool) "the mutation reached the build" true
    (Profile.to_string first.Pibe.Pipeline.post_icp_profile
    <> Profile.to_string mutated.Pibe.Pipeline.post_icp_profile);
  (* what a build hands back is the caller's own: scribbling on it after
     a miss or after a hit never reaches a later hit *)
  let reference = cold_build prog_copy profile cfg in
  let scribble (b : Pibe.Pipeline.built) =
    Profile.add_direct b.Pibe.Pipeline.post_icp_profile ~origin ~count:7;
    Provenance.record_promotion b.Pibe.Pipeline.provenance ~promoted_origin:max_int ~origin
      ~target:"scribbled"
  in
  let fresh = Profile.copy profile in
  let miss = Pibe.Pipeline.build prog fresh cfg in
  scribble miss;
  let hit = Pibe.Pipeline.build prog fresh cfg in
  check_same_build "hit after scribbling on a miss" reference hit;
  scribble hit;
  check_same_build "hit after scribbling on a hit" reference (Pibe.Pipeline.build prog fresh cfg)

(* A cell that raises inside [Pool.map] leaves the shared state usable.
   Three cells run on two domains under a trace: a cold build, a build
   whose check hook raises on its second pass, and an engine on a fresh
   parse followed by a raise inside a span.  One of the two exceptions
   comes back after the join, the stopped stream is balanced, the engine
   cell's program stays in the compile cache, and a sequential re-run of
   the good build hits the prefix cache and matches a cold build of a
   physically distinct parse. *)
let test_pool_failure_leaves_state_usable () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let text = Pibe_ir.Printer.program_to_string prog in
  let cfg = Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses in
  let fresh = Profile.copy profile in
  let good = ref None and parsed = ref None in
  let cell = function
    | `Build -> good := Some (Pibe.Pipeline.build ~verify:true prog fresh cfg)
    | `Failing_check ->
      let calls = ref 0 in
      let check _ =
        incr calls;
        if !calls = 2 then failwith "check: second pass"
      in
      ignore (Pibe.Pipeline.run_spec ~check prog profile (Pibe.Pipeline.spec_of_config cfg))
    | `Failing_span ->
      let p = Pibe_ir.Parser.parse_program text in
      parsed := Some p;
      ignore (Pibe_cpu.Engine.create p);
      Trace.span "failing-cell" (fun () -> failwith "span: cell failed")
  in
  let pool = Pibe_util.Pool.create ~jobs:2 () in
  let outcome, events =
    Fun.protect
      ~finally:(fun () -> if Trace.enabled () then ignore (Trace.stop ()))
      (fun () ->
        Trace.start ();
        let outcome =
          match Pibe_util.Pool.map pool cell [ `Build; `Failing_check; `Failing_span ] with
          | _ -> None
          | exception Failure m -> Some m
        in
        (outcome, Trace.stop ()))
  in
  Alcotest.(check bool)
    "a cell's exception is re-raised after the join" true
    (List.mem outcome [ Some "check: second pass"; Some "span: cell failed" ]);
  (match Trace.check_balanced events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unbalanced trace after a failing cell: %s" e);
  (match !parsed with
  | None -> Alcotest.fail "the engine cell did not run"
  | Some p ->
    let hits, misses = Pibe_cpu.Engine.compile_cache_stats () in
    ignore (Pibe_cpu.Engine.create p);
    Alcotest.(check (pair int int))
      "engine cell's program still cached" (hits + 1, misses)
      (Pibe_cpu.Engine.compile_cache_stats ()));
  let prog_copy = Pibe_ir.Parser.parse_program text in
  let cold = cold_build prog_copy profile cfg in
  (match !good with
  | None -> Alcotest.fail "the good cell did not finish"
  | Some b -> check_same_build "build beside failing cells" cold b);
  match traced_builds prog fresh [ cfg ] with
  | [ rerun ], (hits, misses) ->
    Alcotest.(check (pair int int)) "re-run: prefix hits, misses" (1, 0) (hits, misses);
    check_same_build "sequential re-run" cold rerun
  | _ -> Alcotest.fail "expected one build"

(* The manager's snapshot sums function sizes instead of building a
   layout; both must agree on the pristine kernel and after every
   optimization level. *)
let test_snapshot_code_bytes () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let check what p =
    Alcotest.(check int) (what ^ ": code bytes")
      (Pibe_ir.Layout.total_code_bytes (Pibe_ir.Layout.build p))
      (Manager.snapshot p).Manager.code_bytes
  in
  check "kernel" prog;
  List.iter
    (fun o ->
      let c = config o Pibe.Exp_common.all_defenses in
      check (label c) (Pibe.Pipeline.build prog profile c).Pibe.Pipeline.image.Pass.prog)
    levels

(* [?check] is a per-pass side effect, so a run given one never reuses a
   prefix: the hook sees every pass of every run. *)
let test_prefix_reuse_bypassed_by_check () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Profile.copy (Pibe.Env.lmbench_profile env) in
  let spec =
    Pibe.Pipeline.spec_of_config (Pibe.Exp_common.best_config Pibe.Exp_common.fineibt_pac)
  in
  let calls = ref 0 in
  let run () =
    match Pibe.Pipeline.run_spec ~check:(fun _ -> incr calls) prog profile spec with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  ignore (Pibe.Pipeline.run_spec prog profile spec);
  run ();
  run ();
  Alcotest.(check int) "hook ran after every pass of both runs" (2 * List.length spec) !calls

(* ------------------------------------------------------------------ *)
(* Per-function memos: warm equals cold                                *)
(* ------------------------------------------------------------------ *)

(* What the per-function memos feed, in comparable form: cleanup's
   program and stats, the snapshots before and after it, and per defense
   set the hardened image's functions, protection tables (as sorted
   bindings: table layout follows insertion order, which the scan leaves
   unspecified), counts and bytes. *)
let memo_outputs prog =
  let funcs p = List.map (Program.find p) (Program.layout_order p) in
  let bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let cleaned, stats = Pibe_opt.Cleanup.run_with_stats prog in
  let image d =
    let i = Pass.harden cleaned d in
    ( funcs i.Pass.prog,
      (bindings i.Pass.fwd, bindings i.Pass.bwd),
      (i.Pass.hardened_icall_sites, i.Pass.hardened_ret_sites, Pass.image_bytes i) )
  in
  ( (funcs cleaned, stats),
    (Manager.snapshot prog, Manager.snapshot cleaned),
    List.map image defense_sets )

(* A physically distinct copy: every memo lookup on it misses. *)
let reparse prog = Pibe_ir.Parser.parse_program (Pibe_ir.Printer.program_to_string prog)

(* Cleanup and the snapshot as layout-order walks that read no memo, so
   a memo keyed too coarsely, which warm and cold runs would share,
   still shows. *)
let reference_outputs prog =
  let module C = Pibe_opt.Cleanup in
  let zero = { C.folded = 0; branches_folded = 0; blocks_removed = 0; dead_assigns_removed = 0 } in
  let cleaned, stats =
    Program.fold_funcs prog ~init:(prog, zero) ~f:(fun (acc, (t : C.stats)) (f : Pibe_ir.Types.func) ->
        if f.attrs.optnone || f.attrs.is_asm then (acc, t)
        else
          let f', s = C.run_func_with_stats f in
          ( Program.update_func acc f',
            {
              C.folded = t.folded + s.folded;
              branches_folded = t.branches_folded + s.branches_folded;
              blocks_removed = t.blocks_removed + s.blocks_removed;
              dead_assigns_removed = t.dead_assigns_removed + s.dead_assigns_removed;
            } ))
  in
  let snapshot p =
    let module F = Pibe_ir.Func in
    Program.fold_funcs p
      ~init:
        {
          Manager.funcs = Program.func_count p;
          blocks = 0;
          insts = 0;
          code_bytes = 0;
          icalls = 0;
          rets = 0;
          jump_tables = 0;
        }
      ~f:(fun (s : Manager.snapshot) f ->
        {
          s with
          blocks = s.blocks + Array.length f.Pibe_ir.Types.blocks;
          insts = s.insts + F.inst_count f;
          code_bytes = s.code_bytes + Pibe_ir.Layout.func_size f;
          icalls = s.icalls + List.length (F.icall_sites f);
          rets = s.rets + F.ret_count f;
          jump_tables = s.jump_tables + F.jump_table_count f;
        })
  in
  let funcs p = List.map (Program.find p) (Program.layout_order p) in
  ((funcs cleaned, stats), (snapshot prog, snapshot cleaned))

(* Run twice, the second time off the memos, and once on a fresh parse;
   all three must also agree with the memo-free walks. *)
let warm_equals_cold prog =
  let first = memo_outputs prog in
  let warm = memo_outputs prog in
  let cleanup, snapshots, _ = warm in
  warm = first
  && warm = memo_outputs (reparse prog)
  && (cleanup, snapshots) = reference_outputs prog

let prop_memo_warm_equals_cold =
  QCheck.Test.make ~name:"per-function memos: warm equals cold" ~count:100 QCheck.small_nat
    (fun seed -> warm_equals_cold (Helpers.random_program seed))

let test_memo_warm_equals_cold_kernel () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  Alcotest.(check bool) "pristine quick kernel" true (warm_equals_cold prog);
  Alcotest.(check bool) "lax-inlined quick kernel" true
    (warm_equals_cold (Helpers.optimized env "icp(budget=99.999),inline(budget=99.9999,lax)"))

(* The build matrix on two domains, which race on the memos for every
   function the builds share, against cold builds of a fresh parse. *)
let test_memo_pool_builds () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let prog_copy = reparse prog in
  let fresh = Profile.copy profile in
  let pool = Pibe_util.Pool.create ~jobs:2 () in
  let builds = Pibe_util.Pool.map pool (Pibe.Pipeline.build prog fresh) matrix_order in
  List.iter2
    (fun c b -> check_same_build ("two domains " ^ label c) (cold_build prog_copy profile c) b)
    matrix_order builds

(* The paper's best configuration with every defense, on the quick
   kernel (seed 42, scale 1).  Its lax inlining grows callers to hundreds
   of blocks and its rules 2 and 3 block weight, so a drifting
   InlineCost, a wrong once-block witness or a liveness mismatch in
   Cleanup shows here.  The values were captured from the pipeline that
   re-walked the caller for InlineCost and witnesses and solved liveness
   with per-block register sets. *)
let test_best_all_defenses_pinned () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let cfg = Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses in
  let b = Pibe.Pipeline.build prog (Pibe.Env.lmbench_profile env) cfg in
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "spec"
    "icp(budget=99.999),inline(budget=99.9999,lax),cleanup,retpoline,ret-retpoline,lvi-cfi"
    (label cfg);
  Alcotest.(check string) "image text" "e54bdad7fccbc84d6720b4b3054f7273"
    (digest (Pibe_ir.Printer.program_to_string b.Pibe.Pipeline.image.Pass.prog));
  Alcotest.(check string) "provenance" "6d11c4c5263c909d103dea4af22afca5"
    (digest (Provenance.to_string b.Pibe.Pipeline.provenance));
  let icp (s : Pibe_opt.Icp.stats) =
    Pibe_opt.Icp.
      [
        s.total_weight; s.total_sites; s.total_targets; s.promoted_weight; s.promoted_sites;
        s.promoted_targets;
      ]
  in
  let inline (s : Pibe_opt.Inliner.stats) =
    Pibe_opt.Inliner.
      [
        s.total_weight; s.eligible_weight; s.initial_candidates; s.initial_candidate_weight;
        s.inlined_sites; s.inlined_weight; s.blocked_rule2_weight; s.blocked_rule3_weight;
        s.blocked_other_weight; s.total_ret_sites_before; s.total_ret_sites_after;
      ]
  in
  let cleanup (s : Pibe_opt.Cleanup.stats) =
    Pibe_opt.Cleanup.[ s.folded; s.branches_folded; s.blocks_removed; s.dead_assigns_removed ]
  in
  Alcotest.(check (option (list int))) "icp stats"
    (Some
       (icp
          {
            Pibe_opt.Icp.total_weight = 12833;
            total_sites = 20;
            total_targets = 65;
            promoted_weight = 12833;
            promoted_sites = 20;
            promoted_targets = 65;
          }))
    (Option.map icp b.Pibe.Pipeline.icp_stats);
  Alcotest.(check (option (list int))) "inliner stats"
    (Some
       (inline
          {
            Pibe_opt.Inliner.total_weight = 59853;
            eligible_weight = 95886;
            initial_candidates = 362;
            initial_candidate_weight = 59853;
            inlined_sites = 342;
            inlined_weight = 59405;
            blocked_rule2_weight = 391;
            blocked_rule3_weight = 43;
            blocked_other_weight = 316;
            total_ret_sites_before = 932;
            total_ret_sites_after = 932;
          }))
    (Option.map inline b.Pibe.Pipeline.inline_stats);
  Alcotest.(check (list (list int))) "cleanup stats"
    [
      cleanup
        {
          Pibe_opt.Cleanup.folded = 159;
          branches_folded = 0;
          blocks_removed = 516;
          dead_assigns_removed = 6548;
        };
    ]
    (List.filter_map
       (fun (s : Manager.pass_stats) ->
         match s.Manager.detail with
         | Pibe_pm.Pass.Cleanup c -> Some (cleanup c)
         | _ -> None)
       b.Pibe.Pipeline.pass_stats)

let suite =
  [
    Helpers.qcheck_to_alcotest prop_spec_round_trip;
    Helpers.qcheck_to_alcotest prop_float_arg_round_trip;
    ("spec whitespace/canonical form", `Quick, test_spec_whitespace_and_canonical);
    ("spec rejects malformed input", `Quick, test_spec_rejects_malformed);
    ("registry diagnostics", `Quick, test_registry_rejections);
    ("registry option edges run or are rejected", `Quick, test_registry_option_edges);
    ("registry resolves every name", `Quick, test_registry_accepts_all_names);
    ("registry docs round-trip the grammar", `Quick, test_registry_infos_round_trip);
    ("config lowering round-trips", `Quick, test_spec_of_config_round_trips);
    ("manager matches the seed pipeline", `Slow, test_manager_matches_legacy_pipeline);
    ("run_spec reports unknown passes", `Quick, test_manager_run_spec_errors);
    ("profile copy is independent", `Quick, test_profile_copy_is_independent);
    ("snapshot code bytes match the layout", `Quick, test_snapshot_code_bytes);
    ("prefix reuse matches cold builds", `Slow, test_prefix_reuse_matches_cold);
    ("prefix reuse is mutation-safe", `Quick, test_prefix_reuse_mutation_safety);
    ("prefix reuse bypassed by a check hook", `Quick, test_prefix_reuse_bypassed_by_check);
    ("a failing pool cell leaves state usable", `Quick, test_pool_failure_leaves_state_usable);
    Helpers.qcheck_to_alcotest prop_memo_warm_equals_cold;
    ("memos: warm equals cold on the kernel", `Quick, test_memo_warm_equals_cold_kernel);
    ("memos: two-domain builds equal cold", `Slow, test_memo_pool_builds);
    ("best config, all defenses: pinned build", `Quick, test_best_all_defenses_pinned);
  ]
