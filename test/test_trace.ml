(* lib/trace: span nesting/balance, sink well-formedness (the Chrome JSON
   round-trips through the bundled parser), counter merging across
   domains, canonical-content determinism at any job count, and the
   disabled path being a genuine no-op (no events, and no effect on
   simulated cycles). *)

module Trace = Pibe_trace.Trace
module Json = Pibe_trace.Json
module Pool = Pibe_util.Pool

let collect f =
  Trace.start ();
  Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) f;
  Trace.stop ()

(* ------------------------- nesting / balance ------------------------- *)

let test_span_nesting () =
  let evs =
    collect (fun () ->
        Trace.span "outer" (fun () ->
            Trace.counter "c" [ ("v", Trace.Int 1) ];
            Trace.span "inner" (fun () -> Trace.instant "tick");
            Trace.span "inner2" (fun () -> ())))
  in
  (match Trace.check_balanced evs with
  | Ok () -> ()
  | Error m -> Alcotest.failf "balanced trace reported unbalanced: %s" m);
  let names =
    List.filter_map
      (fun (e : Trace.event) -> if e.Trace.ph = Trace.Begin then Some e.Trace.name else None)
      evs
  in
  Alcotest.(check (list string)) "span open order" [ "outer"; "inner"; "inner2" ] names;
  (* an End for a span that was never opened must be flagged *)
  let bogus =
    evs
    @ [
        {
          Trace.ph = Trace.End;
          name = "never-opened";
          cat = "";
          ts_ns = 0L;
          dom = 0;
          seq = 9999;
          args = [];
        };
      ]
  in
  (match Trace.check_balanced bogus with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unbalanced trace accepted")

let test_span_exception () =
  let evs =
    collect (fun () ->
        try Trace.span "boom" (fun () -> failwith "expected") with Failure _ -> ())
  in
  (match Trace.check_balanced evs with
  | Ok () -> ()
  | Error m -> Alcotest.failf "span closed on exception should balance: %s" m);
  match List.rev evs with
  | (e : Trace.event) :: _ ->
    Alcotest.(check bool) "end carries exn arg" true (List.mem_assoc "exn" e.Trace.args)
  | [] -> Alcotest.fail "no events collected"

(* ------------------------------ no-op path ------------------------------ *)

let test_disabled_noop () =
  ignore (Trace.stop ());
  Trace.clear ();
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  let r = Trace.span "ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is transparent when disabled" 42 r;
  for i = 1 to 1_000_000 do
    Trace.counter "hot" [ ("i", Trace.Int i) ]
  done;
  Trace.gauge "g" 1.0;
  Trace.instant "i";
  Alcotest.(check int) "no events collected while disabled" 0 (List.length (Trace.events ()))

(* Tracing must not perturb the simulation: the measured (simulated)
   latencies are byte-identical with collection on and off.  This is the
   perf-parity pin for the disabled path — simulated cycles are the
   repository's clock, and the trace layer never touches them. *)
let test_simulation_unperturbed () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let ops =
    match Pibe_kernel.Workload.lmbench info with
    | a :: b :: _ -> [ a; b ]
    | ops -> ops
  in
  let run () =
    let engine = Pibe_cpu.Engine.create info.Pibe_kernel.Gen.prog in
    Pibe.Measure.suite_latencies ~settings:Pibe.Measure.quick_settings engine ops
  in
  let plain = run () in
  Trace.start ();
  let traced = Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) run in
  Alcotest.(check (list (pair string (float 0.0))))
    "latencies identical with tracing on" plain traced

(* ------------------------------- sinks ------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let traced_build spec_text =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let profile = Pibe.Env.lmbench_profile env in
  let spec =
    match Pibe_pm.Spec.of_string spec_text with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec %s: %s" spec_text e
  in
  let passes =
    match Pibe_pm.Registry.of_spec spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "registry rejected %s: %s" spec_text e
  in
  ignore (Pibe_pm.Manager.run info.Pibe_kernel.Gen.prog profile passes)

let test_chrome_roundtrip () =
  (* warm the shared caches before enabling collection *)
  ignore (Pibe.Env.lmbench_profile (Helpers.env ()));
  let evs = collect (fun () -> traced_build "icp(budget=99.999),cleanup,retpoline") in
  Alcotest.(check bool) "events collected" true (List.length evs > 0);
  (match Trace.check_balanced evs with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unbalanced: %s" m);
  let text = Trace.to_chrome evs in
  match Json.parse text with
  | Error e -> Alcotest.failf "chrome sink is not valid JSON: %s" e
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Json.Arr entries) ->
      Alcotest.(check bool) "non-empty traceEvents" true (entries <> []);
      let phases =
        List.map
          (fun entry ->
            (match Json.member "name" entry with
            | Some (Json.Str _) -> ()
            | _ -> Alcotest.fail "entry without string name");
            (match Json.member "ts" entry with
            | Some (Json.Num _) -> ()
            | _ -> Alcotest.fail "entry without numeric ts");
            (match (Json.member "pid" entry, Json.member "tid" entry) with
            | Some (Json.Num _), Some (Json.Num _) -> ()
            | _ -> Alcotest.fail "entry without pid/tid");
            match Json.member "ph" entry with
            | Some (Json.Str p) -> p
            | _ -> Alcotest.fail "entry without ph")
          entries
      in
      let count p = List.length (List.filter (String.equal p) phases) in
      Alcotest.(check int) "every B has an E" (count "B") (count "E");
      Alcotest.(check bool) "has counter samples" true (count "C" > 0)
    | _ -> Alcotest.fail "no traceEvents array")

let test_text_and_csv_sinks () =
  let evs = collect (fun () -> traced_build "cleanup") in
  let text = Trace.to_text evs in
  Alcotest.(check bool) "text sink names the pass" true (contains text "pass:cleanup");
  let csv = Trace.to_csv evs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv: one row per event plus header" (List.length evs + 1)
    (List.length lines);
  Alcotest.(check string) "csv header" "seq,dom,ph,cat,name,t_us,args" (List.hd lines)

(* The one rule bench/main.exe and pibe_cli share for picking a sink. *)
let test_format_of_path () =
  List.iter
    (fun (path, fmt) ->
      Alcotest.(check string) path (Trace.format_to_string fmt)
        (Trace.format_to_string (Trace.format_of_path path)))
    [
      ("run.json", Trace.Chrome);
      ("_build/smoke/bench.trace.json", Trace.Chrome);
      ("run.csv", Trace.Csv);
      ("run.txt", Trace.Text);
      ("run", Trace.Text);
      ("run.json.txt", Trace.Text);
    ]

let test_json_parser_negatives () =
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated array accepted");
  (match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing value accepted");
  (match Json.parse "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.parse "{\"a\":[1,2.5,\"x\\n\",true,null]}" with
  | Ok (Json.Obj [ ("a", Json.Arr [ Json.Num 1.0; Json.Num 2.5; Json.Str "x\n"; Json.Bool true; Json.Null ]) ])
    -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong value"
  | Error e -> Alcotest.failf "valid JSON rejected: %s" e

(* ----------------------- cross-domain counters ----------------------- *)

let counter_work pool =
  Pool.iter pool
    (fun i ->
      Trace.counter "work" [ ("n", Trace.Int i); ("samples", Trace.Int 1) ])
    (List.init 20 Fun.id)

let test_counter_merge_across_domains () =
  let totals jobs =
    let pool = Pool.create ~jobs () in
    let evs = collect (fun () -> counter_work pool) in
    (* drop the "sched" residue (pool:domains etc.) — like [canonical],
       work-counter totals must not depend on how work was scheduled *)
    List.filter (fun ((cat, _, _), _) -> cat <> "sched") (Trace.counter_totals evs)
  in
  let seq = totals 1 and par = totals 4 in
  Alcotest.(check bool) "sequential totals present" true
    (List.assoc_opt ("", "work", "n") seq = Some 190.0
    && List.assoc_opt ("", "work", "samples") seq = Some 20.0);
  (* the merged totals are independent of which domain emitted what *)
  Alcotest.(check bool) "parallel totals equal sequential" true (seq = par)

(* ------------------------ optimization reuse ------------------------ *)

(* A build that reuses a cached optimization prefix replays the reused
   passes' spans and counters, so its canonical stream equals the cold
   build's; the reuse itself shows only as "sched" traffic. *)
let test_prefix_reuse_canonical () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  (* a profile no other build used: the first run below is a miss *)
  let profile = Pibe_profile.Profile.copy (Pibe.Env.lmbench_profile env) in
  let config = Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses in
  let build () = ignore (Pibe.Pipeline.build prog profile config) in
  let cold = collect build in
  let warm = collect build in
  let reuse_counters evs =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.ph = Trace.Counter && String.starts_with ~prefix:"prefix-cache-" e.Trace.name
        then Some (e.Trace.cat, e.Trace.name)
        else None)
      evs
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "cold build: one sched miss" [ ("sched", "prefix-cache-miss") ]
    (reuse_counters cold);
  Alcotest.check pairs "warm build: one sched hit" [ ("sched", "prefix-cache-hit") ]
    (reuse_counters warm);
  Alcotest.(check bool) "warm trace balanced" true (Trace.check_balanced warm = Ok ());
  Alcotest.(check (list string)) "canonical warm = cold" (Trace.canonical cold)
    (Trace.canonical warm)

(* --------------------- determinism across --jobs --------------------- *)

let test_canonical_jobs_invariant () =
  let env = Helpers.env () in
  ignore (Pibe.Env.info env);
  ignore (Pibe.Env.lmbench_profile env);
  let specs =
    [ "icp(budget=99.999),cleanup"; "cleanup"; "icp(budget=99),cleanup,retpoline"; "ret-retpoline" ]
  in
  let run jobs =
    let pool = Pool.create ~jobs () in
    let evs = collect (fun () -> Pool.iter pool traced_build specs) in
    Trace.canonical evs
  in
  let c1 = run 1 and c4 = run 4 in
  Alcotest.(check bool) "canonical stream non-empty" true (c1 <> []);
  Alcotest.(check (list string)) "canonical content identical at jobs 1 and 4" c1 c4

(* ------------------- determinism across backends -------------------- *)

(* Every deterministic sample an engine emits is simulated, and the two
   backends are bit-exact, so a traced Measure suite plus one adaptive
   Sim window must give the same canonical stream on either backend. *)
let test_canonical_backend_invariant () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let training = Pibe.Env.lmbench_profile env in
  let prog = info.Pibe_kernel.Gen.prog in
  let spec =
    Pibe.Pipeline.spec_of_config (Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses)
  in
  let sim_config = { Pibe_online.Sim.default_config with Pibe_online.Sim.requests_per_window = 25 } in
  let run backend =
    let previous = Pibe_cpu.Engine.default_backend () in
    Pibe_cpu.Engine.set_default_backend backend;
    Fun.protect ~finally:(fun () -> Pibe_cpu.Engine.set_default_backend previous)
    @@ fun () ->
    let evs =
      collect (fun () ->
          let engine = Pibe_cpu.Engine.create prog in
          ignore
            (Pibe.Measure.suite_latencies ~settings:Pibe.Measure.quick_settings engine
               (Pibe_kernel.Workload.lmbench info));
          match
            Pibe_online.Sim.run ~config:sim_config ~adaptive:true ~prog ~spec ~training
              ~phases:[ (Pibe_kernel.Workload.lmbench_phase info, 1) ]
              ()
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "sim: %s" e)
    in
    Trace.canonical evs
  in
  let interp = run Pibe_cpu.Engine.Interp in
  let compiled = run Pibe_cpu.Engine.Compiled in
  Alcotest.(check bool) "canonical stream non-empty" true (interp <> []);
  Alcotest.(check (list string)) "canonical content identical on both backends" interp
    compiled

let suite =
  [
    Alcotest.test_case "span nesting and balance" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick test_span_exception;
    Alcotest.test_case "disabled path is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "tracing never perturbs simulated cycles" `Quick
      test_simulation_unperturbed;
    Alcotest.test_case "chrome sink round-trips through JSON parser" `Quick
      test_chrome_roundtrip;
    Alcotest.test_case "text and csv sinks" `Quick test_text_and_csv_sinks;
    Alcotest.test_case "sink follows the file extension" `Quick test_format_of_path;
    Alcotest.test_case "json parser accepts/rejects correctly" `Quick
      test_json_parser_negatives;
    Alcotest.test_case "counter totals merge across domains" `Quick
      test_counter_merge_across_domains;
    Alcotest.test_case "canonical content identical at any --jobs" `Quick
      test_canonical_jobs_invariant;
    Alcotest.test_case "prefix reuse keeps the canonical trace" `Quick
      test_prefix_reuse_canonical;
    Alcotest.test_case "canonical content identical on both backends" `Quick
      test_canonical_backend_invariant;
  ]
