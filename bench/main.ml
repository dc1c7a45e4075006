(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (PIBE, ASPLOS'21) on the simulated kernel and prints the
   same rows the paper reports.

   Usage:
     bench/main.exe                 regenerate everything (paper order)
     bench/main.exe --table 5       one table (also: --figure 1, --robustness,
                                    --security, --ablation, --passes,
                                    --online, --fleet, --frontier,
                                    --stale, --fixpoint, --listings)
     bench/main.exe --quick         small kernel / fast settings
     bench/main.exe --jobs N        build/measure independent cells on up
                                    to N domains (1 = fully sequential;
                                    0 = one per core); output is
                                    identical at any job count
     bench/main.exe --bechamel      additionally run one Bechamel Test.make
                                    per experiment (timing of regeneration
                                    against the warm environment)
     bench/main.exe --engine NAME   execution backend: compiled (default)
                                    or interp; bit-exact, so output is
                                    identical either way
     bench/main.exe --time N        timing mode: after one warm run per
                                    selected experiment, re-run it N times
                                    and print one "time <id> <i> <secs>"
                                    line per run (tools/bench_compare.sh
                                    parses these; experiment output is
                                    suppressed)
     bench/main.exe --trace FILE    collect a structured trace of the whole
                                    run (spans per pass / window / measured
                                    op); the sink is picked by extension:
                                    .json -> Chrome trace_event (load in
                                    chrome://tracing or Perfetto),
                                    .csv -> CSV, anything else -> text *)

let quick = ref false
let bechamel = ref false
let jobs = ref 1
let engine = ref Pibe_cpu.Engine.Compiled
let trace_out : string option ref = ref None
let selected : string list ref = ref []
let time_runs = ref 0

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--bechamel" :: rest ->
      bechamel := true;
      go rest
    | "--trace" :: path :: rest ->
      trace_out := Some path;
      go rest
    | [ "--trace" ] ->
      Printf.eprintf "--trace expects an output file\n";
      exit 2
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 0 ->
        jobs := (if j = 0 then Domain.recommended_domain_count () else j)
      | _ ->
        Printf.eprintf "--jobs expects a non-negative integer, got %s\n" n;
        exit 2);
      go rest
    | "--engine" :: name :: rest ->
      (match Pibe_cpu.Engine.backend_of_string name with
      | Some b -> engine := b
      | None ->
        Printf.eprintf "--engine expects 'compiled' or 'interp', got %s\n" name;
        exit 2);
      go rest
    | [ "--engine" ] ->
      Printf.eprintf "--engine expects a backend name\n";
      exit 2
    | "--time" :: n :: rest ->
      (match int_of_string_opt n with
      | Some t when t > 0 -> time_runs := t
      | _ ->
        Printf.eprintf "--time expects a positive integer, got %s\n" n;
        exit 2);
      go rest
    | [ "--time" ] ->
      Printf.eprintf "--time expects a run count\n";
      exit 2
    | "--table" :: n :: rest ->
      selected := ("table" ^ n) :: !selected;
      go rest
    | "--figure" :: n :: rest ->
      selected := ("figure" ^ n) :: !selected;
      go rest
    | "--robustness" :: rest ->
      selected := "robustness" :: !selected;
      go rest
    | "--security" :: rest ->
      selected := "security" :: !selected;
      go rest
    | "--ablation" :: rest ->
      selected := "ablation" :: !selected;
      go rest
    | "--passes" :: rest ->
      selected := "passes" :: !selected;
      go rest
    | "--online" :: rest ->
      selected := "online" :: !selected;
      go rest
    | "--fleet" :: rest ->
      selected := "fleet" :: !selected;
      go rest
    | "--frontier" :: rest ->
      selected := "frontier" :: !selected;
      go rest
    | "--stale" :: rest ->
      selected := "stale" :: !selected;
      go rest
    | "--fixpoint" :: rest ->
      selected := "fixpoint" :: !selected;
      go rest
    | "--listings" :: rest ->
      selected := "listings" :: !selected;
      go rest
    | "--only" :: id :: rest ->
      (* any experiment id (see 'pibe experiment list'), e.g. sensitivity,
         userspace, v1scan — ids without a dedicated flag *)
      selected := id :: !selected;
      go rest
    | [ "--only" ] ->
      Printf.eprintf "--only expects an experiment id\n";
      exit 2
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

let run_experiment env (e : Pibe.Experiments.t) =
  Printf.printf "==> %s (%s): %s\n\n" e.Pibe.Experiments.id e.Pibe.Experiments.paper_ref
    e.Pibe.Experiments.description;
  List.iter Pibe_util.Tbl.print (e.Pibe.Experiments.run env)

let bechamel_pass env experiments =
  (* One Bechamel test per table/figure: how long regenerating each
     artifact takes against the warm (memoized) environment. *)
  let open Bechamel in
  let tests =
    List.map
      (fun (e : Pibe.Experiments.t) ->
        Test.make ~name:e.Pibe.Experiments.id
          (Staged.stage (fun () -> ignore (e.Pibe.Experiments.run env))))
      experiments
  in
  let test = Test.make_grouped ~name:"pibe-experiments" ~fmt:"%s %s" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "bechamel %-32s %12.0f ns/run\n" name est
      | Some [] | None -> Printf.printf "bechamel %-32s (no estimate)\n" name)
    results

let trace_format_of_path path =
  if Filename.check_suffix path ".json" then Pibe_trace.Trace.Chrome
  else if Filename.check_suffix path ".csv" then Pibe_trace.Trace.Csv
  else Pibe_trace.Trace.Text

let () =
  parse_args ();
  if !trace_out <> None then Pibe_trace.Trace.start ();
  let env =
    if !quick then Pibe.Env.quick ~jobs:!jobs ~engine:!engine ()
    else Pibe.Env.create ~jobs:!jobs ~engine:!engine ()
  in
  let wanted =
    match !selected with
    | [] -> List.map (fun (e : Pibe.Experiments.t) -> e.Pibe.Experiments.id) Pibe.Experiments.all
    | ids -> List.rev ids
  in
  let t0_wall = Pibe_trace.Trace.now_s () in
  let t0_cpu = Sys.time () in
  if !time_runs > 0 then
    (* Timing mode (the interleaved warm-run protocol of BENCH_PR*.json):
       one warm run to populate caches, then N timed re-runs against the
       warm environment; per-run wall seconds go to stdout in a
       machine-readable form for tools/bench_compare.sh. *)
    List.iter
      (fun id ->
        if not (String.equal id "listings") then
          match Pibe.Experiments.find id with
          | Some e ->
            ignore (e.Pibe.Experiments.run env);
            for i = 1 to !time_runs do
              let t0 = Pibe_trace.Trace.now_s () in
              ignore (e.Pibe.Experiments.run env);
              Printf.printf "time %s %d %.6f\n%!" e.Pibe.Experiments.id i
                (Pibe_trace.Trace.now_s () -. t0)
            done
          | None ->
            Printf.eprintf "unknown experiment id %s\n" id;
            exit 2)
      wanted
  else begin
    List.iter
      (fun id ->
        if String.equal id "listings" then begin
          print_endline "==> listings: the paper's defense code sequences\n";
          print_endline (Pibe.Experiments.listings ());
          print_newline ()
        end
        else
          match Pibe.Experiments.find id with
          | Some e -> run_experiment env e
          | None ->
            Printf.eprintf "unknown experiment id %s\n" id;
            exit 2)
      wanted;
    if !selected = [] then begin
      print_endline "==> listings: the paper's defense code sequences\n";
      print_endline (Pibe.Experiments.listings ())
    end
  end;
  if !bechamel then begin
    let experiments =
      List.filter_map Pibe.Experiments.find
        (List.filter (fun id -> not (String.equal id "listings")) wanted)
    in
    bechamel_pass env experiments
  end;
  (match !trace_out with
  | None -> ()
  | Some path ->
    let events = Pibe_trace.Trace.stop () in
    let fmt = trace_format_of_path path in
    Pibe_trace.Trace.write_file ~path fmt events;
    Printf.eprintf "trace: wrote %d events to %s (%s)\n" (List.length events) path
      (Pibe_trace.Trace.format_to_string fmt));
  Printf.printf "\n[bench harness finished in %.1fs wall clock (%.1fs host CPU, %d jobs)]\n"
    (Pibe_trace.Trace.now_s () -. t0_wall)
    (Sys.time () -. t0_cpu)
    !jobs
