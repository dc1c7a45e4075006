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
     bench/main.exe --engine NAME   execution backend: compiled (default)
                                    or interp; bit-exact, so output is
                                    identical either way
     bench/main.exe --trace FILE    collect a structured trace of the whole
                                    run (spans per pass / window / measured
                                    op); the sink is picked by extension
                                    (Trace.format_of_path): .json -> Chrome
                                    trace_event (load in chrome://tracing
                                    or Perfetto), .csv -> CSV, anything
                                    else -> text

   Every number printed is simulated, so stdout is a pure function of
   the arguments: the same at any --jobs and on either engine, and
   pinned by test/golden/bench.t.  Host time is measured only by the
   trace spans (--trace) and by the repository benchmark
   (benchmark/run.py). *)

let quick = ref false
let jobs = ref 1
let engine = ref Pibe_cpu.Engine.Compiled
let trace_out : string option ref = ref None
let selected : string list ref = ref []

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
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
  end;
  match !trace_out with
  | None -> ()
  | Some path ->
    let events = Pibe_trace.Trace.stop () in
    let fmt = Pibe_trace.Trace.format_of_path path in
    Pibe_trace.Trace.write_file ~path fmt events;
    Printf.eprintf "trace: wrote %d events to %s (%s)\n" (List.length events) path
      (Pibe_trace.Trace.format_to_string fmt)
