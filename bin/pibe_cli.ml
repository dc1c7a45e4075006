(* Command-line front end for the PIBE reproduction.

   Subcommands:
     kernel-stats   generate the synthetic kernel and print structure stats
     pipeline       run profile -> optimize -> harden and report the result
     experiment     regenerate one paper table/figure (or list them)
     attack         run the transient-attack drills against one image
     online         simulate the continuous-profiling deployment loop
     fleet          simulate N instances with sharded aggregation + canary rollout
     passes         list the registered pipeline passes and their options
     dump-ir        print a generated function (or the whole program)

   pipeline / experiment / online / fleet accept --trace FILE to capture
   a structured trace of the run (spans per pass / window / measured op,
   counters for IR deltas and engine events).  The sink follows FILE's
   extension (Trace.format_of_path): .json is Chrome trace_event JSON
   (loads in chrome://tracing or Perfetto), .csv is CSV, anything else
   indented text.  The trace spans are the only host time the CLI
   reports; everything printed on stdout is simulated.

   Subcommands that execute simulated code accept --engine
   compiled|interp to pick the execution backend (bit-exact; compiled is
   the default and faster; attack drills always run on interp). *)

open Cmdliner

let scale_arg =
  let doc = "Kernel scale factor (1 = small, 3 = benchmark size)." in
  Arg.(value & opt int 2 & info [ "scale" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Generator seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let defenses_arg =
  let doc =
    "Defense set: none, or a '+'-joined list of retpolines (retp), ret-retpolines \
     (retret), lvi-cfi (lvi), fineibt, pac-ret (pac), coarse-cfi (coarse) and \
     all-defenses (all, the first three together), e.g. 'lvi-cfi+fineibt'.  Every \
     set name the tools print is accepted."
  in
  Arg.(value & opt string "all" & info [ "defenses" ] ~docv:"SET" ~doc)

let budget_arg =
  let doc = "Optimization budget (percent of cumulative profile weight)." in
  Arg.(value & opt float 99.999 & info [ "budget" ] ~docv:"PCT" ~doc)

let passes_arg =
  let doc =
    "Run this textual pipeline spec instead of the built-in configuration, \
     e.g. 'icp(budget=99.999),inline(budget=99.9,lax),cleanup,retpoline'. \
     See 'experiment list' and the README for the registered passes."
  in
  Arg.(value & opt (some string) None & info [ "passes" ] ~docv:"SPEC" ~doc)

let verify_arg =
  let doc = "Run the IR validator between every pass." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let engine_arg =
  let doc =
    "Execution backend: 'compiled' (closure-threaded; the default) or \
     'interp' (the reference tree-walking interpreter).  The two are \
     bit-exact — identical cycles, counters and traces — so this only \
     changes wall-clock speed.  Attack drills always run on the \
     interpreter, whichever backend is chosen."
  in
  Arg.(value & opt string "compiled" & info [ "engine" ] ~docv:"BACKEND" ~doc)

(* Resolve --engine and point the process-wide default at it before any
   engine is created (worker domains inherit it). *)
let with_engine name k =
  match Pibe_cpu.Engine.backend_of_string name with
  | Some b ->
    Pibe_cpu.Engine.set_default_backend b;
    k ()
  | None ->
    Printf.eprintf "unknown engine %S (expected 'compiled' or 'interp')\n" name;
    1

let trace_arg =
  let doc =
    "Collect a structured trace (spans, counters, gauges) of the run and \
     write it to $(docv).  The extension picks the sink: .json is Chrome \
     trace_event JSON (chrome://tracing / Perfetto), .csv is CSV, anything \
     else indented text."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [k] under the global trace collector and write the sink file.  The
   status line goes to stderr so stdout stays byte-identical with and
   without --trace. *)
let with_trace trace_path k =
  match trace_path with
  | None -> k ()
  | Some path ->
    Pibe_trace.Trace.start ();
    let code =
      try k ()
      with e ->
        ignore (Pibe_trace.Trace.stop ());
        raise e
    in
    let events = Pibe_trace.Trace.stop () in
    let fmt = Pibe_trace.Trace.format_of_path path in
    Pibe_trace.Trace.write_file ~path fmt events;
    Printf.eprintf "trace: wrote %d events to %s (%s)\n" (List.length events) path
      (Pibe_trace.Trace.format_to_string fmt);
    code

let gen ~seed ~scale = Pibe_kernel.Gen.generate { Pibe_kernel.Ctx.seed; scale }

(* ------------------------------------------------------------------ *)

let kernel_stats seed scale =
  let info = gen ~seed ~scale in
  let prog = info.Pibe_kernel.Gen.prog in
  let layout = Pibe_ir.Layout.build prog in
  Printf.printf "functions:            %d\n" (Pibe_ir.Program.func_count prog);
  Printf.printf "indirect call sites:  %d\n" (Pibe_ir.Program.total_icall_sites prog);
  Printf.printf "return sites:         %d\n" (Pibe_ir.Program.total_ret_sites prog);
  Printf.printf "fptr table entries:   %d\n"
    (Array.length prog.Pibe_ir.Program.fptr_table);
  Printf.printf "code bytes:           %d\n" (Pibe_ir.Layout.total_code_bytes layout);
  Printf.printf "syscalls:             %d\n"
    (List.length info.Pibe_kernel.Gen.syscalls.Pibe_kernel.Syscalls.nrs);
  Printf.printf "globals cells:        %d\n" prog.Pibe_ir.Program.globals_size;
  let v1 = Pibe_harden.V1_scan.scan prog in
  Printf.printf "spectre-v1 gadgets:   %d (of %d conditional branches)\n"
    (List.length v1.Pibe_harden.V1_scan.gadgets)
    v1.Pibe_harden.V1_scan.conditional_branches;
  0

let print_image_summary image =
  let report = Pibe_harden.Audit.run image in
  Printf.printf "audit:  %d defended icalls, %d vulnerable (asm %d), %d ijumps left\n"
    report.Pibe_harden.Audit.defended_icalls report.Pibe_harden.Audit.vulnerable_icalls
    report.Pibe_harden.Audit.asm_icalls report.Pibe_harden.Audit.vulnerable_ijumps;
  Printf.printf "image:  %d bytes\n" (Pibe_harden.Pass.image_bytes image)

(* Run a hand-written pipeline spec under the pass manager and print the
   per-pass instrumentation. *)
let pipeline_spec ~seed ~scale ~verify text =
  match Pibe_pm.Spec.of_string text with
  | Error e ->
    Printf.eprintf "invalid pipeline spec: %s\n" e;
    1
  | Ok spec -> (
    let info = gen ~seed ~scale in
    let env = Pibe.Env.create ~scale ~seed () in
    let profile = Pibe.Env.lmbench_profile env in
    match Pibe.Pipeline.run_spec ~verify info.Pibe_kernel.Gen.prog profile spec with
    | Error e ->
      Printf.eprintf "invalid pipeline spec: %s\n" e;
      1
    | Ok result ->
      Printf.printf "spec:   %s%s\n"
        (Pibe_pm.Spec.to_string spec)
        (if verify then "  (validating between passes)" else "");
      Pibe_util.Tbl.print (Pibe_pm.Manager.table result.Pibe_pm.Manager.passes);
      List.iter
        (fun (s : Pibe_pm.Manager.pass_stats) ->
          List.iter
            (fun line -> Printf.printf "  %s: %s\n" s.Pibe_pm.Manager.pass line)
            (Pibe_pm.Manager.detail_lines s))
        result.Pibe_pm.Manager.passes;
      print_image_summary result.Pibe_pm.Manager.image;
      0)

let pipeline seed scale defenses budget passes verify engine trace =
  with_engine engine @@ fun () ->
  with_trace trace @@ fun () ->
  match passes with
  | Some text -> pipeline_spec ~seed ~scale ~verify text
  | None -> (
  match Pibe_harden.Pass.defenses_of_string defenses with
  | Error e ->
    prerr_endline e;
    1
  | Ok d ->
    let info = gen ~seed ~scale in
    let env = Pibe.Env.create ~scale ~seed () in
    let profile = Pibe.Env.lmbench_profile env in
    let config =
      {
        Pibe.Config.defenses = d;
        opt = Pibe.Config.Full { icp_budget = budget; inline_budget = budget; lax = false };
      }
    in
    let built = Pibe.Pipeline.build ~verify info.Pibe_kernel.Gen.prog profile config in
    (match built.Pibe.Pipeline.icp_stats with
    | Some s ->
      Printf.printf "icp:    %d sites, %d targets promoted (%d of %d weight)\n"
        s.Pibe_opt.Icp.promoted_sites s.Pibe_opt.Icp.promoted_targets
        s.Pibe_opt.Icp.promoted_weight s.Pibe_opt.Icp.total_weight
    | None -> ());
    (match built.Pibe.Pipeline.inline_stats with
    | Some s ->
      Printf.printf "inline: %d sites (%d of %d weight elided)\n"
        s.Pibe_opt.Inliner.inlined_sites s.Pibe_opt.Inliner.inlined_weight
        s.Pibe_opt.Inliner.total_weight
    | None -> ());
    print_image_summary built.Pibe.Pipeline.image;
    let geo = Pibe.Env.geomean_overhead env ~baseline:Pibe.Config.lto config in
    Printf.printf "lmbench geomean overhead vs LTO: %+.1f%%\n" geo;
    0)

let experiment name seed scale quick jobs engine trace =
  with_engine engine @@ fun () ->
  with_trace trace @@ fun () ->
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs in
  let env =
    if quick then Pibe.Env.quick ~jobs ()
    else Pibe.Env.create ~scale ~seed ~jobs ()
  in
  if String.equal name "list" then begin
    List.iter
      (fun (e : Pibe.Experiments.t) ->
        Printf.printf "%-12s %-12s %s\n" e.Pibe.Experiments.id e.Pibe.Experiments.paper_ref
          e.Pibe.Experiments.description)
      Pibe.Experiments.all;
    0
  end
  else
    match Pibe.Experiments.find name with
    | None ->
      Printf.eprintf "unknown experiment %S (try 'list')\n" name;
      1
    | Some e ->
      List.iter Pibe_util.Tbl.print (e.Pibe.Experiments.run env);
      0

let attack seed scale defenses engine =
  with_engine engine @@ fun () ->
  match Pibe_harden.Pass.defenses_of_string defenses with
  | Error e ->
    prerr_endline e;
    1
  | Ok d ->
    let env = Pibe.Env.create ~scale ~seed () in
    let info = Pibe.Env.info env in
    let built = Pibe.Env.build env (Pibe.Exp_common.lto_with d) in
    let spec = Pibe_cpu.Speculation.create () in
    let config =
      {
        (Pibe_harden.Pass.engine_config built.Pibe.Pipeline.image) with
        Pibe_cpu.Engine.speculation = Some spec;
      }
    in
    let engine =
      Pibe_cpu.Engine.create ~config built.Pibe.Pipeline.image.Pibe_harden.Pass.prog
    in
    let outcomes =
      Pibe_cpu.Attack.run_all engine ~victim_site:info.Pibe_kernel.Gen.victim_icall_site
        ~poisoned_addr:info.Pibe_kernel.Gen.victim_ops_addr
        ~gadget_fptr:info.Pibe_kernel.Gen.gadget_fptr ~gadget:info.Pibe_kernel.Gen.gadget
        ~valid_gadget:info.Pibe_kernel.Gen.valid_gadget ~entry:info.Pibe_kernel.Gen.entry
        ~args:[ Pibe_kernel.Gen.nr info "read"; 0; 5 ]
    in
    List.iter
      (fun (mechanism, (o : Pibe_cpu.Attack.outcome)) ->
        Printf.printf "%-12s %s (%d attacker-visible transient entries)\n" mechanism
          (if o.Pibe_cpu.Attack.gadget_reached then "GADGET REACHED" else "blocked")
          (List.length o.Pibe_cpu.Attack.transient_entries))
      outcomes;
    0

let report seed scale quick out =
  let env = if quick then Pibe.Env.quick () else Pibe.Env.create ~scale ~seed () in
  Pibe.Report.write_file env ~path:out;
  Printf.printf "wrote %s\n" out;
  0

(* The paper's two-phase flow with on-disk artifacts: profile writes the
   lifted profile as text; optimize reads it back, transforms the kernel
   and writes the optimized image as textual IR; both round-trip through
   the parsers. *)
let profile_cmd_impl seed scale iters out =
  let info = gen ~seed ~scale in
  let profile =
    Pibe.Pipeline.profile info.Pibe_kernel.Gen.prog ~run:(fun engine ->
        let rng = Pibe_util.Rng.create 11 in
        List.iter
          (fun (op : Pibe_kernel.Workload.op) ->
            for _ = 1 to iters do
              op.Pibe_kernel.Workload.run engine rng
            done)
          (Pibe_kernel.Workload.lmbench info))
  in
  let oc = open_out out in
  output_string oc (Pibe_profile.Profile.to_string profile);
  close_out oc;
  Printf.printf "wrote %s (%d direct + %d indirect weight)\n" out
    (Pibe_profile.Profile.total_direct_weight profile)
    (Pibe_profile.Profile.total_indirect_weight profile);
  0

let optimize_cmd_impl seed scale defenses budget profile_path out =
  match Pibe_harden.Pass.defenses_of_string defenses with
  | Error e ->
    prerr_endline e;
    1
  | Ok d ->
    match
      Pibe_profile.Profile.of_string (In_channel.with_open_text profile_path In_channel.input_all)
    with
    | exception Sys_error e ->
      prerr_endline e;
      1
    | exception Pibe_ir.Parser.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" profile_path line message;
      1
    | profile ->
      let info = gen ~seed ~scale in
      let config =
        {
          Pibe.Config.defenses = d;
          opt = Pibe.Config.Full { icp_budget = budget; inline_budget = budget; lax = true };
        }
      in
      let built = Pibe.Pipeline.build info.Pibe_kernel.Gen.prog profile config in
      let oc = open_out out in
      output_string oc
        (Pibe_ir.Printer.program_to_string built.Pibe.Pipeline.image.Pibe_harden.Pass.prog);
      close_out oc;
      Printf.printf "wrote %s (%d functions, %d bytes of image)\n" out
        (Pibe_ir.Program.func_count built.Pibe.Pipeline.image.Pibe_harden.Pass.prog)
        (Pibe_harden.Pass.image_bytes built.Pibe.Pipeline.image);
      0

let perf seed scale defenses budget op_name topn engine =
  with_engine engine @@ fun () ->
  match Pibe_harden.Pass.defenses_of_string defenses with
  | Error e ->
    prerr_endline e;
    1
  | Ok d ->
    let env = Pibe.Env.create ~scale ~seed () in
    let info = Pibe.Env.info env in
    let op = Pibe_kernel.Workload.lmbench_op info op_name in
    let run engine =
      let rng = Pibe_util.Rng.create 7 in
      for _ = 1 to 300 do
        op.Pibe_kernel.Workload.run engine rng
      done
    in
    let show label config =
      let built = Pibe.Env.build env config in
      let p =
        Pibe.Perf.profile
          (Pibe_harden.Pass.engine_config built.Pibe.Pipeline.image)
          built.Pibe.Pipeline.image.Pibe_harden.Pass.prog ~run
      in
      Printf.printf "--- %s (%d total cycles) ---\n" label (Pibe.Perf.total_cycles p);
      Pibe_util.Tbl.print (Pibe.Perf.to_table ~n:topn p);
      Pibe_util.Tbl.print
        (Pibe_pm.Manager.table
           ~title:(Printf.sprintf "Build passes: %s" label)
           built.Pibe.Pipeline.pass_stats)
    in
    show "unoptimized" (Pibe.Exp_common.lto_with d);
    show "PIBE optimized"
      {
        Pibe.Config.defenses = d;
        opt = Pibe.Config.Full { icp_budget = budget; inline_budget = budget; lax = true };
      };
    0

let trace seed scale syscall a0 a1 engine =
  with_engine engine @@ fun () ->
  let info = gen ~seed ~scale in
  let depth = ref 0 in
  (* the hook names callees through the engine it runs in, set below *)
  let self = ref None in
  let config =
    {
      Pibe_cpu.Engine.default_config with
      Pibe_cpu.Engine.on_call =
        Some
          (fun ~site:_ ~callee ->
            incr depth;
            Printf.printf "%s-> %s\n" (String.make (2 * !depth) ' ')
              (Pibe_cpu.Engine.func_name (Option.get !self) callee));
      on_exit = Some (fun _ -> if !depth > 0 then decr depth);
    }
  in
  let engine = Pibe_cpu.Engine.create ~config info.Pibe_kernel.Gen.prog in
  self := Some engine;
  (match Pibe_kernel.Syscalls.nr info.Pibe_kernel.Gen.syscalls syscall with
  | nr ->
    Printf.printf "syscall_entry(%s=%d, %d, %d)\n" syscall nr a0 a1;
    let r = Pibe_cpu.Engine.call engine info.Pibe_kernel.Gen.entry [ nr; a0; a1 ] in
    Printf.printf "= %s  (%d cycles, %d instructions)\n"
      (match r with Some v -> string_of_int v | None -> "()")
      (Pibe_cpu.Engine.cycles engine)
      (Pibe_cpu.Engine.counters engine).Pibe_cpu.Engine.insts
  | exception Not_found -> Printf.eprintf "unknown syscall %s\n" syscall);
  0

let dump_ir seed scale func =
  let info = gen ~seed ~scale in
  let prog = info.Pibe_kernel.Gen.prog in
  (match func with
  | Some name -> (
    match Pibe_ir.Program.find_opt prog name with
    | Some f -> print_string (Pibe_ir.Printer.func_to_string f)
    | None -> Printf.eprintf "unknown function @%s\n" name)
  | None -> print_string (Pibe_ir.Printer.program_to_string prog));
  0

(* Simulate the continuous-profiling deployment loop: phased workload,
   drift detection, adaptive re-optimization with patch downtime. *)
let online seed scale quick jobs windows requests window decay threshold hysteresis
    max_reopts engine trace =
  with_engine engine @@ fun () ->
  with_trace trace @@ fun () ->
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs in
  let env =
    if quick then Pibe.Env.quick ~jobs () else Pibe.Env.create ~scale ~seed ~jobs ()
  in
  let defaults = Pibe.Exp_online.default_params ~quick in
  let base = defaults.Pibe.Exp_online.sim in
  let sim =
    {
      base with
      Pibe_online.Sim.requests_per_window =
        Option.value requests ~default:base.Pibe_online.Sim.requests_per_window;
      store_window = window;
      decay;
      drift_threshold = threshold;
      hysteresis;
      max_reopts;
    }
  in
  let params =
    {
      Pibe.Exp_online.windows_per_phase =
        Option.value windows ~default:defaults.Pibe.Exp_online.windows_per_phase;
      sim;
    }
  in
  if params.Pibe.Exp_online.windows_per_phase < 1 then begin
    prerr_endline "--windows must be at least 1";
    1
  end
  else
    match Pibe.Exp_online.run_with params env with
    | tables ->
      List.iter Pibe_util.Tbl.print tables;
      0
    | exception Invalid_argument msg ->
      prerr_endline msg;
      1

(* Simulate the fleet deployment: N instances with heterogeneous drifting
   mixes, sharded profile aggregation, staged canary rollout. *)
let fleet seed scale quick jobs instances windows requests window decay threshold
    hysteresis max_reopts canary tolerance engine trace =
  with_engine engine @@ fun () ->
  with_trace trace @@ fun () ->
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs in
  let env =
    if quick then Pibe.Env.quick ~jobs () else Pibe.Env.create ~scale ~seed ~jobs ()
  in
  let base = (Pibe.Exp_fleet.default_params ~quick).Pibe.Exp_fleet.fleet in
  let cfg =
    {
      base with
      Pibe_online.Fleet.instances =
        Option.value instances ~default:base.Pibe_online.Fleet.instances;
      windows = Option.value windows ~default:base.Pibe_online.Fleet.windows;
      requests_per_window =
        Option.value requests ~default:base.Pibe_online.Fleet.requests_per_window;
      store_window = window;
      decay;
      drift_threshold = threshold;
      hysteresis;
      max_reopts;
      canary_windows = canary;
      promote_tolerance_pct = tolerance;
    }
  in
  match Pibe.Exp_fleet.run_with { Pibe.Exp_fleet.fleet = cfg } env with
  | tables ->
    List.iter Pibe_util.Tbl.print tables;
    0
  | exception Invalid_argument msg ->
    prerr_endline msg;
    1

(* List every registered pipeline pass with its typed options and live
   defaults — the --help form of the spec grammar. *)
let passes_list () =
  print_endline "Pipeline spec grammar: pass[(opt[=value],...)] elements joined by ','.";
  print_endline "Registered passes (defaults read from the live pass configs):\n";
  List.iter
    (fun (i : Pibe_pm.Registry.pass_info) ->
      Printf.printf "  %-18s %s\n" i.Pibe_pm.Registry.info_name i.Pibe_pm.Registry.info_doc;
      List.iter
        (fun (o : Pibe_pm.Registry.opt_info) ->
          Printf.printf "      %-12s %-14s default %-22s %s\n" o.Pibe_pm.Registry.opt_key
            o.Pibe_pm.Registry.opt_type o.Pibe_pm.Registry.opt_default
            o.Pibe_pm.Registry.opt_doc)
        i.Pibe_pm.Registry.info_opts;
      if i.Pibe_pm.Registry.info_opts <> [] then
        Printf.printf "      e.g. %s\n" (Pibe_pm.Registry.sample_spec_text i))
    Pibe_pm.Registry.infos;
  0

(* ------------------------------------------------------------------ *)

let kernel_stats_cmd =
  Cmd.v
    (Cmd.info "kernel-stats" ~doc:"Generate the synthetic kernel and print structure stats")
    Term.(const kernel_stats $ seed_arg $ scale_arg)

let pipeline_cmd =
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Run the full profile/optimize/harden pipeline")
    Term.(
      const pipeline $ seed_arg $ scale_arg $ defenses_arg $ budget_arg $ passes_arg
      $ verify_arg $ engine_arg $ trace_arg)

let experiment_cmd =
  let id_arg =
    Arg.(value & pos 0 string "list" & info [] ~docv:"ID" ~doc:"Experiment id or 'list'.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small kernel / fast measurement settings.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Build/measure independent cells on up to $(docv) domains (1 = \
             sequential, 0 = one per core). Output is identical at any job \
             count.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one paper table/figure")
    Term.(
      const experiment $ id_arg $ seed_arg $ scale_arg $ quick_arg $ jobs_arg
      $ engine_arg $ trace_arg)

let attack_cmd =
  Cmd.v
    (Cmd.info "attack" ~doc:"Run the transient-attack drills against an image")
    Term.(const attack $ seed_arg $ scale_arg $ defenses_arg $ engine_arg)

let trace_cmd =
  let syscall =
    Arg.(value & pos 0 string "read" & info [] ~docv:"SYSCALL" ~doc:"Syscall name.")
  in
  let a0 = Arg.(value & opt int 0 & info [ "a0" ] ~docv:"N" ~doc:"First argument.") in
  let a1 = Arg.(value & opt int 64 & info [ "a1" ] ~docv:"N" ~doc:"Second argument.") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the call tree of one syscall")
    Term.(
      const trace $ seed_arg $ scale_arg $ syscall $ a0 $ a1 $ engine_arg)

let perf_cmd =
  let op =
    Arg.(value & opt string "read" & info [ "op" ] ~docv:"NAME" ~doc:"LMBench op to profile.")
  in
  let topn =
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"N" ~doc:"Rows to print.")
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Flat cycle profile of one workload, before/after PIBE")
    Term.(
      const perf $ seed_arg $ scale_arg $ defenses_arg $ budget_arg $ op $ topn
      $ engine_arg)

let report_cmd =
  let out =
    Arg.(value & opt string "reproduced.md" & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small kernel / fast measurement settings.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Write the artifact-style paper-vs-measured report")
    Term.(const report $ seed_arg $ scale_arg $ quick_arg $ out)

let profile_file_cmd =
  let iters =
    Arg.(value & opt int 300 & info [ "iters" ] ~docv:"N" ~doc:"Profiling iterations per op.")
  in
  let out =
    Arg.(value & opt string "profile.txt" & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Phase 1: run the profiling image, write the lifted profile")
    Term.(const profile_cmd_impl $ seed_arg $ scale_arg $ iters $ out)

let optimize_file_cmd =
  let profile_path =
    Arg.(
      value
      & opt string "profile.txt"
      & info [ "profile" ] ~docv:"FILE" ~doc:"Lifted profile from the profile subcommand.")
  in
  let out =
    Arg.(value & opt string "image.ir" & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Phase 2: read a profile, optimize + harden, write the image as textual IR")
    Term.(const optimize_cmd_impl $ seed_arg $ scale_arg $ defenses_arg $ budget_arg
          $ profile_path $ out)

let online_cmd =
  let d = Pibe_online.Sim.default_config in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small kernel / fast measurement settings.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Measure the static/adaptive variants on up to $(docv) domains (1 = \
             sequential, 0 = one per core). Output is identical at any job count.")
  in
  let windows_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "windows" ] ~docv:"N"
          ~doc:"Profiling windows per workload phase (default 6).")
  in
  let requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests replayed per window (default 150; 60 with --quick).")
  in
  let window_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Sim.store_window
      & info [ "window" ] ~docv:"N" ~doc:"Profile-store ring size (snapshots kept).")
  in
  let decay_arg =
    Arg.(
      value
      & opt float d.Pibe_online.Sim.decay
      & info [ "decay" ] ~docv:"F"
          ~doc:"Per-window exponential decay of older snapshots, in (0, 1].")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float d.Pibe_online.Sim.drift_threshold
      & info [ "threshold" ] ~docv:"F" ~doc:"Drift distance above which a window is suspect.")
  in
  let hysteresis_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Sim.hysteresis
      & info [ "hysteresis" ] ~docv:"N"
          ~doc:"Consecutive suspect windows before a re-optimization fires.")
  in
  let max_reopts_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Sim.max_reopts
      & info [ "max-reopts" ] ~docv:"N" ~doc:"Re-optimization budget for the whole run.")
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Simulate the continuous-profiling deployment loop (drift detection, adaptive \
          re-optimization)")
    Term.(
      const online $ seed_arg $ scale_arg $ quick_arg $ jobs_arg $ windows_arg
      $ requests_arg $ window_arg $ decay_arg $ threshold_arg $ hysteresis_arg
      $ max_reopts_arg $ engine_arg $ trace_arg)

let fleet_cmd =
  let d = Pibe_online.Fleet.default_config in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small kernel / fast measurement settings.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Replay instance-windows on up to $(docv) domains (1 = sequential, \
             0 = one per core). Output is byte-identical at any job count.")
  in
  let instances_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "instances" ] ~docv:"N"
          ~doc:"Fleet size; instance 0 is the canary (default 16; 6 with --quick).")
  in
  let windows_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "windows" ] ~docv:"N"
          ~doc:"Fleet windows simulated (default 9; 6 with --quick).")
  in
  let requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests per instance per window (default 60; 30 with --quick).")
  in
  let window_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Fleet.store_window
      & info [ "window" ] ~docv:"N" ~doc:"Per-instance shard ring size (snapshots kept).")
  in
  let decay_arg =
    Arg.(
      value
      & opt float d.Pibe_online.Fleet.decay
      & info [ "decay" ] ~docv:"F"
          ~doc:"Per-window exponential decay of older snapshots, in (0, 1].")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float d.Pibe_online.Fleet.drift_threshold
      & info [ "threshold" ] ~docv:"F"
          ~doc:"Drift distance (on the fleet aggregate) above which a window is suspect.")
  in
  let hysteresis_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Fleet.hysteresis
      & info [ "hysteresis" ] ~docv:"N"
          ~doc:"Consecutive suspect windows before a canary rollout fires.")
  in
  let max_reopts_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Fleet.max_reopts
      & info [ "max-reopts" ] ~docv:"N"
          ~doc:"Shared re-optimization budget for the whole fleet.")
  in
  let canary_arg =
    Arg.(
      value
      & opt int d.Pibe_online.Fleet.canary_windows
      & info [ "canary-windows" ] ~docv:"N"
          ~doc:
            "Evaluation windows on the canary instance before the promote/reject \
             decision (0 = promote fleet-wide immediately).")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt float d.Pibe_online.Fleet.promote_tolerance_pct
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Promote only if the canary's cycles are within $(docv)%% of its \
             old-image counterfactual (negative forces rejection).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate fleet-scale online optimization (N instances, sharded profile \
          aggregation, staged canary rollout)")
    Term.(
      const fleet $ seed_arg $ scale_arg $ quick_arg $ jobs_arg $ instances_arg
      $ windows_arg $ requests_arg $ window_arg $ decay_arg $ threshold_arg
      $ hysteresis_arg $ max_reopts_arg $ canary_arg $ tolerance_arg $ engine_arg
      $ trace_arg)

let passes_cmd =
  Cmd.v
    (Cmd.info "passes" ~doc:"List the registered pipeline passes, options and defaults")
    Term.(const passes_list $ const ())

let dump_ir_cmd =
  let func =
    Arg.(
      value
      & opt (some string) None
      & info [ "func" ] ~docv:"NAME" ~doc:"Print just this function.")
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Print generated IR")
    Term.(const dump_ir $ seed_arg $ scale_arg $ func)

let () =
  let info = Cmd.info "pibe" ~doc:"PIBE (ASPLOS'21) reproduction toolkit" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            kernel_stats_cmd;
            pipeline_cmd;
            experiment_cmd;
            attack_cmd;
            online_cmd;
            fleet_cmd;
            passes_cmd;
            dump_ir_cmd;
            trace_cmd;
            perf_cmd;
            report_cmd;
            profile_file_cmd;
            optimize_file_cmd;
          ]))
