(* The repository benchmark: three single-domain workloads that load the
   PIBE layers in different proportions, each timed from outside by the
   calls it makes into the layers' public functions.

     pibebench.exe --workload build-matrix|measure-suite|adapt-loop
                   [--seed N] [--seconds S] [--trace 0|1]
     pibebench.exe --self-test

   It sets no engine knob: it measures the library's defaults.

   A run repeats one {e pass} until [--seconds] is used up.  A pass is
   the workload's set-up followed by its timed phase, run in a process
   of its own on freshly generated inputs, so it does exactly the work
   of the first (see [in_child]).  The output checks run outside both
   timed regions.

   Timing statistic.  The host is a 2-vCPU VM with no PMU.  CPU time
   equals wall time there (no steal is reported), a pass's time moves by
   about 10% from pass to pass, and the host switches between speed
   regimes about 2x apart that last ten minutes or more.  In the slower
   regime a pass's time is almost all user time (system time under
   0.15 s, 18-26k minor faults, no voluntary context switches), so the
   loss is in how fast user code runs, which the guest cannot see.  A
   run therefore does two things.  It cycles through four kernels drawn
   from its seed and takes, for [setup_s], [wall_s] and [peak_rss_mb],
   the mean over kernels of the median over that kernel's passes: the
   medians ride out the pass-to-pass noise, and averaging four kernels
   cuts the spread that one kernel's optimization decisions add.  And
   before every pass it times a fixed host-speed reference of the same
   kind of work (see [reference_work]), and scales [setup_s] and
   [wall_s] by [reference_nominal_s] over the run's mean reference time,
   so that they read as seconds at one fixed host speed.  When a
   spinning process shared the benchmark's CPU, raw timed phases took
   1.7 to 2.2 times as long, while the scaled [wall_s] stayed within 8%
   (the short [setup_s] within 26%) of unshared runs on the same seeds;
   and in short natural spells when the reference ran about 20% faster,
   passes ran 13-20% faster.  Each pass prints its raw times, the
   reference time and its CPU, fault and context-switch counts.
   [alloc_mw] and every simulated quantity are pure functions of the
   seed (allocation is counted exactly at one domain).

   [--trace 1] runs kernel 0 only and alternates untraced and traced
   passes.  The traced passes record spans around every call into a
   layer, aggregate them with the library's own pm/pass/engine/measure/
   online spans into inclusive and self time per name, and print the
   per-layer ledger; [trace.overhead_pct] compares the traced and
   untraced timed phases of the same run. *)

module Engine = Pibe_cpu.Engine
module Attack = Pibe_cpu.Attack
module Icache = Pibe_cpu.Icache
module Trace = Pibe_trace.Trace
module Gen = Pibe_kernel.Gen
module Workload = Pibe_kernel.Workload
module Profile = Pibe_profile.Profile
module Pass = Pibe_harden.Pass
module Audit = Pibe_harden.Audit
module Manager = Pibe_pm.Manager
module Program = Pibe_ir.Program
module Validate = Pibe_ir.Validate
module Sim = Pibe_online.Sim
module Rng = Pibe_util.Rng
module Stats = Pibe_util.Stats
module Pipeline = Pibe.Pipeline
module Measure = Pibe.Measure
module Config = Pibe.Config
module Exp_common = Pibe.Exp_common

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* Every seed the workloads use derives from the one [--seed].  A run
   draws [kernels_per_run] input sets; set [k] uses the seed
   [seed + 7919 k], and each of its four seeds is the library default
   XORed with [that seed lxor 42].  So set 0 of seed 42 is exactly the
   defaults behind the paper tables (kernel 42, training 11, Measure 7,
   Sim 23), and any other seed moves all four together. *)
type seeds = {
  kernel : int;
  training : int;
  measure : int;
  sim : int;
}

let seeds_of seed k =
  let s = seed + (7919 * k) in
  let derive default = default lxor s lxor 42 in
  { kernel = derive 42; training = derive 11; measure = derive 7; sim = derive 23 }

(* The optimization decisions, and with them a pass's work, differ from
   kernel to kernel: at the same function count (within 1%), build-matrix
   allocation ranged over 15% across ten seeds, and a kernel's timed
   phase over about 7%.  Cycling a run through four kernels and averaging
   their figures halves that spread between runs. *)
let kernels_per_run = 4

(* build-matrix's optimization levels and defense sets: every defense
   set shares each optimization prefix, as in paper tables 5-7. *)
let levels =
  [
    Config.No_opt;
    Config.Icp_only { budget = 99.999 };
    Config.Full { icp_budget = 99.999; inline_budget = 99.9; lax = false };
    Config.Full { icp_budget = 99.999; inline_budget = 99.9999; lax = true };
  ]

let defense_sets =
  [
    Pass.no_defenses;
    Exp_common.retpolines_only;
    Exp_common.ret_retpolines_only;
    Exp_common.lvi_only;
    Exp_common.all_defenses;
    Exp_common.fineibt_pac;
  ]

let matrix levels defense_sets =
  List.concat_map
    (fun opt -> List.map (fun defenses -> { Config.defenses; opt }) defense_sets)
    levels

(* [full] is the benchmark proper; [small] is the self-test's size. *)
type size = {
  scale : int;
  profile_iters : int;
  settings : Measure.settings;
  sim : Sim.config;
  windows_per_phase : int;
  matrix : Config.t list;  (** build-matrix's images *)
}

let full (s : seeds) =
  {
    scale = 3;
    profile_iters = 300;
    settings = { Measure.default_settings with Measure.rng_seed = s.measure };
    sim = { Sim.default_config with Sim.seed = s.sim };
    windows_per_phase = 6;
    matrix = matrix levels defense_sets;
  }

let small (s : seeds) =
  {
    scale = 1;
    profile_iters = 30;
    settings = { Measure.quick_settings with Measure.rng_seed = s.measure };
    sim = { Sim.default_config with Sim.seed = s.sim; requests_per_window = 30 };
    windows_per_phase = 2;
    matrix =
      matrix
        [ List.hd levels; List.nth levels 3 ]
        [ Pass.no_defenses; Exp_common.all_defenses; Exp_common.fineibt_pac ];
  }

(* ------------------------------------------------------------------ *)
(* Host-side meters *)

(* Words allocated: every block allocated on the minor heap, plus the
   blocks of more than 256 words that go straight to the major heap
   (major words less promoted words: promotion moves a block and is not
   counted again).  Exact at one domain.  The minor part comes from
   Gc.minor_words, which counts the minor heap's current fill; OCaml
   5.1's Gc.counters leaves that fill out of its minor figure, which
   then moves with the GC's schedule by up to a minor heap's size. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let read_file path = In_channel.with_open_text path In_channel.input_all

(* The number after [key] on its line of /proc/self/status. *)
let status_field status key =
  let field l =
    match String.split_on_char ':' l with
    | [ k; v ] when k = key -> Some (Scanf.sscanf v " %d" Fun.id)
    | _ -> None
  in
  match List.find_map field (String.split_on_char '\n' status) with
  | Some n -> n
  | None -> failwith ("pibebench: no " ^ key ^ " line in /proc/self/status")

(* Resident-set high-water mark of this process, from the kernel's
   accounting. *)
let peak_rss_mb () = float_of_int (status_field (read_file "/proc/self/status") "VmHWM") /. 1024.0

(* What this process has used so far, as the kernel accounts it: CPU
   seconds in user and in kernel mode, minor page faults, and voluntary
   and involuntary context switches.  Each pass prints the difference
   over its set-up and timed phase, so a change in host speed can be
   told apart from one in paging or scheduling. *)
type usage = {
  user_s : float;
  sys_s : float;
  minflt : int;
  vcsw : int;
  ivcsw : int;
}

let usage () =
  let t = Unix.times () in
  let stat = read_file "/proc/self/stat" in
  (* proc(5): fields 3 onwards follow the parenthesised command name, and
     minflt is field 10 *)
  let from = String.rindex stat ')' + 2 in
  let fields = String.split_on_char ' ' (String.sub stat from (String.length stat - from)) in
  let minflt = int_of_string (List.nth fields 7) in
  let status = read_file "/proc/self/status" in
  {
    user_s = t.Unix.tms_utime;
    sys_s = t.Unix.tms_stime;
    minflt;
    vcsw = status_field status "voluntary_ctxt_switches";
    ivcsw = status_field status "nonvoluntary_ctxt_switches";
  }

let usage_diff a b =
  {
    user_s = b.user_s -. a.user_s;
    sys_s = b.sys_s -. a.sys_s;
    minflt = b.minflt - a.minflt;
    vcsw = b.vcsw - a.vcsw;
    ivcsw = b.ivcsw - a.ivcsw;
  }

let show_usage u =
  Printf.sprintf "user %.3f sys %.3f minflt %d csw %d/%d" u.user_s u.sys_s u.minflt u.vcsw u.ivcsw

(* Runs [f] in a forked child process and returns its result, or the
   exception it raised as a message.  Every pass runs this way, so each
   starts from an empty compile cache, a fresh heap and its own
   resident-set high-water mark: it does exactly the work of the first
   pass (no identity-keyed cache can carry lowering or build work over),
   and neither memory nor GC work creeps from pass to pass.  The child
   first empties both heaps, so that GC work and the allocation count do
   not depend on what the parent left in them. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    Gc.full_major ();
    let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      match (Marshal.from_channel ic : ('a, string) result) with
      | r -> r
      | exception (End_of_file | Failure _) -> Error "the pass's process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    r

let span name f = Trace.span ~cat:"bench" name f

(* [f ()] and the words it allocated. *)
let metered f =
  let a0 = allocated_words () in
  let v = f () in
  (v, allocated_words () -. a0)

(* ------------------------------------------------------------------ *)
(* Host-speed reference *)

type ref_inst = {
  op : int;
  dst : int;
  src : int;
}

(* A fixed computation of the same kind as a pass, owned by the
   benchmark so that no change to the library moves it: a synthetic
   program of 600 functions of 250 instruction records is rewritten 12
   times by a pass that expands, drops and updates instructions while
   reading and writing a table of per-instruction facts, and the
   previous version stays live, as the pass manager's snapshots do.  It
   allocates small blocks, promotes them and peaks at about 70 MB
   resident (a pass peaks at 75-105 MB), so its speed depends on the
   host's CPU, caches, memory and page faults much as a pass's does. *)
let reference_work () =
  let funcs = 600 and insts = 250 in
  let rng = Random.State.make [| 1 |] in
  let prog =
    Array.init funcs (fun f ->
        List.init insts (fun i -> { op = (f + i) land 15; dst = i; src = f }))
  in
  let facts = Hashtbl.create 4096 in
  let previous = ref [||] in
  for round = 1 to 12 do
    previous := Array.copy prog;
    Array.iteri
      (fun f body ->
        prog.(f) <-
          List.concat_map
            (fun x ->
              let key = (f * insts) + (x.dst mod insts) in
              let seen = Option.value ~default:0 (Hashtbl.find_opt facts key) in
              Hashtbl.replace facts key (seen + x.op);
              if x.op = round land 15 then [ { x with op = 0 }; { x with dst = x.dst + 1 } ]
              else if x.op = 15 && Random.State.bool rng then []
              else [ { x with src = x.src + seen } ])
            body)
      prog
  done;
  ignore (Sys.opaque_identity (prog, !previous))

(* Seconds the reference takes, in a process of its own like a pass. *)
let reference_s () =
  match
    in_child (fun () ->
        let t0 = now () in
        reference_work ();
        now () -. t0)
  with
  | Ok t -> t
  | Error e -> failwith ("pibebench: the host-speed reference raised: " ^ e)

(* The host speed the benchmark's times are given at: the one at which
   the reference takes this long.  A round figure just under what it
   took on the 2-vCPU Sapphire Rapids VM the bounds were set on (1.1 to
   1.3 s in that host's slower regime).  Each run scales its set-up and
   timed-phase times by this over the mean of the references it
   interleaves with its passes: a reference moves by about 10% from one
   to the next, and over a run's eight or so the mean is the steadier
   estimate. *)
let reference_nominal_s = 1.0

(* ------------------------------------------------------------------ *)
(* One pass *)

(* What a pass hands back.  [layer] holds the per-layer quantities the
   benchmark measures directly (counts, simulated events, allocation);
   span times are added from the trace when the pass was traced. *)
type pass = {
  setup_s : float;
  wall_s : float;
  alloc_words : float;  (** words allocated in the timed phase *)
  rss_mb : float;  (** the process's peak resident set after the timed phase *)
  used : usage;  (** over the set-up and the timed phase *)
  digest : float list;  (** every exact output; equal on every pass *)
  attempted : int;
  failed : int;
  layer : (string * float) list;
  events : Trace.event list;  (** empty unless traced *)
}

type base = {
  info : Gen.info;
  ops : Workload.op list;
  profile : Profile.t;
}

let setup_base (size : size) (s : seeds) =
  let info =
    span "bench:gen" (fun () ->
        Gen.generate { Pibe_kernel.Ctx.seed = s.kernel; scale = size.scale })
  in
  let ops = Workload.lmbench info in
  let profile =
    span "bench:profile" (fun () ->
        Pipeline.profile info.Gen.prog ~run:(fun engine ->
            let rng = Rng.create s.training in
            List.iter
              (fun (op : Workload.op) ->
                for _ = 1 to size.profile_iters do
                  op.Workload.run engine rng
                done)
              ops))
  in
  { info; ops; profile }

let base_layer b =
  [
    ("kernel.funcs", float_of_int (Program.func_count b.info.Gen.prog));
    ("profile.sites", float_of_int (List.length (Profile.profiled_indirect_origins b.profile)));
    ("kernel.insts", float_of_int (Manager.snapshot b.info.Gen.prog).Manager.insts);
  ]

(* Runs set-up then the timed phase.  Allocation, compile-cache and GC
   meters cover the timed phase only; CPU, fault and context-switch
   usage covers both.  [timed] returns whatever [check] needs. *)
let timed_pass ~traced ~setup ~timed ~check =
  if traced then Trace.start ();
  let u0 = usage () in
  let t0 = now () in
  let env = span "bench:setup" setup in
  let t1 = now () in
  let hits0, misses0 = Engine.compile_cache_stats () in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let out, alloc_words = metered (fun () -> span "bench:timed" (fun () -> timed env)) in
  let t2 = now () in
  let used = usage_diff u0 (usage ()) in
  let rss_mb = peak_rss_mb () in
  let hits1, misses1 = Engine.compile_cache_stats () in
  let gc1 = (Gc.quick_stat ()).Gc.major_collections in
  let events = if traced then Trace.stop () else [] in
  let digest, attempted, failed, layer = check env out in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    alloc_words;
    rss_mb;
    used;
    digest;
    attempted;
    failed;
    layer =
      layer
      @ [
          ("engine.cache_hits", float_of_int (hits1 - hits0));
          ("engine.cache_misses", float_of_int (misses1 - misses0));
          ("gc.major", float_of_int (gc1 - gc0));
          ("gc.top_heap_mb", heap_mb ());
        ];
    events;
  }

(* ------------------------------------------------------------------ *)
(* build-matrix: the pass pipeline alone.  The engine does no work in
   the timed phase, and the six defense sets share each optimization
   prefix, so a change that reuses work across builds shows here and
   nowhere else.  One operation is one build. *)

let build_ok (b : Pipeline.built) =
  Validate.check_program b.Pipeline.image.Pass.prog = []
  && Audit.fully_protected (Audit.run b.Pipeline.image)
       ~against:b.Pipeline.config.Config.defenses

let build_counts builds =
  let sum f = float_of_int (List.fold_left (fun acc b -> acc + f b) 0 builds) in
  [
    ( "ir.insts_out",
      sum (fun (b : Pipeline.built) ->
          match List.rev b.Pipeline.pass_stats with
          | last :: _ -> last.Manager.after.Manager.insts
          | [] -> 0) );
    ( "icp.promoted",
      sum (fun (b : Pipeline.built) ->
          match b.Pipeline.icp_stats with Some s -> s.Pibe_opt.Icp.promoted_sites | None -> 0) );
    ( "inline.inlined",
      sum (fun (b : Pipeline.built) ->
          match b.Pipeline.inline_stats with
          | Some s -> s.Pibe_opt.Inliner.inlined_sites
          | None -> 0) );
    ( "harden.sites",
      sum (fun (b : Pipeline.built) ->
          b.Pipeline.image.Pass.hardened_icall_sites + b.Pipeline.image.Pass.hardened_ret_sites) );
  ]

let build_matrix ~first ~traced size seeds =
  timed_pass ~traced
    ~setup:(fun () -> setup_base size seeds)
    ~timed:(fun base ->
      metered (fun () ->
          List.map
            (fun config ->
              span "bench:build" (fun () -> Pipeline.build base.info.Gen.prog base.profile config))
            size.matrix))
    ~check:(fun base (builds, pm_words) ->
      let ok = if first then List.filter build_ok builds else builds in
      let bytes =
        List.map
          (fun (b : Pipeline.built) -> float_of_int (Pass.image_bytes b.Pipeline.image))
          builds
      in
      let image_kb = List.fold_left ( +. ) 0.0 bytes /. 1024.0 in
      ( bytes,
        List.length builds,
        List.length builds - List.length ok,
        base_layer base
        @ build_counts builds
        @ [ ("image_kb", image_kb); ("pm.alloc_mw", pm_words /. 1e6) ] ))

(* ------------------------------------------------------------------ *)
(* measure-suite: the engine alone.  The images are built in the
   set-up, so the timed phase is engine creation and measurement only.
   One operation is one measured cell (image x op or mix), or one drill
   or interpreter cell of the checks. *)

(* The six images: both ends of the code-footprint range, and every
   protection cost path (thunks, CFI checks, PAC). *)
let suite_configs =
  [
    ("lto", Config.lto);
    ("lto+all", Exp_common.lto_with Exp_common.all_defenses);
    ("pibe+all", Exp_common.best_config Exp_common.all_defenses);
    ("pibe+retpolines", Exp_common.best_config Exp_common.retpolines_only);
    ("lto+fineibt-pac", Exp_common.lto_with Exp_common.fineibt_pac);
    ("pibe+fineibt-pac", Exp_common.best_config Exp_common.fineibt_pac);
  ]

type cell_run = {
  cells : float list;  (** 20 LMBench op latencies then the 3 mix costs *)
  ctrs : int list;  (** the engine's simulated event counts afterwards *)
}

let engine_events e =
  let c = Engine.counters e in
  [
    Engine.cycles e;
    c.Engine.insts;
    c.Engine.btb_misses;
    c.Engine.rsb_misses;
    c.Engine.pht_misses;
    Icache.miss_count (Engine.icache e);
  ]

let mixes info = [ Workload.nginx info; Workload.apache info; Workload.dbench info ]

let run_cells (size : size) base e =
  let ops = Measure.suite_latencies ~settings:size.settings e base.ops in
  let mixes =
    List.map (fun m -> Measure.mix_kernel_cycles ~settings:size.settings e m) (mixes base.info)
  in
  { cells = List.map snd ops @ mixes; ctrs = engine_events e }

(* The attack drills, in [Attack.run_all] order (spectre-v2,
   v2-valid-pad, ret2spec, pac-forgery, lvi), and the verdicts the
   drill x defense matrix in test/test_attack.ml pins for them: every
   drill lands on the undefended image, none on the fully defended one. *)
let drill_expectations = [ ("lto", true); ("lto+all", false) ]

let drill_failures base images =
  List.fold_left
    (fun (attempted, failed) (name, reached) ->
      let built = List.assoc name images in
      let info = base.info in
      let outcomes =
        Attack.run_all (Exp_common.drill_engine built) ~victim_site:info.Gen.victim_icall_site
          ~poisoned_addr:info.Gen.victim_ops_addr ~gadget_fptr:info.Gen.gadget_fptr
          ~gadget:info.Gen.gadget ~valid_gadget:info.Gen.valid_gadget ~entry:info.Gen.entry
          ~args:[ Gen.nr info "read"; 0; 5 ]
      in
      let wrong =
        List.filter (fun (_, (o : Attack.outcome)) -> o.Attack.gadget_reached <> reached) outcomes
      in
      (attempted + List.length outcomes, failed + List.length wrong))
    (0, 0) drill_expectations

(* Reruns a seeded choice of two images on the reference interpreter:
   every cell and every simulated count must match bit for bit.  Returns
   (cells compared, cells that differ). *)
let interp_failures size seeds base images runs =
  let rng = Rng.create seeds.measure in
  let n = List.length images in
  let first = Rng.int rng n in
  let second = (first + 1 + Rng.int rng (n - 1)) mod n in
  List.fold_left
    (fun (attempted, failed) i ->
      let _, (built : Pipeline.built) = List.nth images i in
      let e =
        Engine.create ~backend:Engine.Interp
          ~config:(Pass.engine_config built.Pipeline.image)
          built.Pipeline.image.Pass.prog
      in
      let reference = run_cells size base e in
      let compiled = List.nth runs i in
      let differ =
        List.fold_left2
          (fun n a b -> if Float.equal a b then n else n + 1)
          (if reference.ctrs = compiled.ctrs then 0 else 1)
          reference.cells compiled.cells
      in
      (attempted + List.length compiled.cells, failed + differ))
    (0, 0) [ first; second ]

let geomean_overhead ~baseline cells =
  let ops l = List.filteri (fun i _ -> i < 20) l in
  Stats.geomean_overhead
    (List.map2 (fun b x -> Stats.overhead_pct ~baseline:b x) (ops baseline.cells) (ops cells.cells))

let measure_suite ~first ~traced size seeds =
  timed_pass ~traced
    ~setup:(fun () ->
      let base = setup_base size seeds in
      let images =
        List.map
          (fun (name, config) ->
            ( name,
              span "bench:build" (fun () ->
                  Pipeline.build base.info.Gen.prog base.profile config) ))
          suite_configs
      in
      (base, images))
    ~timed:(fun (base, images) ->
      List.map
        (fun (_, built) ->
          metered (fun () ->
              let e = span "bench:engine" (fun () -> Pipeline.engine built) in
              span "bench:measure" (fun () -> run_cells size base e)))
        images)
    ~check:(fun (base, images) metered_runs ->
      let runs = List.map fst metered_runs in
      let engine_words = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 metered_runs in
      let overhead = geomean_overhead ~baseline:(List.nth runs 0) (List.nth runs 2) in
      let cells = List.concat_map (fun r -> r.cells) runs in
      let bad_cells =
        List.length (List.filter (fun c -> not (Float.is_finite c && c > 0.0)) cells)
      in
      let checks_attempted, checks_failed =
        if first then begin
          let da, df = drill_failures base images in
          let ia, if_ = interp_failures size seeds base images runs in
          (da + ia, df + if_)
        end
        else (0, 0)
      in
      let sum_ctr i = float_of_int (List.fold_left (fun acc r -> acc + List.nth r.ctrs i) 0 runs) in
      ( overhead :: cells @ List.concat_map (fun r -> List.map float_of_int r.ctrs) runs,
        List.length cells + checks_attempted,
        bad_cells + checks_failed,
        base_layer base
        @ [
            ("overhead_pct", overhead);
            ("engine.minsts", sum_ctr 1 /. 1e6);
            ("engine.btb_miss", sum_ctr 2);
            ("engine.rsb_miss", sum_ctr 3);
            ("engine.pht_miss", sum_ctr 4);
            ("engine.icache_miss", sum_ctr 5);
            ("engine.alloc_mw", engine_words /. 1e6);
          ] ))

(* ------------------------------------------------------------------ *)
(* adapt-loop: both layers, the way a deployment uses them: engines run
   with the collector's edge hooks on, alternate between the deployed
   and pristine programs through the compile cache, and the pipeline
   rebuilds on a drifting profile.  One operation is one Sim.run. *)

let adapt_loop ~traced size seeds =
  timed_pass ~traced
    ~setup:(fun () -> setup_base size seeds)
    ~timed:(fun base ->
      let phases =
        List.map (fun p -> (p, size.windows_per_phase)) (Workload.standard_phases base.info)
      in
      span "bench:sim" (fun () ->
          Sim.run ~config:size.sim ~adaptive:true ~prog:base.info.Gen.prog
            ~spec:(Pipeline.spec_of_config (Exp_common.best_config Exp_common.all_defenses))
            ~training:base.profile ~phases ()))
    ~check:(fun base outcome ->
      match outcome with
      | Error _ -> ([], 1, 1, base_layer base)
      | Ok (o : Sim.outcome) ->
        let mcycles = float_of_int o.Sim.total_cycles /. 1e6 in
        let ok = o.Sim.aborted = None && o.Sim.rebuilds >= 1 in
        ( [ mcycles; float_of_int o.Sim.rebuilds; float_of_int o.Sim.total_patch_cycles ]
          @ List.map (fun (w : Sim.window_record) -> float_of_int w.Sim.cycles) o.Sim.windows,
          1,
          (if ok then 0 else 1),
          base_layer base
          @ [
              ("deploy_mcycles", mcycles);
              ("online.windows", float_of_int (List.length o.Sim.windows));
              ("online.rebuilds", float_of_int o.Sim.rebuilds);
              ("online.patch_mcycles", float_of_int o.Sim.total_patch_cycles /. 1e6);
            ] ))

(* ------------------------------------------------------------------ *)
(* The span ledger *)

type span_rec = {
  sname : string;
  dur : float;
  self : float;
  path : string list;  (** enclosing span names, innermost first *)
}

type counter_rec = {
  cname : string;
  cargs : (string * Trace.value) list;
  cpath : string list;
}

type frame = {
  fname : string;
  t0 : int64;
  mutable child : float;
}

(* Replays a single-domain event stream into one record per closed span
   (inclusive and self seconds) and per counter sample, each with the
   names of its enclosing spans. *)
let ledger events =
  let stack = ref [] and spans = ref [] and counters = ref [] in
  let names () = List.map (fun f -> f.fname) !stack in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.ph with
      | Trace.Begin -> stack := { fname = e.Trace.name; t0 = e.Trace.ts_ns; child = 0.0 } :: !stack
      | Trace.End -> (
        match !stack with
        | f :: rest ->
          let dur = Int64.to_float (Int64.sub e.Trace.ts_ns f.t0) *. 1e-9 in
          stack := rest;
          (match rest with p :: _ -> p.child <- p.child +. dur | [] -> ());
          spans := { sname = f.fname; dur; self = dur -. f.child; path = names () } :: !spans
        | [] -> ())
      | Trace.Counter ->
        counters := { cname = e.Trace.name; cargs = e.Trace.args; cpath = names () } :: !counters
      | Trace.Instant -> ())
    events;
  (List.rev !spans, List.rev !counters)

(* Seconds covered by spans matching [pred] under scope [within]; a
   matching span nested in another matching span is counted once. *)
let covered spans ~within pred =
  List.fold_left
    (fun acc s ->
      if pred s.sname && List.mem within s.path && not (List.exists pred s.path) then acc +. s.dur
      else acc)
    0.0 spans

let self_time spans ~within pred =
  List.fold_left
    (fun acc s -> if pred s.sname && List.mem within s.path then acc +. s.self else acc)
    0.0 spans

let count spans ~within pred =
  List.length (List.filter (fun s -> pred s.sname && List.mem within s.path) spans)

let counter_sum counters ~within name key =
  List.fold_left
    (fun acc c ->
      if c.cname = name && List.mem within c.cpath then
        match List.assoc_opt key c.cargs with
        | Some (Trace.Int n) -> acc +. float_of_int n
        | Some (Trace.Float f) -> acc +. f
        | _ -> acc
      else acc)
    0.0 counters

(* The pipeline stage a [pass:<elem>] span belongs to: "icp", "inline",
   "cleanup", or "defense" for a hardening request. *)
let pass_kind name =
  if not (String.starts_with ~prefix:"pass:" name) then None
  else
    let elem = String.sub name 5 (String.length name - 5) in
    let kinds = [ "icp"; "inline"; "llvm-inline"; "cleanup" ] in
    match List.find_opt (fun k -> String.starts_with ~prefix:k elem) kinds with
    | Some "llvm-inline" -> Some "inline"
    | Some k -> Some k
    | None -> Some "defense"

(* Per-layer metrics of one traced pass, measured from its spans and
   the library's counter samples.  Set-up layers (kernel, profile) are
   timed within the set-up, every other layer within the timed phase, so
   a layer the timed phase does not use reads 0.  [engine.run_s] and
   [engine.ns_per_inst] cover the engines Measure drives; inside Sim.run
   the engines' time is part of [online.window_s], and their simulated
   counts come from the deployed-window counter samples (the pristine
   profiling replay runs uncounted). *)
let span_metrics (p : pass) spans counters =
  let timed = "bench:timed" and setup = "bench:setup" in
  let is n s = s = n in
  let measure_ops s = String.starts_with ~prefix:"measure:" s in
  let mix s = String.starts_with ~prefix:"measure:mix:" s in
  let window_self = self_time spans ~within:timed (is "online:window") in
  let deployed key = counter_sum counters ~within:timed "window-deployed" key in
  let engine_run = covered spans ~within:timed measure_ops in
  let direct name = Option.value ~default:0.0 (List.assoc_opt name p.layer) in
  let minsts = direct "engine.minsts" +. (deployed "insts" /. 1e6) in
  let pm_runs = count spans ~within:timed (is "pm:run") in
  let pass_detail key = counter_sum counters ~within:timed "pass-detail" key in
  [
    ("kernel.gen_s", covered spans ~within:setup (is "bench:gen"));
    ("profile.train_s", covered spans ~within:setup (is "bench:profile"));
    ("pm.setup_build_s", covered spans ~within:setup (is "pm:run"));
    ("pm.build_s", covered spans ~within:timed (is "pm:run"));
    ("pm.builds", float_of_int pm_runs);
    ("pass.cleanup_s", covered spans ~within:timed (fun s -> pass_kind s = Some "cleanup"));
    ("pass.inline_s", covered spans ~within:timed (fun s -> pass_kind s = Some "inline"));
    ("pass.icp_s", covered spans ~within:timed (fun s -> pass_kind s = Some "icp"));
    ("pass.defense_s", covered spans ~within:timed (fun s -> pass_kind s = Some "defense"));
    ("pm.harden_s", covered spans ~within:timed (is "pm:harden"));
    (* every pipeline run starts from the pristine kernel, so its output
       size is the kernel's plus the run's per-pass deltas *)
    ( "ir.insts_out",
      (float_of_int pm_runs *. direct "kernel.insts")
      +. counter_sum counters ~within:timed "ir-delta" "insts" );
    ("icp.promoted", pass_detail "promoted_sites");
    ("inline.inlined", pass_detail "inlined_sites");
    ( "engine.create_s",
      covered spans ~within:timed (fun s -> s = "bench:engine" || s = "engine:compile") );
    ("engine.run_s", engine_run);
    ("engine.minsts", minsts);
    ( "engine.ns_per_inst",
      if engine_run > 0.0 then engine_run *. 1e3 /. direct "engine.minsts" else 0.0 );
    ("engine.btb_miss", direct "engine.btb_miss" +. deployed "btb_miss");
    ("engine.rsb_miss", direct "engine.rsb_miss" +. deployed "rsb_miss");
    ("engine.pht_miss", direct "engine.pht_miss" +. deployed "pht_miss");
    ("engine.icache_miss", direct "engine.icache_miss" +. deployed "icache_miss");
    ( "measure.suite_s",
      covered spans ~within:timed (fun s -> measure_ops s && not (mix s)) );
    ("measure.mix_s", covered spans ~within:timed mix);
    ("online.window_s", window_self);
    ("online.rebuild_s", covered spans ~within:timed (is "online:rebuild"));
  ]

(* Every per-layer metric of a traced pass: span-derived values first,
   then the ones [untraced], a pass on the same inputs, measured
   directly (so allocation and GC figures exclude the tracing). *)
let layer_values ~untraced (p : pass) =
  let spans, counters = ledger p.events in
  span_metrics p spans counters @ untraced.layer

(* Inclusive and self seconds per span name, largest first. *)
let print_ledger spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, incl, self =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.sname)
      in
      Hashtbl.replace tbl s.sname (n + 1, incl +. s.dur, self +. s.self))
    spans;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a) rows in
  Printf.printf "%-40s %7s %12s %12s\n" "span" "count" "incl_s" "self_s";
  List.iter
    (fun (name, (n, incl, self)) -> Printf.printf "%-40s %7d %12.6f %12.6f\n" name n incl self)
    rows

(* ------------------------------------------------------------------ *)
(* Metric catalogue *)

let result_metric = function
  | "build-matrix" -> ("image_kb", "KB")
  | "measure-suite" -> ("overhead_pct", "%")
  | _ -> ("deploy_mcycles", "Mcycles")

let per_layer_units =
  [
    ("image_kb", "KB");
    ("overhead_pct", "%");
    ("deploy_mcycles", "Mcycles");
    ("kernel.gen_s", "s");
    ("kernel.funcs", "count");
    ("profile.train_s", "s");
    ("profile.sites", "count");
    ("pm.setup_build_s", "s");
    ("pm.build_s", "s");
    ("pm.builds", "count");
    ("pass.cleanup_s", "s");
    ("pass.inline_s", "s");
    ("pass.icp_s", "s");
    ("pass.defense_s", "s");
    ("pm.harden_s", "s");
    ("pm.alloc_mw", "Mwords");
    ("ir.insts_out", "count");
    ("icp.promoted", "count");
    ("inline.inlined", "count");
    ("harden.sites", "count");
    ("engine.create_s", "s");
    ("engine.run_s", "s");
    ("engine.minsts", "Minsts");
    ("engine.ns_per_inst", "ns");
    ("engine.btb_miss", "count");
    ("engine.rsb_miss", "count");
    ("engine.pht_miss", "count");
    ("engine.icache_miss", "count");
    ("engine.cache_hits", "count");
    ("engine.cache_misses", "count");
    ("engine.alloc_mw", "Mwords");
    ("measure.suite_s", "s");
    ("measure.mix_s", "s");
    ("online.window_s", "s");
    ("online.rebuild_s", "s");
    ("online.windows", "count");
    ("online.rebuilds", "count");
    ("online.patch_mcycles", "Mcycles");
    ("gc.major", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_pct", "%");
    ("host.ref_s", "s");
  ]

(* ------------------------------------------------------------------ *)
(* Driver *)

let workloads = [ "build-matrix"; "measure-suite"; "adapt-loop" ]

let run_pass name ~first ~traced size seeds =
  match name with
  | "build-matrix" -> build_matrix ~first ~traced size seeds
  | "measure-suite" -> measure_suite ~first ~traced size seeds
  | _ -> adapt_loop ~traced size seeds

(* The shortest decimal that reads back as exactly [v]. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let exact p = float_of_string (Printf.sprintf "%.*g" p v) = v in
    Printf.sprintf "%.*g" (if exact 15 then 15 else if exact 16 then 16 else 17) v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

(* Repeats passes until the next one would overrun [seconds], cycling
   through the run's kernels (at least one pass each).  A traced run
   uses kernel 0 only and alternates untraced and traced passes, at
   least two of each.  The output checks run on each kernel's first
   pass; every later pass must reproduce that pass's exact outputs.  A
   pass that raises ends the run and counts as one more failed
   operation.  The result line is always printed; [correct] is false
   when any operation failed, and the metrics are left out when a pass
   raised. *)
let run ~name ~seed ~seconds ~trace =
  let kernels = if trace then 1 else kernels_per_run in
  let inputs = Array.init kernels (fun k -> seeds_of seed k) in
  let min_passes = if trace then 4 else kernels in
  let deadline = now () +. seconds in
  let refs = ref [] in
  let rec loop i acc =
    let k = i mod kernels in
    let traced = trace && i mod 2 = 1 in
    let t0 = now () in
    let ref_s = reference_s () in
    refs := ref_s :: !refs;
    match
      in_child (fun () -> run_pass name ~first:(i < kernels) ~traced (full inputs.(k)) inputs.(k))
    with
    | Error e ->
      Printf.printf "pass %d kernel %d raised: %s\n%!" i k e;
      (List.rev acc, true)
    | Ok p ->
      let took = now () -. t0 in
      Printf.printf
        "pass %d kernel %d%s: setup_s %.4f wall_s %.4f ref_s %.4f alloc %.0f %s (%.2f s)\n%!" i k
        (if traced then " traced" else "")
        p.setup_s p.wall_s ref_s p.alloc_words (show_usage p.used) took;
      let acc = (k, p) :: acc in
      if i + 1 >= min_passes && now () +. took > deadline then (List.rev acc, false)
      else loop (i + 1) acc
  in
  let passes, raised = loop 0 [] in
  let ref_s = Stats.mean !refs in
  let host = reference_nominal_s /. ref_s in
  let per_kernel =
    List.init kernels (fun k ->
        List.filter_map (fun (k', p) -> if k = k' then Some p else None) passes)
  in
  let firsts = List.filter_map (function p :: _ -> Some p | [] -> None) per_kernel in
  let attempted = List.fold_left (fun a (_, p) -> a + p.attempted) 0 passes in
  (* Tracing allocates, so a traced pass's allocation is compared with
     the first traced pass's. *)
  let mismatched =
    List.fold_left2
      (fun n first ps ->
        let first_traced = List.find_opt (fun p -> p.events <> []) ps in
        let differs p =
          p.digest <> first.digest
          ||
          match first_traced with
          | Some t when p.events <> [] -> p.alloc_words <> t.alloc_words
          | _ -> p.events = [] && p.alloc_words <> first.alloc_words
        in
        n + List.length (List.filter differs ps))
      0 firsts
      (List.filter (fun ps -> ps <> []) per_kernel)
  in
  let crashed = if raised then 1 else 0 in
  let failed = List.fold_left (fun a (_, p) -> a + p.failed) 0 passes + mismatched + crashed in
  let attempted = attempted + crashed in
  let result_name, result_unit = result_metric name in
  List.iteri
    (fun k (p : pass) ->
      Printf.printf "%s kernel %d (seed %d): %s %.17g %s, alloc %.6f Mwords\n" name k
        inputs.(k).kernel result_name (List.assoc result_name p.layer) result_unit
        (p.alloc_words /. 1e6))
    firsts;
  let untraced ps = List.filter (fun p -> p.events = []) ps in
  let metrics =
    if raised then []
    else if not trace then
      let kernel_median f =
        Stats.mean (List.map (fun ps -> Stats.median (List.map f (untraced ps))) per_kernel)
      in
      [
        ("setup_s", "s", host *. kernel_median (fun p -> p.setup_s));
        ("wall_s", "s", host *. kernel_median (fun p -> p.wall_s));
        ("peak_rss_mb", "MB", kernel_median (fun p -> p.rss_mb));
        ("alloc_mw", "Mwords", Stats.mean (List.map (fun p -> p.alloc_words /. 1e6) firsts));
      ]
    else begin
      let all = List.map snd passes in
      let traced = List.filter (fun p -> p.events <> []) all in
      let values = List.map (layer_values ~untraced:(List.hd all)) traced in
      let wall l = Stats.median (List.map (fun p -> p.wall_s) l) in
      let overhead = ((wall traced /. wall (untraced all)) -. 1.0) *. 100.0 in
      print_ledger (fst (ledger (List.hd traced).events));
      List.map
        (fun (n, u) ->
          let v =
            if n = "trace.overhead_pct" then overhead
            else if n = "host.ref_s" then ref_s
            else
              Stats.median
                (List.map (fun vs -> Option.value ~default:0.0 (List.assoc_opt n vs)) values)
          in
          (n, u, v))
        per_layer_units
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-22s %.17g %s\n" n v u) metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Self-test *)

(* Per-layer metrics that are pure functions of the seed.  Times, GC
   figures and trace overhead depend on the host and are left out. *)
let exact_layer_metrics =
  List.filter_map
    (fun (n, u) ->
      let host_dependent =
        u = "s" || u = "ns" || String.starts_with ~prefix:"gc." n || n = "trace.overhead_pct"
      in
      if host_dependent then None else Some n)
    per_layer_units

(* Runs each workload twice at the small size, traced, then once more on
   the reference interpreter.  The two compiled runs must agree bit for
   bit on their allocation (tracing's own included), the result metrics
   and every exact per-layer metric; the interpreter run must reproduce
   every simulated output.  On build-matrix the trace-derived pipeline
   counts must also equal the ones read off the built images. *)
let self_test () =
  let seeds = seeds_of 42 0 in
  let size = small seeds in
  let failures = ref [] in
  let fail w what = failures := (w ^ ": " ^ what) :: !failures in
  List.iter
    (fun w ->
      let once ~traced =
        match in_child (fun () -> run_pass w ~first:true ~traced size seeds) with
        | Ok p -> p
        | Error e -> failwith (w ^ ": a pass raised: " ^ e)
      in
      let a = once ~traced:true in
      let b = once ~traced:true in
      Engine.set_default_backend Engine.Interp;
      let i = once ~traced:false in
      Engine.set_default_backend Engine.Compiled;
      List.iter
        (fun (p : pass) ->
          if p.failed > 0 then fail w (Printf.sprintf "%d failed operations" p.failed))
        [ a; b; i ];
      if a.alloc_words <> b.alloc_words then fail w "alloc_mw differs between runs";
      if a.digest <> b.digest then fail w "result differs between runs";
      if i.digest <> a.digest then fail w "interpreter result differs";
      let va = layer_values ~untraced:a a and vb = layer_values ~untraced:b b in
      List.iter
        (fun n ->
          if List.assoc_opt n va <> List.assoc_opt n vb then fail w (n ^ " differs between runs");
          if String.starts_with ~prefix:"engine." n && n <> "engine.alloc_mw"
             && List.assoc_opt n i.layer <> List.assoc_opt n a.layer
          then
            fail w (n ^ " differs on the interpreter"))
        exact_layer_metrics;
      if w = "build-matrix" then
        List.iter
          (fun n ->
            if List.assoc_opt n va <> List.assoc_opt n a.layer then
              fail w (n ^ ": trace-derived value differs from the built images"))
          [ "ir.insts_out"; "icp.promoted"; "inline.inlined" ];
      let result_name, result_unit = result_metric w in
      Printf.printf "self-test %s: %s %.17g %s, alloc %.0f words, %d operations\n%!" w result_name
        (List.assoc result_name a.layer) result_unit a.alloc_words a.attempted)
    workloads;
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) (List.rev !failures);
  if !failures = [] then 0 else 1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20.0 and trace = ref 0 in
  let self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME build-matrix | measure-suite | adapt-loop");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--self-test", Arg.Set self, " exactness self-test at a small size");
    ]
  in
  let usage = "pibebench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then exit (self_test ())
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("pibebench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "pibebench: --trace takes 0 or 1";
    exit 2
  end
  else run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
