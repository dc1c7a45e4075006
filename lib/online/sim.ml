module Profile = Pibe_profile.Profile
module Collector = Pibe_profile.Collector
module Program = Pibe_ir.Program
module Engine = Pibe_cpu.Engine
module Rng = Pibe_util.Rng
module Workload = Pibe_kernel.Workload
module H = Pibe_harden.Pass
module Trace = Pibe_trace.Trace

type config = {
  requests_per_window : int;
  store_window : int;
  decay : float;
  drift_threshold : float;
  hysteresis : int;
  top_k : int;
  max_reopts : int;
  seed : int;
  profile_on_deployed : bool;
}

let default_config =
  {
    requests_per_window = 150;
    store_window = 3;
    decay = 0.5;
    drift_threshold = 0.25;
    hysteresis = 2;
    top_k = 16;
    max_reopts = 3;
    seed = 23;
    profile_on_deployed = false;
  }

type window_record = {
  index : int;
  phase : string;
  cycles : int;
  patch_cycles : int;
  distance : float;
  fired : bool;
}

type outcome = {
  windows : window_record list;
  rebuilds : int;
  total_cycles : int;
  total_patch_cycles : int;
  aborted : string option;
}

let replay ~requests ~image ~(phase : Workload.phase) rng =
  let eng = Engine.create ~config:(H.engine_config image) image.H.prog in
  for _ = 1 to requests do
    phase.Workload.request eng rng
  done;
  eng

let profile_window ~requests ~prog ~(phase : Workload.phase) rng =
  let collector = Collector.create prog in
  let profiler = Collector.engine collector in
  for _ = 1 to requests do
    phase.Workload.request profiler rng
  done;
  Collector.lift collector

(* One production window, in one of two collection regimes.

   Default (the paper's idealization): replay the same request stream
   twice — once on the deployed engine for cycle accounting, once on a
   profiling build of the pristine kernel (default costs + collector
   hook) for the lifted window profile, which keeps every window in the
   same origin-id coordinate system as the training profiles.

   With [profile_on_deployed] (production reality, AutoFDO-style): a
   single replay on the deployed image with the collector hooked into it;
   the lift resolves clones/promotions/inlined-away edges through the
   image's provenance back to pristine origins.  No second machine
   exists — samples come from the binary users actually run. *)
let run_window ~cfg ~prog ~image ~provenance ~(phase : Workload.phase) rng =
  if cfg.profile_on_deployed then begin
    let collector = Collector.create ~provenance image.H.prog in
    let deployed = Collector.engine ~config:(H.engine_config image) collector in
    for _ = 1 to cfg.requests_per_window do
      phase.Workload.request deployed rng
    done;
    Engine.trace_counters ~cat:"online" ~name:"window-deployed" deployed;
    (Engine.cycles deployed, Collector.lift collector)
  end
  else begin
    let requests = cfg.requests_per_window in
    let rng_profile = Rng.copy rng in
    let deployed = replay ~requests ~image ~phase rng in
    Engine.trace_counters ~cat:"online" ~name:"window-deployed" deployed;
    (Engine.cycles deployed, profile_window ~requests ~prog ~phase rng_profile)
  end

let run ?(config = default_config) ?(verify = false) ~adaptive ~prog ~spec ~training
    ~phases () =
  match Controller.create ~verify ~prog ~spec ~profile:training () with
  | Error e -> Error e
  | Ok controller ->
    let cfg = config in
    let store = Store.create ~window:cfg.store_window ~decay:cfg.decay () in
    let detector =
      Drift.detector ~threshold:cfg.drift_threshold ~hysteresis:cfg.hysteresis
    in
    let master = Rng.create cfg.seed in
    let index = ref 0 in
    let windows = ref [] in
    (* Window accounting is exception-safe: the record is pushed (and the
       index advanced) inside the traced closure, immediately after the
       state mutations it describes, so a failure anywhere later — even in
       the span's own End emission — can never leave a completed window
       (with its store/detector/controller effects applied) unaccounted.
       A failure mid-window aborts the run but keeps every completed
       record, reported through [aborted]. *)
    let aborted = ref None in
    (try
       List.iter
         (fun ((phase : Workload.phase), nwindows) ->
           for _ = 1 to nwindows do
             let rng = Rng.split master in
             let span_args =
               if Trace.enabled () then
                 [
                   ("index", Trace.Int !index);
                   ("phase", Trace.Str phase.Workload.phase_name);
                   ("adaptive", Trace.Int (if adaptive then 1 else 0));
                 ]
               else []
             in
             Trace.span ~cat:"online" "online:window" ~args:span_args (fun () ->
                 let cycles, wprof =
                   run_window ~cfg ~prog ~image:(Controller.image controller)
                     ~provenance:(Controller.provenance controller) ~phase rng
                 in
                 (* Detect on the freshest window (fast reaction); rebuild on the
                    decayed merge (stable training data).  Hysteresis, not
                    smoothing, is what keeps one-window noise from firing. *)
                 let dist =
                   Drift.distance ~k:cfg.top_k (Controller.reference controller) wprof
                 in
                 (* the window profile is freshly lifted and never touched
                    again: hand it to the ring without a copy *)
                 Store.observe_owned store wprof;
                 let decision = Drift.observe detector dist in
                 let fire =
                   adaptive && decision = Drift.Fire
                   && Controller.rebuilds controller < cfg.max_reopts
                 in
                 let patch_cycles =
                   if fire then Controller.reoptimize controller (Store.merged store)
                   else 0
                 in
                 if Trace.enabled () then
                   Trace.counter ~cat:"online" "window"
                     [
                       ("index", Trace.Int !index);
                       ("cycles", Trace.Int cycles);
                       ("patch_cycles", Trace.Int patch_cycles);
                       ("drift", Trace.Float dist);
                       ("fired", Trace.Int (if fire then 1 else 0));
                     ];
                 windows :=
                   {
                     index = !index;
                     phase = phase.Workload.phase_name;
                     cycles;
                     patch_cycles;
                     distance = dist;
                     fired = fire;
                   }
                   :: !windows;
                 incr index)
           done)
         phases
     with e -> aborted := Some (Printexc.to_string e));
    let windows = List.rev !windows in
    Ok
      {
        windows;
        rebuilds = Controller.rebuilds controller;
        total_cycles =
          List.fold_left (fun acc w -> acc + w.cycles + w.patch_cycles) 0 windows;
        total_patch_cycles = Controller.total_patch_cycles controller;
        aborted = !aborted;
      }

let training_profile ?(config = default_config) ~prog ~phases () =
  let collector = Collector.create prog in
  let engine = Collector.engine collector in
  let master = Rng.create config.seed in
  List.iter
    (fun ((phase : Workload.phase), nwindows) ->
      for _ = 1 to nwindows do
        let rng = Rng.split master in
        for _ = 1 to config.requests_per_window do
          phase.Workload.request engine rng
        done
      done)
    phases;
  Collector.lift collector
