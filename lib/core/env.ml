module Profile = Pibe_profile.Profile
module Rng = Pibe_util.Rng
module Stats = Pibe_util.Stats
module Pool = Pibe_util.Pool
module Memo = Pibe_util.Memo

(* Every cache is a {!Memo}: expensive steps (kernel generation,
   profiling, builds, measurement) run outside its lock so independent
   cells proceed concurrently.  Two domains racing on the same cold key
   may both compute it; every step is deterministic (fixed seeds, own
   engine), so both results are identical and the first one recorded is
   the one every caller gets.  [warm] pre-computes the shared
   prerequisites once to keep that duplication off the expensive paths.
   The kernel and the two profiles are one-entry memos; builds and
   latencies are unbounded and compare configurations structurally. *)

type t = {
  scale : int;
  seed : int;
  msettings : Measure.settings;
  profile_iters : int;
  verify : bool;
  engine : Pibe_cpu.Engine.backend;
  pool : Pool.t;
  kernel : (unit, Pibe_kernel.Gen.info) Memo.t;
  lmb_profile : (unit, Profile.t) Memo.t;
  ap_profile : (unit, Profile.t) Memo.t;
  builds : (Config.t, Pipeline.built) Memo.t;
  lat_cache : (Config.t, (string * float) list) Memo.t;
}

let create ?(scale = 3) ?(seed = 42) ?(settings = Measure.default_settings)
    ?(profile_iters = 300) ?(jobs = 1) ?(verify = false) ?engine () =
  (* The engine knob is process-wide: engines are created deep inside
     measure/pipeline/online cells (including on worker domains), all of
     which follow [Engine.default_backend].  Explicitly choosing a
     backend here re-points that default; omitting it inherits it. *)
  (match engine with
  | Some b -> Pibe_cpu.Engine.set_default_backend b
  | None -> ());
  let cell () = Memo.create ~capacity:1 ~equal:(fun () () -> true) () in
  let table () = Memo.create ~equal:(fun a b -> compare a b = 0) () in
  {
    scale;
    seed;
    msettings = settings;
    profile_iters;
    verify;
    engine =
      (match engine with
      | Some b -> b
      | None -> Pibe_cpu.Engine.default_backend ());
    pool = Pool.create ~jobs ();
    kernel = cell ();
    lmb_profile = cell ();
    ap_profile = cell ();
    builds = table ();
    lat_cache = table ();
  }

let quick ?(jobs = 1) ?(verify = true) ?engine () =
  create ~scale:1 ~settings:Measure.quick_settings ~profile_iters:60 ~jobs ~verify
    ?engine ()

let pool t = t.pool
let verify t = t.verify
let engine_backend t = t.engine
let jobs t = Pool.jobs t.pool

let par_map t f xs =
  let args =
    if Pibe_trace.Trace.enabled () then
      [ ("items", Pibe_trace.Trace.Int (List.length xs)) ]
    else []
  in
  Pibe_trace.Trace.span ~cat:"sched" "env:par_map" ~args (fun () -> Pool.map t.pool f xs)

let info t =
  Memo.get t.kernel () (fun _ ->
      Pibe_kernel.Gen.generate { Pibe_kernel.Ctx.seed = t.seed; scale = t.scale })

let ops t = Pibe_kernel.Workload.lmbench (info t)
let settings t = t.msettings
let profile_iters t = t.profile_iters

let lmbench_profile t =
  Memo.get t.lmb_profile () (fun _ ->
      let i = info t in
      Pipeline.profile i.Pibe_kernel.Gen.prog ~run:(fun engine ->
          let rng = Rng.create 11 in
          List.iter
            (fun (op : Pibe_kernel.Workload.op) ->
              for _ = 1 to t.profile_iters do
                op.Pibe_kernel.Workload.run engine rng
              done)
            (ops t)))

let apache_profile t =
  Memo.get t.ap_profile () (fun _ ->
      let i = info t in
      let mix = Pibe_kernel.Workload.apache i in
      Pipeline.profile i.Pibe_kernel.Gen.prog ~run:(fun engine ->
          let rng = Rng.create 13 in
          for _ = 1 to t.profile_iters * 4 do
            mix.Pibe_kernel.Workload.request engine rng
          done))

let build t config =
  Memo.get t.builds config (fun _ ->
      let i = info t in
      let profile = lmbench_profile t in
      Pipeline.build ~verify:t.verify i.Pibe_kernel.Gen.prog profile config)

let build_with_profile t ~profile config =
  let i = info t in
  Pipeline.build ~verify:t.verify i.Pibe_kernel.Gen.prog profile config

let latencies t config =
  Memo.get t.lat_cache config (fun _ ->
      let engine = Pipeline.engine (build t config) in
      Measure.suite_latencies ~settings:t.msettings engine (ops t))

let distinct configs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c then false
      else begin
        Hashtbl.replace seen c ();
        true
      end)
    configs

let warm_with t memo step configs =
  let cold = List.filter (fun c -> not (Memo.mem memo c)) (distinct configs) in
  if cold <> [] then begin
    (* shared prerequisites first, exactly once *)
    ignore (info t);
    ignore (lmbench_profile t);
    (* distinct cold cells, each with its own engine, in parallel *)
    Pool.iter t.pool (fun c -> ignore (step t c)) cold
  end

let warm t configs = warm_with t t.lat_cache latencies configs
let warm_builds t configs = warm_with t t.builds build configs

let overheads t ~baseline config =
  warm t [ baseline; config ];
  let base = latencies t baseline in
  let v = latencies t config in
  List.map2
    (fun (name, b) (name', x) ->
      assert (String.equal name name');
      (name, Stats.overhead_pct ~baseline:b x))
    base v

let geomean_overhead t ~baseline config =
  Stats.geomean_overhead (List.map snd (overheads t ~baseline config))
