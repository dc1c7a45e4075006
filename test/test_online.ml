(* Continuous profiling: the store's decayed window, the drift metric and
   its hysteresis policy, the re-optimization controller, the end-to-end
   guarantees of the deployment simulator — no rebuilds on a steady
   workload, adaptation paying off on a phased one — and the fleet layer:
   jobs-count invariance, canary gating, and staged promotion. *)

module Profile = Pibe_profile.Profile
module Store = Pibe_online.Store
module Drift = Pibe_online.Drift
module Controller = Pibe_online.Controller
module Sim = Pibe_online.Sim
module Fleet = Pibe_online.Fleet
module Pool = Pibe_util.Pool
module Workload = Pibe_kernel.Workload

let profile_of assocs =
  let p = Profile.create () in
  List.iter
    (fun (origin, targets) ->
      List.iter (fun (target, count) -> Profile.add_indirect p ~origin ~target ~count) targets)
    assocs;
  p

(* ------------------------------- store ------------------------------ *)

let test_store_decay_and_eviction () =
  let store = Store.create ~window:2 ~decay:0.5 () in
  Alcotest.(check int) "empty" 0 (Store.length store);
  Alcotest.(check string) "empty merge" (Profile.to_string (Profile.create ()))
    (Profile.to_string (Store.merged store));
  let snap c = profile_of [ (1, [ ("t", c) ]) ] in
  Store.observe store (snap 100);
  Store.observe store (snap 200);
  Store.observe store (snap 400);
  Alcotest.(check int) "evicted beyond the window" 2 (Store.length store);
  (* newest (400) at weight 1, previous (200) at 0.5; the first snapshot
     is gone: 400 + 100 = 500 *)
  let merged = Store.merged store in
  Alcotest.(check int) "decayed weighted sum" 500
    (Profile.site_weight merged { Pibe_ir.Types.site_id = 1; site_origin = 1 });
  Store.clear store;
  Alcotest.(check int) "cleared" 0 (Store.length store)

let test_store_observe_copies () =
  let store = Store.create ~window:3 ~decay:1.0 () in
  let p = profile_of [ (7, [ ("t", 10) ]) ] in
  Store.observe store p;
  (* mutating the caller's profile afterwards must not leak into the ring *)
  Profile.add_indirect p ~origin:7 ~target:"t" ~count:990;
  Alcotest.(check int) "snapshot unaffected" 10
    (Profile.site_weight (Store.merged store) { Pibe_ir.Types.site_id = 7; site_origin = 7 })

let test_store_owned_and_snapshots () =
  let store = Store.create ~window:2 ~decay:0.5 () in
  let p = profile_of [ (3, [ ("t", 5) ]) ] in
  Store.observe_owned store p;
  (* ownership transfer: no defensive copy is taken, so a later mutation
     of the handed-over profile is visible in the ring (which is why the
     sim only uses it for profiles it never touches again) *)
  Profile.add_indirect p ~origin:3 ~target:"t" ~count:5;
  Alcotest.(check int) "no copy taken" 10
    (Profile.site_weight (Store.merged store) { Pibe_ir.Types.site_id = 3; site_origin = 3 });
  Store.observe_owned store (profile_of [ (3, [ ("t", 100) ]) ]);
  (match Store.weighted_snapshots store with
  | [ (w0, p0); (w1, p1) ] ->
    Alcotest.(check (float 1e-9)) "newest at weight 1" 1.0 w0;
    Alcotest.(check int) "newest snapshot first" 100
      (Profile.site_weight p0 { Pibe_ir.Types.site_id = 3; site_origin = 3 });
    Alcotest.(check (float 1e-9)) "older decayed" 0.5 w1;
    Alcotest.(check int) "older snapshot second" 10
      (Profile.site_weight p1 { Pibe_ir.Types.site_id = 3; site_origin = 3 })
  | snaps -> Alcotest.failf "expected 2 snapshots, got %d" (List.length snaps));
  (* ring slots are reused, not reallocated: a third observe evicts the
     oldest and the merged view follows *)
  Store.observe_owned store (profile_of [ (3, [ ("t", 1000) ]) ]);
  Alcotest.(check int) "still full" 2 (Store.length store);
  Alcotest.(check int) "oldest evicted from the merge" 1050
    (Profile.site_weight (Store.merged store) { Pibe_ir.Types.site_id = 3; site_origin = 3 })

let test_store_validation () =
  Alcotest.check_raises "window 0" (Invalid_argument "Store.create: window must be >= 1")
    (fun () -> ignore (Store.create ~window:0 ~decay:0.5 ()));
  Alcotest.check_raises "decay 0" (Invalid_argument "Store.create: decay must be in (0, 1]")
    (fun () -> ignore (Store.create ~window:3 ~decay:0.0 ()));
  Alcotest.check_raises "decay > 1" (Invalid_argument "Store.create: decay must be in (0, 1]")
    (fun () -> ignore (Store.create ~window:3 ~decay:1.5 ()))

(* ------------------------------- drift ------------------------------ *)

let test_distance_properties () =
  let a = profile_of [ (1, [ ("x", 90); ("y", 10) ]); (2, [ ("z", 50) ]) ] in
  let b = profile_of [ (3, [ ("u", 40) ]); (4, [ ("v", 60) ]) ] in
  Alcotest.(check (float 1e-9)) "identical profiles" 0.0 (Drift.distance a a);
  Alcotest.(check (float 1e-9)) "both empty" 0.0
    (Drift.distance (Profile.create ()) (Profile.create ()));
  Alcotest.(check (float 1e-9)) "disjoint profiles" 1.0 (Drift.distance a b);
  Alcotest.(check (float 1e-9)) "symmetric" (Drift.distance a b) (Drift.distance b a);
  (* magnitude invariance: scaling every count leaves the distance alone *)
  let scaled = Profile.scale a 3.0 in
  Alcotest.(check (float 1e-9)) "scale invariant" 0.0 (Drift.distance a scaled);
  let d = Drift.distance a (profile_of [ (1, [ ("x", 10); ("y", 90) ]) ]) in
  Alcotest.(check bool) "partial drift strictly inside (0, 1)" true (d > 0.0 && d < 1.0)

let test_detector_hysteresis () =
  let det = Drift.detector ~threshold:0.5 ~hysteresis:2 in
  Alcotest.(check bool) "first suspect" true (Drift.observe det 0.6 = Drift.Suspect 1);
  Alcotest.(check bool) "second fires" true (Drift.observe det 0.6 = Drift.Fire);
  (* streak resets after a fire: the next window starts a new streak *)
  Alcotest.(check bool) "post-fire restart" true (Drift.observe det 0.7 = Drift.Suspect 1);
  (* a stable window breaks the streak: no fire on alternating noise *)
  Alcotest.(check bool) "stable resets" true (Drift.observe det 0.2 = Drift.Stable);
  Alcotest.(check bool) "back to one" true (Drift.observe det 0.9 = Drift.Suspect 1);
  Alcotest.(check bool) "still no fire" true (Drift.observe det 0.9 = Drift.Fire);
  Drift.reset det;
  Alcotest.(check bool) "reset clears the streak" true
    (Drift.observe det 0.9 = Drift.Suspect 1)

(* ---------------------------- controller ---------------------------- *)

let quick_spec () =
  Pibe.Pipeline.spec_of_config (Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses)

let test_controller_identical_rebuild_is_free () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  match Controller.create ~prog ~spec:(quick_spec ()) ~profile () with
  | Error e -> Alcotest.failf "controller: %s" e
  | Ok c ->
    Alcotest.(check int) "no rebuilds yet" 0 (Controller.rebuilds c);
    (* same profile -> same image -> zero changed functions -> no downtime *)
    let cycles = Controller.reoptimize c profile in
    Alcotest.(check int) "identical rebuild costs nothing" 0 cycles;
    Alcotest.(check int) "but is counted" 1 (Controller.rebuilds c);
    Alcotest.(check int) "no cycles accumulated" 0 (Controller.total_patch_cycles c)

let test_controller_rejects_bad_spec () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  match
    Controller.create ~prog
      ~spec:[ Pibe_pm.Spec.elem "mystery" ]
      ~profile ()
  with
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "names the pass" true (contains e "mystery")
  | Ok _ -> Alcotest.fail "unknown pass accepted"

(* ------------------------------- sim -------------------------------- *)

let sim_config =
  {
    Sim.default_config with
    Sim.requests_per_window = 25;
    store_window = 2;
    hysteresis = 2;
  }

let run_sim ?(config = sim_config) ~adaptive ~phases env =
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let training = Pibe.Env.lmbench_profile env in
  match
    Sim.run ~config ~adaptive ~prog ~spec:(quick_spec ()) ~training ~phases ()
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "sim: %s" e

let test_steady_workload_never_fires () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  (* the deployed image was trained on LMBench; a steady LMBench stream
     must never trip the detector, adaptive or not *)
  let phases = [ (Workload.lmbench_phase info, 6) ] in
  let o = run_sim ~adaptive:true ~phases env in
  Alcotest.(check int) "no rebuilds" 0 o.Sim.rebuilds;
  Alcotest.(check int) "no downtime" 0 o.Sim.total_patch_cycles;
  List.iter
    (fun (w : Sim.window_record) ->
      Alcotest.(check bool)
        (Printf.sprintf "window %d under threshold" w.Sim.index)
        true
        (w.Sim.distance < sim_config.Sim.drift_threshold && not w.Sim.fired))
    o.Sim.windows

let test_phased_workload_adapts () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let phases =
    [ (Workload.lmbench_phase info, 2); (Workload.phase_of_mix (Workload.dbench info), 6) ]
  in
  let adaptive = run_sim ~adaptive:true ~phases env in
  let static = run_sim ~adaptive:false ~phases env in
  Alcotest.(check bool) "rebuilds happened" true (adaptive.Sim.rebuilds >= 1);
  Alcotest.(check bool) "downtime charged" true (adaptive.Sim.total_patch_cycles > 0);
  (* adaptation must pay for itself: fewer total cycles than staying on
     the stale image, even with the patch downtime charged *)
  Alcotest.(check bool) "adaptive beats stale overall" true
    (adaptive.Sim.total_cycles < static.Sim.total_cycles);
  (* both variants replayed byte-identical request streams: before any
     rebuild the cycle counts agree window for window *)
  let first_fire =
    List.fold_left
      (fun acc (w : Sim.window_record) ->
        match acc with Some _ -> acc | None -> if w.Sim.fired then Some w.Sim.index else None)
      None adaptive.Sim.windows
  in
  match first_fire with
  | None -> Alcotest.fail "no window fired"
  | Some fire_idx ->
    List.iter2
      (fun (a : Sim.window_record) (s : Sim.window_record) ->
        if a.Sim.index <= fire_idx then
          Alcotest.(check int)
            (Printf.sprintf "window %d cycles agree pre-swap" a.Sim.index)
            s.Sim.cycles a.Sim.cycles)
      adaptive.Sim.windows static.Sim.windows

let test_sim_deterministic () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let phases =
    [ (Workload.lmbench_phase info, 1); (Workload.phase_of_mix (Workload.apache info), 3) ]
  in
  let a = run_sim ~adaptive:true ~phases env in
  let b = run_sim ~adaptive:true ~phases env in
  Alcotest.(check bool) "outcome reproduced exactly" true (a = b)

let test_sim_abort_preserves_windows () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let base = Workload.lmbench_phase info in
  (* Every window replays the stream twice (deployed + profiler), so with
     25 requests/window the 120th request call lands inside window 2: two
     windows must complete, the third must abort. *)
  let calls = ref 0 in
  let bomb =
    {
      Workload.phase_name = "bomb";
      request =
        (fun eng rng ->
          incr calls;
          if !calls = 120 then failwith "boom";
          base.Workload.request eng rng);
    }
  in
  let o = run_sim ~adaptive:false ~phases:[ (bomb, 6) ] env in
  Alcotest.(check int) "completed windows retained" 2 (List.length o.Sim.windows);
  (match o.Sim.aborted with
  | Some msg ->
    Alcotest.(check bool) "abort reason surfaced" true
      (String.length msg > 0
      && String.equal (Printexc.to_string (Failure "boom")) msg)
  | None -> Alcotest.fail "abort not reported");
  (* the retained records stay internally consistent *)
  Alcotest.(check int) "totals cover retained windows only"
    (List.fold_left (fun acc (w : Sim.window_record) -> acc + w.Sim.cycles) 0 o.Sim.windows)
    o.Sim.total_cycles;
  List.iteri
    (fun i (w : Sim.window_record) ->
      Alcotest.(check int) (Printf.sprintf "window %d indexed" i) i w.Sim.index)
    o.Sim.windows

(* ------------------------------- fleet ------------------------------ *)

let fleet_config =
  {
    Fleet.default_config with
    Fleet.instances = 6;
    windows = 6;
    requests_per_window = 30;
  }

let run_fleet ?(config = fleet_config) ?pool ~adaptive env =
  let info = Pibe.Env.info env in
  let prog = info.Pibe_kernel.Gen.prog in
  let training = Pibe.Env.lmbench_profile env in
  let phases = Workload.standard_phases info in
  match
    Fleet.run ~config ?pool ~adaptive ~prog ~spec:(quick_spec ()) ~training ~phases ()
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "fleet: %s" e

let test_fleet_jobs_invariant () =
  let env = Helpers.env () in
  let sequential = run_fleet ~adaptive:true env in
  let pool = Pool.create ~jobs:4 () in
  let parallel = run_fleet ~pool ~adaptive:true env in
  Alcotest.(check bool) "outcome identical at jobs 1 vs 4" true (sequential = parallel);
  Alcotest.(check (option string)) "clean run" None sequential.Fleet.aborted;
  (* the heterogeneous schedules actually are heterogeneous: odd
     instances run blended mixes *)
  (match sequential.Fleet.instances with
  | _ :: (second : Fleet.instance_record) :: _ ->
    Alcotest.(check bool) "odd instance runs a blend" true
      (String.contains second.Fleet.inst_mix '+')
  | _ -> Alcotest.fail "expected at least 2 instances")

let test_fleet_steady_never_fires () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let prog = info.Pibe_kernel.Gen.prog in
  let training = Pibe.Env.lmbench_profile env in
  (* one steady phase: no instance's mix ever departs from the training
     workload, so the aggregate must never drift *)
  match
    Fleet.run ~config:fleet_config ~adaptive:true ~prog ~spec:(quick_spec ()) ~training
      ~phases:[ Workload.lmbench_phase info ] ()
  with
  | Error e -> Alcotest.failf "fleet: %s" e
  | Ok o ->
    Alcotest.(check int) "no rebuilds" 0 o.Fleet.rebuilds;
    Alcotest.(check int) "no rollouts" 0 (List.length o.Fleet.rollouts);
    Alcotest.(check int) "no downtime" 0 o.Fleet.total_patch_cycles;
    List.iter
      (fun (r : Fleet.instance_record) ->
        Alcotest.(check int)
          (Printf.sprintf "instance %d never patched" r.Fleet.inst_id)
          0 r.Fleet.inst_patches)
      o.Fleet.instances

let test_fleet_staged_promotion () =
  let env = Helpers.env () in
  let o = run_fleet ~adaptive:true env in
  Alcotest.(check (option string)) "clean run" None o.Fleet.aborted;
  Alcotest.(check bool) "drift fired" true (o.Fleet.rebuilds >= 1);
  let promoted =
    List.filter (fun (r : Fleet.rollout) -> r.Fleet.ro_status = Fleet.Promoted) o.Fleet.rollouts
  in
  Alcotest.(check bool) "at least one promotion" true (promoted <> []);
  List.iter
    (fun (r : Fleet.rollout) ->
      Alcotest.(check int) "canary is instance 0" 0 r.Fleet.ro_canary;
      Alcotest.(check bool) "decision after firing" true (r.Fleet.ro_decided > r.Fleet.ro_fired))
    promoted;
  (* promotion patched every instance, and each paid its own downtime *)
  List.iter
    (fun (r : Fleet.instance_record) ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d patched" r.Fleet.inst_id)
        true
        (r.Fleet.inst_patches >= 1 && r.Fleet.inst_patch_cycles > 0))
    o.Fleet.instances;
  (* the batched aggregator ran: one detection merge per steady window at
     least, each consuming every live shard snapshot *)
  Alcotest.(check bool) "merges happened" true (o.Fleet.merges > 0);
  Alcotest.(check bool) "merges are batched" true
    (o.Fleet.profiles_merged >= o.Fleet.merges * fleet_config.Fleet.instances)

let test_fleet_canary_gates_rollout () =
  let env = Helpers.env () in
  (* a negative tolerance makes the canary evaluation unpassable: drift
     still fires and patches the canary, but the fleet must never be *)
  let config = { fleet_config with Fleet.promote_tolerance_pct = -100.0 } in
  let o = run_fleet ~config ~adaptive:true env in
  Alcotest.(check bool) "drift fired" true (o.Fleet.rebuilds >= 1);
  Alcotest.(check bool) "rollouts recorded" true (o.Fleet.rollouts <> []);
  List.iter
    (fun (r : Fleet.rollout) ->
      Alcotest.(check string) "every rollout rejected" "rejected"
        (Fleet.rollout_status_name r.Fleet.ro_status))
    o.Fleet.rollouts;
  List.iter
    (fun (r : Fleet.instance_record) ->
      if r.Fleet.inst_id = 0 then
        (* the canary was patched to the candidate and rolled back *)
        Alcotest.(check bool) "canary patched and rolled back" true
          (r.Fleet.inst_patches >= 2)
      else
        Alcotest.(check int)
          (Printf.sprintf "instance %d untouched" r.Fleet.inst_id)
          0 r.Fleet.inst_patches)
    o.Fleet.instances

(* ------------------------- collector output ------------------------- *)

(* What the collector produces on the quick kernel, pinned as digests:
   the training profile, an on-image profile with its lift stats, and
   adaptive Sim outcomes in both collection regimes (rebuilds, then each
   window's cycles and drift bits).  Anything that changes what the
   collector counts moves one of them. *)
let collector_output_digests () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let md5 s = Digest.to_hex (Digest.string s) in
  let training = Profile.to_string (Pibe.Env.lmbench_profile env) in
  let on_image, (st : Pibe_profile.Collector.lift_stats) =
    let built = Pibe.Env.build env (Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses) in
    Pibe.Pipeline.profile_built built ~run:(fun engine ->
        let rng = Pibe_util.Rng.create 5 in
        List.iter
          (fun (op : Workload.op) ->
            for _ = 1 to 5 do
              op.Workload.run engine rng
            done)
          (Pibe.Env.ops env))
  in
  let stats =
    Pibe_profile.Collector.
      [
        st.lifted_pairs;
        st.dropped_pairs;
        st.recovered_instances;
        st.unrecovered_instances;
        st.recovered_weight;
      ]
  in
  let phases =
    [ (Workload.lmbench_phase info, 2); (Workload.phase_of_mix (Workload.dbench info), 6) ]
  in
  let sim profile_on_deployed =
    let o =
      run_sim ~config:{ sim_config with Sim.profile_on_deployed } ~adaptive:true ~phases env
    in
    md5
      (String.concat "\n"
         (string_of_int o.Sim.rebuilds
         :: List.map
              (fun (w : Sim.window_record) -> Printf.sprintf "%d %h" w.Sim.cycles w.Sim.distance)
              o.Sim.windows))
  in
  [
    ("training profile", md5 training);
    ("on-image profile", md5 (Profile.to_string on_image));
    ("on-image stats", String.concat " " (List.map string_of_int stats));
    ("sim, pristine shadow", sim false);
    ("sim, on the deployed image", sim true);
  ]

let test_collector_output_pinned () =
  Alcotest.(check (list (pair string string)))
    "collector output"
    [
      ("training profile", "9b464a801be638f3eddc0946dc831c15");
      ("on-image profile", "dccea40bc1abc1da2207fd06dbafb383");
      ("on-image stats", "147 0 307 35 5077");
      ("sim, pristine shadow", "fc66675cd6284dc88a90a8c9b9c157ce");
      ("sim, on the deployed image", "437b4821d20371f9fa106768e4089d09");
    ]
    (collector_output_digests ())

let suite =
  [
    ("store decay and eviction", `Quick, test_store_decay_and_eviction);
    ("store ring ownership and snapshots", `Quick, test_store_owned_and_snapshots);
    ("store snapshots are copies", `Quick, test_store_observe_copies);
    ("store validates parameters", `Quick, test_store_validation);
    ("drift distance properties", `Quick, test_distance_properties);
    ("detector hysteresis", `Quick, test_detector_hysteresis);
    ("controller: identical rebuild is free", `Slow, test_controller_identical_rebuild_is_free);
    ("controller rejects bad specs", `Quick, test_controller_rejects_bad_spec);
    ("steady workload never fires", `Slow, test_steady_workload_never_fires);
    ("phased workload adapts", `Slow, test_phased_workload_adapts);
    ("simulation is deterministic", `Slow, test_sim_deterministic);
    ("abort keeps completed windows", `Slow, test_sim_abort_preserves_windows);
    ("fleet outcome independent of jobs", `Slow, test_fleet_jobs_invariant);
    ("fleet steady workload never fires", `Slow, test_fleet_steady_never_fires);
    ("fleet staged promotion", `Slow, test_fleet_staged_promotion);
    ("fleet canary gates rollout", `Slow, test_fleet_canary_gates_rollout);
    ("collector output pinned", `Slow, test_collector_output_pinned);
  ]
