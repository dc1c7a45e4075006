module Profile = Pibe_profile.Profile
module Engine = Pibe_cpu.Engine
module Rng = Pibe_util.Rng
module Pool = Pibe_util.Pool
module Workload = Pibe_kernel.Workload
module Trace = Pibe_trace.Trace

type config = {
  instances : int;
  windows : int;
  requests_per_window : int;
  store_window : int;
  decay : float;
  drift_threshold : float;
  hysteresis : int;
  top_k : int;
  max_reopts : int;
  canary_windows : int;
  promote_tolerance_pct : float;
  seed : int;
}

let default_config =
  {
    instances = 8;
    windows = 9;
    requests_per_window = 60;
    store_window = 2;
    decay = 0.5;
    drift_threshold = 0.25;
    hysteresis = 2;
    top_k = 16;
    max_reopts = 3;
    canary_windows = 1;
    promote_tolerance_pct = 1.0;
    seed = 23;
  }

type instance_record = {
  inst_id : int;
  inst_mix : string;
  inst_cycles : int;
  inst_patch_cycles : int;
  inst_patches : int;
}

type rollout_status = Promoted | Rejected | Pending

let rollout_status_name = function
  | Promoted -> "promoted"
  | Rejected -> "rejected"
  | Pending -> "pending"

type rollout = {
  ro_fired : int;
  ro_canary : int;
  ro_decided : int;
  ro_status : rollout_status;
  ro_sites : int;
}

type outcome = {
  instances : instance_record list;
  rollouts : rollout list;
  rebuilds : int;
  merges : int;
  profiles_merged : int;
  total_cycles : int;
  total_patch_cycles : int;
  aborted : string option;
}

(* ---------------------------- instances ----------------------------- *)

(* Per-instance phase schedules over the caller's base phases.  The fleet
   follows one macro trend (phase 0, then 1, ...), but no two instances
   see quite the same traffic: transition boundaries are jittered by up
   to one window per instance (the fleet's phase change is a ramp, not a
   step), and odd-numbered instances run a 3:1 blend of their current
   phase with the next one — machines whose mix never matches a
   canonical workload.  Everything is a pure function of (instance,
   window), so schedules are identical across variants and job counts. *)
let schedules ~phases ~instances ~windows =
  let base = Array.of_list phases in
  let n = Array.length base in
  let seg = max 1 (windows / n) in
  Array.init instances (fun i ->
      Array.init windows (fun w ->
          let w' = max 0 (w + (i mod 3) - 1) in
          let s = min (n - 1) (w' / seg) in
          let p = base.(s) in
          if i land 1 = 1 && n > 1 then
            let q = base.((s + 1) mod n) in
            Workload.blend
              (p.Workload.phase_name ^ "+" ^ q.Workload.phase_name)
              [ (p, 3); (q, 1) ]
          else p))

let mix_descriptor sched =
  let dedup =
    Array.fold_left
      (fun acc (p : Workload.phase) ->
        match acc with
        | x :: _ when String.equal x p.Workload.phase_name -> acc
        | _ -> p.Workload.phase_name :: acc)
      [] sched
  in
  String.concat " -> " (List.rev dedup)

type wresult = {
  w_cycles : int;  (* what this instance's deployed image paid *)
  w_counter_cycles : int;  (* counterfactual on the fleet image; 0 unless requested *)
  w_profile : Profile.t;  (* origin-id window profile (pristine kernel) *)
}

(* One instance-window: replay the same seeded request stream on the
   instance's deployed image (cycle accounting), optionally on a
   counterfactual image (canary evaluation), and on a profiling build of
   the pristine kernel (the shard's window profile) — [Sim.run_window]'s
   dual replay, per instance. *)
let run_instance_window ~requests ~prog ~image ~counterfactual ~phase rng =
  let rng_prof = Rng.copy rng in
  let rng_old = Rng.copy rng in
  let deployed = Sim.replay ~requests ~image ~phase rng in
  Engine.trace_counters ~cat:"online" ~name:"fleet-deployed" deployed;
  let w_counter_cycles =
    match counterfactual with
    | None -> 0
    | Some old_image -> Engine.cycles (Sim.replay ~requests ~image:old_image ~phase rng_old)
  in
  {
    w_cycles = Engine.cycles deployed;
    w_counter_cycles;
    w_profile = Sim.profile_window ~requests ~prog ~phase rng_prof;
  }

(* --------------------------- fleet controller ----------------------- *)

type canary_state = {
  cand : Controller.candidate;
  fired : int;
  sites : int;  (* per-instance live-patch sites of the candidate *)
  mutable new_cycles : int;  (* canary on the candidate image *)
  mutable old_cycles : int;  (* same stream on the fleet image *)
  mutable seen : int;  (* evaluation windows consumed *)
}

type stage = Steady | Canary of canary_state

let run ?(config = default_config) ?(verify = false) ?pool ~adaptive ~prog ~spec
    ~training ~phases () =
  let cfg = config in
  if cfg.instances < 1 then invalid_arg "Fleet.run: instances must be >= 1";
  if cfg.windows < 1 then invalid_arg "Fleet.run: windows must be >= 1";
  if cfg.canary_windows < 0 then invalid_arg "Fleet.run: canary_windows must be >= 0";
  if phases = [] then invalid_arg "Fleet.run: phases must be non-empty";
  match Controller.create ~verify ~prog ~spec ~profile:training () with
  | Error e -> Error e
  | Ok controller ->
    let pool = match pool with Some p -> p | None -> Pool.create ~jobs:1 () in
    let n = cfg.instances in
    let scheds = schedules ~phases ~instances:n ~windows:cfg.windows in
    let images = Array.make n (Controller.image controller) in
    let shards =
      Array.init n (fun _ -> Store.create ~window:cfg.store_window ~decay:cfg.decay ())
    in
    let detector =
      Drift.detector ~threshold:cfg.drift_threshold ~hysteresis:cfg.hysteresis
    in
    let master = Rng.create cfg.seed in
    let cycles = Array.make n 0 in
    let patch_cycles = Array.make n 0 in
    let patches = Array.make n 0 in
    let rollouts = ref [] in
    let rebuilds = ref 0 in
    let merges = ref 0 in
    let profiles_merged = ref 0 in
    let stage = ref Steady in
    (* The canary is the lowest-id instance: deterministic, and (by the
       schedule construction) an un-skewed one following the macro trend. *)
    let canary = 0 in
    let ids = List.init n (fun i -> i) in
    let patch_instance i to_image =
      let sites = Controller.patch_sites ~from_image:images.(i) ~to_image in
      let pc = Controller.patch_cycles controller ~sites in
      images.(i) <- to_image;
      patch_cycles.(i) <- patch_cycles.(i) + pc;
      patches.(i) <- patches.(i) + 1;
      pc
    in
    (* Batched shard merge: flatten every instance ring into one weighted
       part list and round once, instead of merging per instance and
       re-merging the results — one pass over all live counters, however
       large the fleet. *)
    let merge_shards parts =
      merges := !merges + 1;
      profiles_merged := !profiles_merged + List.length parts;
      let merged =
        Trace.span ~cat:"online" "online:fleet-merge"
          ~args:
            (if Trace.enabled () then [ ("parts", Trace.Int (List.length parts)) ]
             else [])
          (fun () -> Profile.merge_weighted parts)
      in
      if Trace.enabled () then
        Trace.counter ~cat:"online" "fleet-merge"
          [
            ("parts", Trace.Int (List.length parts));
            ("merges", Trace.Int !merges);
          ];
      merged
    in
    let decide ~window (st : canary_state) =
      let args =
        if Trace.enabled () then
          [
            ("window", Trace.Int window);
            ("fired", Trace.Int st.fired);
            ("new_cycles", Trace.Int st.new_cycles);
            ("old_cycles", Trace.Int st.old_cycles);
          ]
        else []
      in
      Trace.span ~cat:"online" "online:canary" ~args (fun () ->
          let ok =
            float_of_int st.new_cycles
            <= float_of_int st.old_cycles
               *. (1.0 +. (cfg.promote_tolerance_pct /. 100.0))
          in
          if ok then begin
            (* fleet-wide patch: every non-canary instance pays its own
               stop-machine window *)
            List.iter
              (fun j -> if j <> canary then ignore (patch_instance j st.cand.Controller.cand_image))
              ids;
            (* the candidate becomes the fleet image and its training
               profile the new drift reference (the fleet's own patch
               cycles are charged per instance above, so the commit's
               aggregate accounting is not reused) *)
            ignore (Controller.commit controller st.cand)
          end
          else
            (* roll the canary back to the fleet image; the rebuild spent
               its budget but the fleet never patched *)
            ignore (patch_instance canary (Controller.image controller));
          Drift.reset detector;
          rollouts :=
            {
              ro_fired = st.fired;
              ro_canary = canary;
              ro_decided = window;
              ro_status = (if ok then Promoted else Rejected);
              ro_sites = st.sites;
            }
            :: !rollouts;
          stage := Steady)
    in
    let aborted = ref None in
    (try
       for w = 0 to cfg.windows - 1 do
         (* derive every instance's window stream on the coordinator, in
            instance order, so streams are independent of scheduling *)
         let rngs = Array.init n (fun _ -> Rng.split master) in
         let span_args =
           if Trace.enabled () then
             [
               ("window", Trace.Int w);
               ("instances", Trace.Int n);
               ("adaptive", Trace.Int (if adaptive then 1 else 0));
             ]
           else []
         in
         Trace.span ~cat:"online" "online:fleet" ~args:span_args (fun () ->
             let counterfactual =
               match !stage with
               | Canary _ -> Some (Controller.image controller)
               | Steady -> None
             in
             let results =
               Array.of_list
                 (Pool.map pool
                    (fun i ->
                      run_instance_window ~requests:cfg.requests_per_window ~prog
                        ~image:images.(i)
                        ~counterfactual:(if i = canary then counterfactual else None)
                        ~phase:scheds.(i).(w) rngs.(i))
                    ids)
             in
             (* ingest: each window profile is freshly lifted and handed to
                its instance's shard without a copy *)
             Array.iteri
               (fun i r ->
                 cycles.(i) <- cycles.(i) + r.w_cycles;
                 Store.observe_owned shards.(i) r.w_profile)
               results;
             (match !stage with
             | Canary st ->
               st.new_cycles <- st.new_cycles + results.(canary).w_cycles;
               st.old_cycles <- st.old_cycles + results.(canary).w_counter_cycles;
               st.seen <- st.seen + 1
             | Steady -> ());
             match !stage with
             | Canary st -> if st.seen >= cfg.canary_windows then decide ~window:w st
             | Steady ->
               if adaptive && !rebuilds < cfg.max_reopts then begin
                 (* detect on the freshest window across the fleet (fast
                    reaction), retrain on the decayed shard aggregate
                    (stable data) — the same split as the single-instance
                    loop, lifted to fleet scope *)
                 let fresh =
                   merge_shards
                     (Array.to_list (Array.map (fun r -> (1.0, r.w_profile)) results))
                 in
                 let dist =
                   Drift.distance ~k:cfg.top_k (Controller.reference controller) fresh
                 in
                 let decision = Drift.observe detector dist in
                 if Trace.enabled () then
                   Trace.counter ~cat:"online" "fleet-drift"
                     [
                       ("window", Trace.Int w);
                       ("drift", Trace.Float dist);
                       ("fired", Trace.Int (if decision = Drift.Fire then 1 else 0));
                     ];
                 if decision = Drift.Fire then begin
                   let parts =
                     List.concat_map Store.weighted_snapshots (Array.to_list shards)
                   in
                   let aggregate = merge_shards parts in
                   let cand = Controller.prepare controller aggregate in
                   incr rebuilds;
                   let sites =
                     Controller.patch_sites ~from_image:images.(canary)
                       ~to_image:cand.Controller.cand_image
                   in
                   ignore (patch_instance canary cand.Controller.cand_image);
                   let st =
                     {
                       cand;
                       fired = w;
                       sites;
                       new_cycles = 0;
                       old_cycles = 0;
                       seen = 0;
                     }
                   in
                   if cfg.canary_windows = 0 then decide ~window:w st
                   else stage := Canary st
                 end
               end)
       done
     with e -> aborted := Some (Printexc.to_string e));
    (match !stage with
    | Canary st ->
      rollouts :=
        {
          ro_fired = st.fired;
          ro_canary = canary;
          ro_decided = -1;
          ro_status = Pending;
          ro_sites = st.sites;
        }
        :: !rollouts
    | Steady -> ());
    let instances =
      List.init n (fun i ->
          {
            inst_id = i;
            inst_mix = mix_descriptor scheds.(i);
            inst_cycles = cycles.(i);
            inst_patch_cycles = patch_cycles.(i);
            inst_patches = patches.(i);
          })
    in
    let total_patch_cycles = Array.fold_left ( + ) 0 patch_cycles in
    Ok
      {
        instances;
        rollouts = List.rev !rollouts;
        rebuilds = !rebuilds;
        merges = !merges;
        profiles_merged = !profiles_merged;
        total_cycles = Array.fold_left ( + ) 0 cycles + total_patch_cycles;
        total_patch_cycles;
        aborted = !aborted;
      }
