(* The core library's non-experiment pieces: configuration naming, the
   measurement harness, environment caching, and the reproduction
   report. *)

module Stats = Pibe_util.Stats

let test_config_names () =
  Alcotest.(check string) "lto" "none no-opt" (Pibe.Config.name Pibe.Config.lto);
  let full =
    {
      Pibe.Config.defenses = Pibe_harden.Pass.all_defenses;
      opt = Pibe.Config.Full { icp_budget = 99.0; inline_budget = 99.9; lax = true };
    }
  in
  Alcotest.(check string) "full" "all-defenses icp(99%)+inlining(99.9%)+lax"
    (Pibe.Config.name full);
  Alcotest.(check string) "icp"
    "retpolines icp(99.999%)"
    (Pibe.Config.name (Pibe.Exp_common.icp_only ~budget:99.999 Pibe.Exp_common.retpolines_only))

let test_best_config_shape () =
  (match Pibe.Exp_common.best_config Pibe.Exp_common.retpolines_only with
  | { Pibe.Config.opt = Pibe.Config.Icp_only _; _ } -> ()
  | _ -> Alcotest.fail "retpolines-only should use ICP only");
  match Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses with
  | { Pibe.Config.opt = Pibe.Config.Full { lax = true; _ }; _ } -> ()
  | _ -> Alcotest.fail "all defenses should use the lax full configuration"

let test_measure_deterministic () =
  let env = Helpers.env () in
  let built = Pibe.Env.build env Pibe.Config.lto in
  let op = Pibe_kernel.Workload.lmbench_op (Pibe.Env.info env) "read" in
  let run () =
    Pibe.Measure.op_latency ~settings:Pibe.Measure.quick_settings
      (Pibe.Pipeline.engine built) op
  in
  Alcotest.(check (float 1e-9)) "same latency" (run ()) (run ())

let test_measure_throughput () =
  Alcotest.(check (float 1e-9)) "1M cycles -> 1 req/Mcycle" 1.0
    (Pibe.Measure.throughput ~kernel_cycles:500_000.0 ~user_cycles:500_000.0)

let test_env_caches_builds () =
  let env = Helpers.env () in
  let a = Pibe.Env.build env Pibe.Config.lto in
  let b = Pibe.Env.build env Pibe.Config.lto in
  Alcotest.(check bool) "physically cached" true (a == b);
  let l1 = Pibe.Env.latencies env Pibe.Config.lto in
  let l2 = Pibe.Env.latencies env Pibe.Config.lto in
  Alcotest.(check bool) "latency suite cached" true (l1 == l2)

(* Parallel cells racing on one cold configuration (and on the cold
   kernel and profile beneath it) all get the build that was recorded
   first, physically. *)
let test_env_parallel_builds_shared () =
  let env = Pibe.Env.quick ~jobs:2 () in
  match Pibe.Env.par_map env (Pibe.Env.build env) (List.init 4 (fun _ -> Pibe.Config.lto)) with
  | first :: rest ->
    Alcotest.(check bool) "one physical build" true (List.for_all (( == ) first) rest);
    Alcotest.(check bool) "later lookups hit it" true (Pibe.Env.build env Pibe.Config.lto == first)
  | [] -> Alcotest.fail "par_map dropped its items"

let test_env_overheads_self_zero () =
  let env = Helpers.env () in
  let ovs = Pibe.Env.overheads env ~baseline:Pibe.Config.lto Pibe.Config.lto in
  List.iter (fun (_, v) -> Alcotest.(check (float 1e-9)) "zero" 0.0 v) ovs

let contains needle s =
  let n = String.length needle and h = String.length s in
  let rec go i = i + n <= h && (String.equal (String.sub s i n) needle || go (i + 1)) in
  go 0

let test_report_generates () =
  let env = Helpers.env () in
  let md = Pibe.Report.generate env in
  Alcotest.(check bool) "has title" true (contains "PIBE reproduction report" md);
  List.iter
    (fun section -> Alcotest.(check bool) (section ^ " present") true (contains section md))
    [ "Table 6"; "Table 5"; "Table 3"; "Table 7" ];
  (* each section carries a verdict; on the quick env all should hold *)
  Alcotest.(check bool) "no divergence" true (not (contains "DIVERGES" md));
  Alcotest.(check bool) "paper values embedded" true (contains "+149.1%" md)

let test_report_reference_data () =
  Alcotest.(check int) "table6 rows" 5 (List.length Pibe.Report.paper_table6);
  Alcotest.(check int) "table5 rows" 6 (List.length Pibe.Report.paper_table5_geomeans);
  let _, lto_all, pibe_all = List.nth Pibe.Report.paper_table6 4 in
  Alcotest.(check (float 0.01)) "paper all-defenses LTO" 149.1 lto_all;
  Alcotest.(check (float 0.01)) "paper all-defenses PIBE" 10.6 pibe_all

let test_perf_attribution () =
  let info = Helpers.kernel () in
  let op = Pibe_kernel.Workload.lmbench_op info "read" in
  let p =
    Pibe.Perf.profile Pibe_cpu.Engine.default_config info.Pibe_kernel.Gen.prog
      ~run:(fun engine ->
        let rng = Pibe_util.Rng.create 7 in
        for _ = 1 to 50 do
          op.Pibe_kernel.Workload.run engine rng
        done)
  in
  let rows = Pibe.Perf.rows p in
  Alcotest.(check bool) "many functions attributed" true (List.length rows > 10);
  (* self cycles sum to total (every cycle lands somewhere) *)
  let sum = List.fold_left (fun acc (r : Pibe.Perf.row) -> acc + r.Pibe.Perf.self_cycles) 0 rows in
  Alcotest.(check int) "self cycles account for the run" (Pibe.Perf.total_cycles p) sum;
  (* the hot read path dominates *)
  let vfs = List.find (fun (r : Pibe.Perf.row) -> r.Pibe.Perf.func = "vfs_read") rows in
  Alcotest.(check int) "vfs_read entered once per iteration" 50 vfs.Pibe.Perf.calls;
  Alcotest.(check bool) "inclusive >= self" true
    (vfs.Pibe.Perf.inclusive_cycles >= vfs.Pibe.Perf.self_cycles);
  Alcotest.(check int) "top is bounded" 3 (List.length (Pibe.Perf.top ~n:3 p))

let suite =
  [
    ("config names", `Quick, test_config_names);
    ("best config shapes", `Quick, test_best_config_shape);
    ("measurement deterministic", `Quick, test_measure_deterministic);
    ("throughput formula", `Quick, test_measure_throughput);
    ("environment caches builds", `Quick, test_env_caches_builds);
    ("environment shares parallel builds", `Quick, test_env_parallel_builds_shared);
    ("overheads vs self are zero", `Quick, test_env_overheads_self_zero);
    ("report generates with verdicts", `Slow, test_report_generates);
    ("report reference data", `Quick, test_report_reference_data);
    ("perf flat profile attribution", `Quick, test_perf_attribution);
  ]
