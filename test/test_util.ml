(* Unit and property tests for pibe_util: Rng, Memo, Stats, Tbl. *)

module Memo = Pibe_util.Memo
module Rng = Pibe_util.Rng
module Stats = Pibe_util.Stats
module Tbl = Pibe_util.Tbl

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let da = List.init 8 (fun _ -> Rng.int64 a) in
  let db = List.init 8 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (da <> db)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_decorrelates () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let da = List.init 8 (fun _ -> Rng.int64 a) in
  let db = List.init 8 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (da <> db)

let test_rng_weighted () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let v = Rng.weighted rng [| (1, "a"); (0, "b"); (3, "c") |] in
    Alcotest.(check bool) "never zero-weight" true (v <> "b")
  done

let test_rng_zipf_skew () =
  let rng = Rng.create 13 in
  let counts = Array.make 8 0 in
  let d = Rng.zipf_dist ~n:8 ~s:1.2 in
  for _ = 1 to 4000 do
    let v = Rng.zipf rng d in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > counts.(7) * 3);
  Alcotest.(check bool) "all in range" true (Array.for_all (fun c -> c >= 0) counts)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let prop_geometric_nonneg =
  QCheck.Test.make ~name:"geometric draws are non-negative" ~count:200
    QCheck.(pair small_int (float_range 0.05 0.95))
    (fun (seed, p) ->
      let rng = Rng.create seed in
      Rng.geometric rng ~p >= 0)

(* ------------------------------- Memo ------------------------------ *)

(* The reference model: an MRU list of at most [cap] keys.  A lookup hits
   when the key is listed and moves it to the front; a miss prepends it
   and drops whatever falls past [cap]. *)
let model_get cap model k =
  if List.mem k model then (true, k :: List.filter (( <> ) k) model)
  else (false, List.filteri (fun i _ -> i < cap) (k :: model))

(* Drives a fresh memo through [ks] and checks every lookup against the
   model: the value, hit or miss, the key order and the counts. *)
let matches_model ?hash (cap, ks) =
  let memo = Memo.create ~capacity:cap ?hash ~equal:Int.equal () in
  let model = ref [] and hits = ref 0 and misses = ref 0 in
  List.for_all
    (fun k ->
      let computed = ref false in
      let v = Memo.get memo k (fun k' -> computed := true; k' * 10) in
      let hit, model' = model_get cap !model k in
      model := model';
      incr (if hit then hits else misses);
      v = k * 10 && hit = not !computed && Memo.keys memo = !model
      && Memo.stats memo = (!hits, !misses)
      && List.for_all (fun k -> Memo.mem memo k = List.mem k !model) [ 0; k; 11 ])
    ks

let small_lookups =
  QCheck.(pair (oneofl [ 1; 2; 8 ]) (list_of_size (QCheck.Gen.int_range 0 60) (int_bound 11)))

(* The unhashed and the hashed leg see the same lookups. *)
let prop_memo_matches_model =
  QCheck.Test.make ~name:"memo matches an MRU reference model" ~count:300 small_lookups
    (fun lookups -> matches_model lookups && matches_model ~hash:Hashtbl.hash lookups)

(* Enough keys that the hashed index doubles several times, evicting
   or not. *)
let prop_memo_hashed_grows =
  QCheck.Test.make ~name:"hashed memo matches the model as its index grows" ~count:100
    QCheck.(
      pair
        (oneofl [ 3; 40; 100; max_int ])
        (list_of_size (QCheck.Gen.int_range 0 400) (int_bound 150)))
    (matches_model ~hash:Hashtbl.hash)

(* Every key in one bucket: promotion and eviction within a shared chain
   follow the same model. *)
let prop_memo_shared_bucket =
  QCheck.Test.make ~name:"hashed memo with one shared bucket matches the model" ~count:300
    small_lookups
    (matches_model ~hash:(fun _ -> 7))

(* Two domains miss on one cold key at once: each compute waits (up to
   10 s of CPU time, so a memo that computed under its lock fails instead
   of hanging) until the other has started, so both run.  The first to
   finish is recorded and the other adopts it.  Once unhashed, once
   hashed. *)
let test_memo_race_adopts () =
  List.iter
    (fun (leg, hash) ->
      let memo = Memo.create ~capacity:4 ?hash ~equal:String.equal () in
      let started = Atomic.make 0 in
      let compute _ =
        Atomic.incr started;
        let deadline = Sys.time () +. 10.0 in
        while Atomic.get started < 2 && Sys.time () < deadline do
          Domain.cpu_relax ()
        done;
        ref 0
      in
      let other = Domain.spawn (fun () -> Memo.get memo "k" compute) in
      let mine = Memo.get memo "k" compute in
      let theirs = Domain.join other in
      Alcotest.(check int) (leg ^ ": both computed") 2 (Atomic.get started);
      Alcotest.(check bool) (leg ^ ": physically one value") true (mine == theirs);
      Alcotest.(check (list string)) (leg ^ ": one entry kept") [ "k" ] (Memo.keys memo);
      Alcotest.(check (pair int int)) (leg ^ ": both counted as misses") (0, 2) (Memo.stats memo);
      Alcotest.(check bool)
        (leg ^ ": later lookups hit it")
        true
        (Memo.get memo "k" compute == mine))
    [ ("unhashed", None); ("hashed", Some Hashtbl.hash) ]

let test_memo_raising_compute () =
  List.iter
    (fun (leg, hash) ->
      let memo = Memo.create ~capacity:2 ?hash ~equal:Int.equal () in
      Alcotest.check_raises (leg ^ ": the exception escapes") Exit (fun () ->
          ignore (Memo.get memo 1 (fun _ -> raise Exit)));
      Alcotest.(check bool) (leg ^ ": nothing recorded") false (Memo.mem memo 1);
      Alcotest.(check int) (leg ^ ": the lock is free") 7 (Memo.get memo 1 (fun _ -> 7));
      Alcotest.(check int) (leg ^ ": the retry is recorded") 7 (Memo.get memo 1 (fun _ -> 8));
      Alcotest.(check (pair int int)) (leg ^ ": two misses, one hit") (1, 2) (Memo.stats memo))
    [ ("unhashed", None); ("hashed", Some Hashtbl.hash) ]

(* ------------------------------ Stats ------------------------------ *)

let test_median_odd () = check_float "median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ])
let test_median_even () = check_float "median" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])
let test_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])
let test_geomean () = check_float "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_geomean_overhead_sign () =
  let v = Stats.geomean_overhead [ 10.0; -10.0 ] in
  Alcotest.(check bool) "slightly negative" true (v < 0.0 && v > -1.0)

let test_overhead_pct () =
  check_float "overhead" 50.0 (Stats.overhead_pct ~baseline:100.0 150.0);
  check_float "speedup" (-25.0) (Stats.overhead_pct ~baseline:100.0 75.0)

let test_stddev () =
  check_float "singleton" 0.0 (Stats.stddev [ 42.0 ]);
  check_float "pair" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0 ])

let test_ratio_pct () =
  check_float "half" 50.0 (Stats.ratio_pct ~num:1 ~den:2);
  check_float "zero den" 0.0 (Stats.ratio_pct ~num:5 ~den:0)

(* Pins the nearest-rank edge behaviors documented in stats.mli. *)
let test_percentile_edges () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  check_float "p=0 is the minimum" 1.0 (Stats.percentile 0.0 xs);
  check_float "p=100 is the maximum" 4.0 (Stats.percentile 100.0 xs);
  check_float "p=50 nearest rank" 2.0 (Stats.percentile 50.0 xs);
  check_float "singleton at p=0" 7.0 (Stats.percentile 0.0 [ 7.0 ]);
  check_float "singleton at p=50" 7.0 (Stats.percentile 50.0 [ 7.0 ]);
  check_float "singleton at p=100" 7.0 (Stats.percentile 100.0 [ 7.0 ]);
  check_float "p above 100 clamps to the maximum" 4.0 (Stats.percentile 150.0 xs);
  check_float "p below 0 clamps to the minimum" 1.0 (Stats.percentile (-5.0) xs)

(* All-speedup lists stay in ratio space as long as each element is above
   -100%; at or below -100% the ratio is non-positive and geomean rejects
   it — both documented in stats.mli. *)
let test_geomean_overhead_all_speedups () =
  let v = Stats.geomean_overhead [ -10.0; -20.0 ] in
  check_float "gm of 0.9 and 0.8 ratios" (100.0 *. (sqrt (0.9 *. 0.8) -. 1.0)) v;
  Alcotest.(check bool) "still a speedup" true (v < 0.0);
  Alcotest.(check bool) "bounded by the extremes" true (v > -20.0 && v < -10.0);
  check_float "uniform speedup is itself" (-25.0)
    (Stats.geomean_overhead [ -25.0; -25.0; -25.0 ]);
  Alcotest.check_raises "-100% is rejected"
    (Invalid_argument "Stats.geomean: non-positive element") (fun () ->
      ignore (Stats.geomean_overhead [ -100.0 ]))

let test_empty_raises () =
  Alcotest.check_raises "mean []" (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let prop_median_bounded =
  QCheck.Test.make ~name:"median lies between min and max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.median xs in
      m >= List.fold_left min infinity xs && m <= List.fold_left max neg_infinity xs)

let prop_geomean_overhead_roundtrip =
  QCheck.Test.make ~name:"geomean of identical overheads is that overhead" ~count:200
    QCheck.(float_range (-50.0) 200.0)
    (fun p ->
      let g = Stats.geomean_overhead [ p; p; p ] in
      Float.abs (g -. p) < 1e-6)

(* ------------------------------- Tbl ------------------------------- *)

let test_tbl_cells () =
  Alcotest.(check string) "pct pos" "+3.1%" (Tbl.cell_text (Tbl.Pct 3.14));
  Alcotest.(check string) "pct neg" "-2.0%" (Tbl.cell_text (Tbl.Pct (-2.0)));
  Alcotest.(check string) "float" "1.50" (Tbl.cell_text (Tbl.Float 1.5));
  Alcotest.(check string) "int" "7" (Tbl.cell_text (Tbl.Int 7));
  Alcotest.(check string) "empty" "" (Tbl.cell_text Tbl.Empty)

let test_tbl_rows_and_lookup () =
  let t = Tbl.create ~title:"t" ~columns:[ "a"; "b" ] in
  Tbl.add_row t [ Tbl.Str "x"; Tbl.Int 1 ];
  Tbl.add_separator t;
  Tbl.add_row t [ Tbl.Str "y"; Tbl.Int 2 ];
  Alcotest.(check int) "two data rows" 2 (List.length (Tbl.rows t));
  Alcotest.(check bool) "find x" true (Tbl.find_row t "x" <> None);
  Alcotest.(check bool) "find z" true (Tbl.find_row t "z" = None)

let test_tbl_pads_rows () =
  let t = Tbl.create ~title:"t" ~columns:[ "a"; "b"; "c" ] in
  Tbl.add_row t [ Tbl.Str "x" ];
  (match Tbl.rows t with
  | [ row ] -> Alcotest.(check int) "padded" 3 (List.length row)
  | _ -> Alcotest.fail "expected one row");
  let rendered = Tbl.to_string t in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_tbl_render_contains () =
  let t = Tbl.create ~title:"My Title" ~columns:[ "col" ] in
  Tbl.add_row t [ Tbl.Str "value" ];
  let s = Tbl.to_string t in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.equal (String.sub s i n) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title present" true (contains "My Title");
  Alcotest.(check bool) "value present" true (contains "value")

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng split decorrelates", `Quick, test_rng_split_decorrelates);
    ("rng weighted skips zero", `Quick, test_rng_weighted);
    ("rng zipf skew", `Quick, test_rng_zipf_skew);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    Helpers.qcheck_to_alcotest prop_geometric_nonneg;
    Helpers.qcheck_to_alcotest prop_memo_matches_model;
    Helpers.qcheck_to_alcotest prop_memo_hashed_grows;
    Helpers.qcheck_to_alcotest prop_memo_shared_bucket;
    ("memo race adopts the first entry", `Quick, test_memo_race_adopts);
    ("memo raising compute records nothing", `Quick, test_memo_raising_compute);
    ("stats median odd", `Quick, test_median_odd);
    ("stats median even", `Quick, test_median_even);
    ("stats mean", `Quick, test_mean);
    ("stats geomean", `Quick, test_geomean);
    ("stats geomean overhead sign", `Quick, test_geomean_overhead_sign);
    ("stats percentile edges", `Quick, test_percentile_edges);
    ("stats geomean overhead of speedups", `Quick, test_geomean_overhead_all_speedups);
    ("stats overhead pct", `Quick, test_overhead_pct);
    ("stats stddev", `Quick, test_stddev);
    ("stats ratio pct", `Quick, test_ratio_pct);
    ("stats empty raises", `Quick, test_empty_raises);
    Helpers.qcheck_to_alcotest prop_median_bounded;
    Helpers.qcheck_to_alcotest prop_geomean_overhead_roundtrip;
    ("tbl cell rendering", `Quick, test_tbl_cells);
    ("tbl rows and lookup", `Quick, test_tbl_rows_and_lookup);
    ("tbl pads short rows", `Quick, test_tbl_pads_rows);
    ("tbl render contains title/cells", `Quick, test_tbl_render_contains);
  ]
