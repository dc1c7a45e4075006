(* Every registered experiment must run on the quick environment and
   produce the structure (and a few key semantic properties) the paper's
   artifact reports. *)

module Tbl = Pibe_util.Tbl
module Exp = Pibe.Experiments

let table id =
  let env = Helpers.env () in
  match Exp.find id with
  | Some e -> e.Exp.run env
  | None -> Alcotest.failf "experiment %s missing" id

let first id =
  match table id with
  | t :: _ -> t
  | [] -> Alcotest.failf "experiment %s produced no tables" id

let pct_of cell =
  let s = Tbl.cell_text cell in
  float_of_string (String.sub s 0 (String.length s - 1))

let test_registry_complete () =
  let ids = List.map (fun (e : Exp.t) -> e.Exp.id) Exp.all in
  List.iter
    (fun want ->
      Alcotest.(check bool) (want ^ " registered") true (List.mem want ids))
    ([
       "figure1"; "robustness"; "security"; "ablation"; "userspace"; "sensitivity";
       "v1scan"; "passes"; "online"; "fleet"; "frontier"; "stale"; "fixpoint";
     ]
    @ List.init 12 (fun i -> Printf.sprintf "table%d" (i + 1)));
  Alcotest.(check int) "25 experiments" 25 (List.length Exp.all)

let test_table1_shape () =
  let t = first "table1" in
  Alcotest.(check int) "9 defense rows" 9 (List.length (Tbl.rows t));
  (* transient defenses dominate the non-transient ones on SPEC *)
  let spec_pct label =
    match Tbl.find_row t label with
    | Some row -> pct_of (List.nth row 4)
    | None -> Alcotest.failf "row %s missing" label
  in
  Alcotest.(check bool) "all defenses >> llvm-cfi" true
    (spec_pct "all defenses" > spec_pct "LLVM-CFI" +. 10.0);
  Alcotest.(check bool) "retpolines visible on spec" true (spec_pct "retpolines" > 2.0)

let test_table2_shape () =
  let t = first "table2" in
  Alcotest.(check int) "20 ops + geomean" 21 (List.length (Tbl.rows t));
  match Tbl.find_row t "Geometric Mean" with
  | Some row ->
    Alcotest.(check bool) "PGO is a speedup" true (pct_of (List.nth row 5) < 0.0)
  | None -> Alcotest.fail "geomean row missing"

let test_table3_shape () =
  let t = first "table3" in
  match Tbl.find_row t "Geometric Mean" with
  | Some row ->
    let unopt = pct_of (List.nth row 1) in
    let js = pct_of (List.nth row 2) in
    let icp = pct_of (List.nth row 4) in
    Alcotest.(check bool) "icp < jumpswitches < unoptimized" true
      (icp < js && js < unopt)
  | None -> Alcotest.fail "geomean row missing"

let test_table4_shape () =
  let t = first "table4" in
  match Tbl.rows t with
  | [ row ] -> (
    match row with
    | _ :: Tbl.Int one_target :: rest ->
      let rest_sum =
        List.fold_left
          (fun acc c -> match c with Tbl.Int n -> acc + n | _ -> acc)
          0 rest
      in
      Alcotest.(check bool) "single-target sites dominate" true (one_target >= rest_sum / 2);
      Alcotest.(check bool) "multi-target sites exist" true (rest_sum > 0)
    | _ -> Alcotest.fail "unexpected row shape")
  | _ -> Alcotest.fail "expected one row"

let test_table5_shape () =
  let t = first "table5" in
  match Tbl.find_row t "Geometric Mean" with
  | Some row -> (
    match List.map Tbl.cell_text row with
    | _ :: cells ->
      let pcts = List.map (fun s -> float_of_string (String.sub s 0 (String.length s - 1))) cells in
      let noopt = List.nth pcts 0 and lax = List.nth pcts 5 in
      Alcotest.(check int) "six configurations" 6 (List.length pcts);
      Alcotest.(check bool) "order of magnitude" true (lax < noopt /. 5.0)
    | [] -> Alcotest.fail "empty row")
  | None -> Alcotest.fail "geomean row missing"

let test_table6_shape () =
  let t = first "table6" in
  Alcotest.(check int) "five defenses" 5 (List.length (Tbl.rows t));
  List.iter
    (fun label ->
      match Tbl.find_row t label with
      | Some row ->
        Alcotest.(check bool) (label ^ ": PIBE beats LTO") true
          (pct_of (List.nth row 2) < pct_of (List.nth row 1))
      | None -> Alcotest.failf "row %s missing" label)
    [ "Retpolines"; "Return retpolines"; "LVI-CFI"; "All" ]

let test_table7_shape () =
  let t = first "table7" in
  Alcotest.(check int) "3 benchmarks x 4 configs" 12 (List.length (Tbl.rows t));
  (* PIBE's throughput column beats no-optimization on every row *)
  List.iter
    (fun row ->
      match row with
      | [ _; _; _; unopt; pibe ] ->
        Alcotest.(check bool) "pibe >= unopt" true (pct_of pibe >= pct_of unopt)
      | _ -> Alcotest.fail "unexpected row")
    (Tbl.rows t)

let test_table8_shape () =
  let t = first "table8" in
  Alcotest.(check int) "3 budgets + total" 4 (List.length (Tbl.rows t))

let test_table9_shape () =
  let t = first "table9" in
  Alcotest.(check int) "3 budgets" 3 (List.length (Tbl.rows t))

let test_table10_shape () =
  let t = first "table10" in
  Alcotest.(check int) "two statistic rows" 2 (List.length (Tbl.rows t))

let test_table11_vulnerable_icalls_grow () =
  let t = first "table11" in
  (match Tbl.find_row t "Vuln. ICalls" with
  | Some (_ :: Tbl.Int noopt :: rest) ->
    let last = List.fold_left (fun acc c -> match c with Tbl.Int n -> n | _ -> acc) noopt rest in
    Alcotest.(check bool) "duplication grows vulnerable asm calls" true (last >= noopt)
  | _ -> Alcotest.fail "row missing");
  match Tbl.find_row t "Vuln. IJumps" with
  | Some (_ :: cells) ->
    List.iter
      (fun c ->
        match c with
        | Tbl.Int n -> Alcotest.(check bool) "small constant" true (n > 0 && n < 10)
        | _ -> ())
      cells
  | _ -> Alcotest.fail "row missing"

let test_table12_shape () =
  let t = first "table12" in
  Alcotest.(check bool) "several rows" true (List.length (Tbl.rows t) >= 6)

let test_figure1_story () =
  let t = first "figure1" in
  match (Tbl.find_row t "rules 1-2 only (greedy)", Tbl.find_row t "rules 1-3 (PIBE)") with
  | Some greedy, Some pibe ->
    let nth row i = match List.nth row i with Tbl.Int n -> n | _ -> -1 in
    Alcotest.(check int) "same weight elided" (nth greedy 2) (nth pibe 2);
    Alcotest.(check bool) "rule 3 leaves budget to spare" true (nth pibe 5 < nth greedy 5 / 10);
    Alcotest.(check bool) "rule 3 inlines more sites" true (nth pibe 1 > nth greedy 1)
  | _ -> Alcotest.fail "rows missing"

let test_robustness_story () =
  match table "robustness" with
  | [ overlap; t ] ->
    Alcotest.(check int) "two overlap rows" 2 (List.length (Tbl.rows overlap));
    let v label =
      match Tbl.find_row t label with
      | Some row -> pct_of (List.nth row 1)
      | None -> Alcotest.failf "row %s missing" label
    in
    let matched = v "matched profile (LMBench)" in
    let apache = v "mismatched profile (ApacheBench)" in
    let noopt = v "no optimization" in
    Alcotest.(check bool) "matched <= apache <= unoptimized" true
      (matched <= apache && apache < noopt)
  | _ -> Alcotest.fail "expected two tables"

let test_security_story () =
  let t = first "security" in
  let cell label i =
    match Tbl.find_row t label with
    | Some row -> Tbl.cell_text (List.nth row i)
    | None -> Alcotest.failf "row %s missing" label
  in
  List.iter
    (fun i ->
      Alcotest.(check string) "vanilla loses" "GADGET REACHED" (cell "vanilla (no defenses)" i))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun i -> Alcotest.(check string) "all defenses hold" "blocked" (cell "all defenses" i))
    [ 1; 2; 3; 4 ];
  (* RSB refilling blocks the user scenario only (paper §6.4) *)
  Alcotest.(check string) "refill blocks user pollution" "blocked"
    (cell "retpolines + RSB refill" 2);
  Alcotest.(check string) "refill misses cross-thread" "GADGET REACHED"
    (cell "retpolines + RSB refill" 3);
  Alcotest.(check string) "asm call stays exposed" "GADGET REACHED"
    (cell "all defenses + PIBE opt" 5)

let test_ablation_story () =
  let t = first "ablation" in
  Alcotest.(check bool) "several variants" true (List.length (Tbl.rows t) >= 6)

let test_userspace_story () =
  let t = first "userspace" in
  match Tbl.find_row t "Geometric Mean" with
  | Some row ->
    let unopt = pct_of (List.nth row 1) and pibe = pct_of (List.nth row 2) in
    Alcotest.(check bool) "PIBE helps userspace too" true (pibe < unopt /. 2.0)
  | None -> Alcotest.fail "geomean row missing"

let test_v1scan_table () =
  let t = first "v1scan" in
  let get label =
    match Tbl.find_row t label with
    | Some (_ :: Tbl.Int n :: _) -> n
    | _ -> Alcotest.failf "row %s missing" label
  in
  let branches = get "conditional branches" in
  let gadgets = get "candidate gadgets" in
  Alcotest.(check bool) "gadgets rare" true (gadgets * 5 < branches)

let test_passes_instrumentation () =
  match table "passes" with
  | [ baseline; best ] ->
    (* icp, inline, cleanup for the baseline; + three defense rows for the
       best config (plus indented per-pass detail lines) *)
    Alcotest.(check bool) "baseline rows" true (List.length (Tbl.rows baseline) >= 3);
    Alcotest.(check bool) "best-config rows" true (List.length (Tbl.rows best) >= 6);
    let remaining_icalls t =
      List.filter_map
        (function
          | Tbl.Str p :: _ :: _ :: _ :: _ :: Tbl.Int icalls :: _ -> Some (p, icalls)
          | _ -> None)
        (Tbl.rows t)
    in
    let cells = remaining_icalls best in
    let row prefix =
      match
        List.find_opt
          (fun (p, _) ->
            String.length p >= String.length prefix
            && String.equal (String.sub p 0 (String.length prefix)) prefix)
          cells
      with
      | Some r -> r
      | None -> Alcotest.failf "no %s row in the pass table" prefix
    in
    (* the defense rows run after cleanup and do not touch the IR, so the
       remaining-icall column must be flat from cleanup onward *)
    Alcotest.(check int) "defenses do not change remaining icalls" (snd (row "cleanup"))
      (snd (row "retpoline"));
    Alcotest.(check bool) "icp leaves a positive icall residue" true (snd (row "icp") > 0)
  | tables -> Alcotest.failf "expected two tables, got %d" (List.length tables)

let test_online_story () =
  match table "online" with
  | [ cmp; trace ] -> (
    Alcotest.(check bool) "drift trace has rows" true (List.length (Tbl.rows trace) > 0);
    match Tbl.find_row cmp "whole deployment" with
    | None -> Alcotest.fail "whole-deployment row missing"
    | Some row ->
      (* columns: static-fresh, static-stale, online-adaptive *)
      let fresh = pct_of (List.nth row 1) in
      let stale = pct_of (List.nth row 2) in
      let online = pct_of (List.nth row 3) in
      Alcotest.(check bool) "the stale profile costs performance" true (stale > fresh);
      (* the headline claim: adaptation recovers most of the stale-profile
         overhead, patch downtime included *)
      Alcotest.(check bool) "online recovers most of the gap" true
        (stale -. online > 0.5 *. (stale -. fresh)))
  | tables -> Alcotest.failf "expected two tables, got %d" (List.length tables)

let test_frontier_story () =
  let t = first "frontier" in
  let rows = Tbl.rows t in
  (* two rows (LTO, PIBE-PGO) per defense set, at least four sets *)
  Alcotest.(check bool) ">= 4 defense sets" true (List.length rows >= 8);
  let rec pairs = function
    | lto :: pgo :: rest -> (lto, pgo) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun (lto, pgo) ->
      let name = Tbl.cell_text (List.nth lto 0) in
      Alcotest.(check string) (name ^ ": paired rows") name (Tbl.cell_text (List.nth pgo 0));
      (* the ledger is a property of the defense set: both front-ends
         report the same surviving surface *)
      Alcotest.(check string) (name ^ ": equal surface")
        (Tbl.cell_text (List.nth lto 3))
        (Tbl.cell_text (List.nth pgo 3));
      Alcotest.(check string) (name ^ ": equal survivors")
        (Tbl.cell_text (List.nth lto 4))
        (Tbl.cell_text (List.nth pgo 4));
      (* ...and at that equal ledger, PGO strictly wins on overhead *)
      Alcotest.(check bool) (name ^ ": PGO strictly cheaper") true
        (pct_of (List.nth pgo 2) < pct_of (List.nth lto 2)))
    (pairs rows);
  let surface name =
    match Tbl.find_row t name with
    | Some row -> Tbl.cell_text (List.nth row 3)
    | None -> Alcotest.failf "row %s missing" name
  in
  Alcotest.(check string) "all defenses close the surface" "0/5" (surface "all-defenses");
  Alcotest.(check string) "coarse CFI blocks nothing" "5/5" (surface "coarse-cfi");
  Alcotest.(check string) "fineibt+pac leaves pad V2 + forgery" "2/5"
    (surface "fineibt+pac-ret")

let test_listings_render () =
  let s = Exp.listings () in
  Alcotest.(check bool) "mentions retpoline" true (String.length s > 200)

let suite =
  [
    ("registry complete", `Quick, test_registry_complete);
    ("table1 shape", `Slow, test_table1_shape);
    ("table2 shape", `Slow, test_table2_shape);
    ("table3 shape", `Slow, test_table3_shape);
    ("table4 shape", `Slow, test_table4_shape);
    ("table5 shape", `Slow, test_table5_shape);
    ("table6 shape", `Slow, test_table6_shape);
    ("table7 shape", `Slow, test_table7_shape);
    ("table8 shape", `Slow, test_table8_shape);
    ("table9 shape", `Slow, test_table9_shape);
    ("table10 shape", `Slow, test_table10_shape);
    ("table11 vulnerable icalls", `Slow, test_table11_vulnerable_icalls_grow);
    ("table12 shape", `Slow, test_table12_shape);
    ("figure1 story", `Quick, test_figure1_story);
    ("robustness story", `Slow, test_robustness_story);
    ("security story", `Slow, test_security_story);
    ("ablation story", `Slow, test_ablation_story);
    ("passes instrumentation", `Slow, test_passes_instrumentation);
    ("online continuous profiling story", `Slow, test_online_story);
    ("userspace extension", `Slow, test_userspace_story);
    ("v1 scan table", `Quick, test_v1scan_table);
    ("frontier story", `Slow, test_frontier_story);
    ("listings render", `Quick, test_listings_render);
  ]
