(* Optimization passes: budgets, InlineCost, and — most importantly —
   differential semantic preservation of the inlining and promotion
   transformations on randomly generated programs. *)

open Pibe_ir
open Types
module Budget = Pibe_opt.Budget
module Inline_cost = Pibe_opt.Inline_cost
module Transform = Pibe_opt.Transform
module Inliner = Pibe_opt.Inliner
module Icp = Pibe_opt.Icp
module Profile = Pibe_profile.Profile

(* ----------------------------- budget ------------------------------ *)

let test_budget_selects_hottest_prefix () =
  let sel =
    Budget.select ~budget_pct:50.0 [ ("a", 10); ("b", 60); ("c", 30) ]
  in
  Alcotest.(check (list (pair string int))) "hottest" [ ("b", 60) ] sel.Budget.selected;
  Alcotest.(check int) "total" 100 sel.Budget.total_weight;
  Alcotest.(check int) "cutoff" 60 sel.Budget.cutoff_weight

let test_budget_full () =
  let sel = Budget.select ~budget_pct:100.0 [ ("a", 1); ("b", 2); ("z", 0) ] in
  Alcotest.(check int) "zero-weight excluded" 2 (List.length sel.Budget.selected)

let test_budget_zero () =
  let sel = Budget.select ~budget_pct:0.0 [ ("a", 5) ] in
  Alcotest.(check int) "nothing selected" 0 (List.length sel.Budget.selected)

let prop_budget_monotone =
  QCheck.Test.make ~name:"larger budgets select supersets" ~count:200
    QCheck.(pair (list (pair small_string small_nat)) (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (items, (b1, b2)) ->
      let lo = Float.min b1 b2 and hi = Float.max b1 b2 in
      let s1 = (Budget.select ~budget_pct:lo items).Budget.selected in
      let s2 = (Budget.select ~budget_pct:hi items).Budget.selected in
      List.length s1 <= List.length s2)

let prop_budget_weight_covered =
  QCheck.Test.make ~name:"selection reaches the requested share" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 15) small_nat)
    (fun weights ->
      let items = List.mapi (fun i w -> (i, w)) weights in
      let sel = Budget.select ~budget_pct:90.0 items in
      sel.Budget.total_weight = 0
      || float_of_int sel.Budget.selected_weight
         >= 0.9 *. float_of_int sel.Budget.total_weight)

(* --------------------------- inline cost --------------------------- *)

let test_inline_cost_call_args () =
  let site = { site_id = 0; site_origin = 0 } in
  let c0 = Inline_cost.inst_cost (Call { dst = None; callee = "f"; args = []; site; tail = false }) in
  let c2 =
    Inline_cost.inst_cost
      (Call { dst = None; callee = "f"; args = [ Imm 1; Imm 2 ]; site; tail = false })
  in
  Alcotest.(check int) "base call" 5 c0;
  Alcotest.(check int) "5 + 5*num_args" 15 c2

let test_inline_cost_standard () =
  Alcotest.(check int) "standard" 5 (Inline_cost.inst_cost (Assign (0, Const 1)));
  Alcotest.(check int) "rule thresholds" 12_000 Inline_cost.rule2_default;
  Alcotest.(check int) "rule3" 3_000 Inline_cost.rule3_default

(* ------------------------ transform: inline ------------------------ *)

let direct_sites prog =
  List.rev
    (Program.fold_funcs prog ~init:[] ~f:(fun acc f ->
         List.fold_left
           (fun acc ((s : site), callee) -> (f.fname, s.site_id, callee) :: acc)
           acc (Func.call_sites f)))

let prop_inline_preserves_semantics =
  QCheck.Test.make ~name:"inline_call preserves observable behaviour" ~count:150
    QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let prog = Helpers.random_program seed in
      match direct_sites prog with
      | [] -> true
      | sites ->
        let caller, site_id, _ = List.nth sites (pick mod List.length sites) in
        let prog', _, _ = Transform.inline_call prog ~caller ~site_id in
        Validate.check_program prog' = [] && Helpers.equivalent prog prog')

let prop_inline_removes_site_keeps_others =
  QCheck.Test.make ~name:"inline_call removes exactly the chosen site" ~count:100
    QCheck.small_int (fun seed ->
      let prog = Helpers.random_program seed in
      match direct_sites prog with
      | [] -> true
      | (caller, site_id, _) :: _ ->
        let prog', cloned, _ = Transform.inline_call prog ~caller ~site_id in
        let f' = Program.find prog' caller in
        let still_there =
          List.exists (fun ((s : site), _) -> s.site_id = site_id) (Func.call_sites f')
        in
        (not still_there)
        && List.for_all
             (fun (c : Transform.cloned_site) ->
               c.Transform.new_site.site_origin = c.Transform.callee_site.site_origin)
             cloned)

let test_inline_rejects_bad_site () =
  let prog = Helpers.random_program 31 in
  try
    ignore (Transform.inline_call prog ~caller:"f0" ~site_id:99999);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* ------------------------ transform: promote ----------------------- *)

let icall_sites_of prog =
  List.rev
    (Program.fold_funcs prog ~init:[] ~f:(fun acc f ->
         List.fold_left
           (fun acc (s : site) -> (f.fname, s.site_id) :: acc)
           acc (Func.icall_sites f)))

let prop_promote_preserves_semantics =
  QCheck.Test.make ~name:"promote_icall preserves observable behaviour" ~count:150
    QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let prog = Helpers.random_program seed in
      match icall_sites_of prog with
      | [] -> true
      | sites ->
        let caller, site_id = List.nth sites (pick mod List.length sites) in
        (* promote every registered target, and also a subset *)
        let all = Array.to_list prog.Program.fptr_table in
        let subset = [ List.hd all ] in
        List.for_all
          (fun targets ->
            let prog', promo = Transform.promote_icall prog ~caller ~site_id ~targets in
            Validate.check_program prog' = []
            && List.length promo.Transform.promoted = List.length targets
            && Helpers.equivalent prog prog')
          [ all; subset ])

let test_promote_fallback_origin () =
  let prog = Helpers.random_program 33 in
  match icall_sites_of prog with
  | [] -> ()
  | (caller, site_id) :: _ ->
    let origin =
      let f = Program.find prog caller in
      let s = List.find (fun (s : site) -> s.site_id = site_id) (Func.icall_sites f) in
      s.site_origin
    in
    let prog', promo =
      Transform.promote_icall prog ~caller ~site_id
        ~targets:[ prog.Program.fptr_table.(0) ]
    in
    ignore prog';
    Alcotest.(check int) "fallback keeps origin" origin
      promo.Transform.fallback_site.site_origin

(* --------------------------- site lookup ---------------------------- *)

(* Three blocks with one call each: the early-exit scan must report the
   exact (block, index) coordinates wherever the site lives, not just in
   the entry block. *)
let test_find_site_in_func_multi_block () =
  let prog = Program.with_globals_size Program.empty 8 in
  let prog, s0 = Program.fresh_site prog in
  let prog, s1 = Program.fresh_site prog in
  let prog, s2 = Program.fresh_site prog in
  let b = Builder.create ~name:"f" ~params:1 in
  let x = Builder.param b 0 in
  let mid = Builder.new_block b in
  let last = Builder.new_block b in
  Builder.call b s0 "g" [ Reg x ];
  Builder.jmp b mid;
  Builder.switch_to b mid;
  let r = Builder.reg b in
  Builder.assign b r (Binop (Add, Reg x, Imm 1));
  Builder.call b s1 "g" [ Reg r ];
  Builder.jmp b last;
  Builder.switch_to b last;
  Builder.call b s2 "g" [ Reg x ];
  Builder.ret b None;
  let f = Builder.finish b () in
  ignore prog;
  let coords site =
    match Transform.find_site_in_func f site.site_id with
    | Some (bi, j, _) -> Some (bi, j)
    | None -> None
  in
  Alcotest.(check (option (pair int int))) "entry block" (Some (0, 0)) (coords s0);
  Alcotest.(check (option (pair int int)))
    "call after an assign in the middle block" (Some (1, 1)) (coords s1);
  Alcotest.(check (option (pair int int))) "last block" (Some (2, 0)) (coords s2);
  Alcotest.(check (option (pair int int)))
    "unknown site id" None
    (match Transform.find_site_in_func f 4242 with
    | Some (bi, j, _) -> Some (bi, j)
    | None -> None)

(* ------------------------------ inliner ----------------------------- *)

(* A chain a -> b -> c with profiled weights; the greedy inliner should
   flatten it completely under a permissive budget. *)
let chain_program () =
  let prog = Program.with_globals_size Program.empty 8 in
  let leaf =
    let b = Builder.create ~name:"c" ~params:1 in
    let x = Builder.param b 0 in
    let r = Builder.reg b in
    Builder.assign b r (Binop (Add, Reg x, Imm 3));
    Builder.observe b (Reg r);
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  let prog = Program.add_func prog leaf in
  let prog, s_bc = Program.fresh_site prog in
  let b = Builder.create ~name:"b" ~params:1 in
  let x = Builder.param b 0 in
  let r = Builder.reg b in
  Builder.call b ~dst:r s_bc "c" [ Reg x ];
  Builder.ret b (Some (Reg r));
  let prog = Program.add_func prog (Builder.finish b ()) in
  let prog, s_ab = Program.fresh_site prog in
  let b = Builder.create ~name:"a" ~params:1 in
  let x = Builder.param b 0 in
  let r = Builder.reg b in
  Builder.call b ~dst:r s_ab "b" [ Reg x ];
  Builder.ret b (Some (Reg r));
  let prog = Program.add_func prog (Builder.finish b ()) in
  let profile = Profile.create () in
  Profile.add_direct profile ~origin:s_ab.site_id ~count:100;
  Profile.add_direct profile ~origin:s_bc.site_id ~count:100;
  Profile.add_entry profile ~func:"a" ~count:100;
  Profile.add_entry profile ~func:"b" ~count:100;
  Profile.add_entry profile ~func:"c" ~count:100;
  (prog, profile)

let test_inliner_flattens_chain () =
  let prog, profile = chain_program () in
  let prog', stats =
    Inliner.run prog profile { Inliner.default_config with Inliner.budget_pct = 100.0 }
  in
  Alcotest.(check int) "two inline ops" 2 stats.Inliner.inlined_sites;
  (* a's body no longer calls anything on the hot path *)
  let a = Program.find prog' "a" in
  Alcotest.(check int) "a is call-free" 0 (List.length (Func.call_sites a));
  Alcotest.(check bool) "still equivalent" true (Helpers.equivalent ~calls:[ ("a", [ 5 ]) ] prog prog')

let test_inliner_zero_budget_noop () =
  let prog, profile = chain_program () in
  let prog', stats =
    Inliner.run prog profile { Inliner.default_config with Inliner.budget_pct = 0.0 }
  in
  Alcotest.(check int) "nothing inlined" 0 stats.Inliner.inlined_sites;
  Alcotest.(check bool) "program unchanged" true
    (Printer.program_to_string prog' = Printer.program_to_string prog)

let test_inliner_respects_noinline () =
  let prog, profile = chain_program () in
  let c = Program.find prog "c" in
  let prog = Program.update_func prog { c with attrs = { c.attrs with noinline = true } } in
  let prog', stats =
    Inliner.run prog profile { Inliner.default_config with Inliner.budget_pct = 100.0 }
  in
  Alcotest.(check int) "only a->b inlined" 1 stats.Inliner.inlined_sites;
  Alcotest.(check bool) "blocked weight recorded" true
    (stats.Inliner.blocked_other_weight > 0);
  ignore prog'

let test_inliner_never_inlines_recursion () =
  let prog = Program.with_globals_size Program.empty 8 in
  let prog, site = Program.fresh_site prog in
  let b = Builder.create ~name:"r" ~params:1 in
  let x = Builder.param b 0 in
  let cont = Builder.new_block b in
  let stop = Builder.new_block b in
  Builder.br b (Reg x) cont stop;
  Builder.switch_to b cont;
  let d = Builder.reg b in
  Builder.assign b d (Binop (Sub, Reg x, Imm 1));
  let r = Builder.reg b in
  Builder.call b ~dst:r site "r" [ Reg d ];
  Builder.ret b (Some (Reg r));
  Builder.switch_to b stop;
  Builder.ret b (Some (Imm 0));
  let prog = Program.add_func prog (Builder.finish b ()) in
  let profile = Profile.create () in
  Profile.add_direct profile ~origin:site.site_id ~count:1000;
  Profile.add_entry profile ~func:"r" ~count:1000;
  let prog', stats =
    Inliner.run prog profile { Inliner.default_config with Inliner.budget_pct = 100.0 }
  in
  Alcotest.(check int) "nothing inlined" 0 stats.Inliner.inlined_sites;
  Alcotest.(check bool) "recursion counted as other" true
    (stats.Inliner.blocked_other_weight = 1000);
  ignore prog'

let prop_inliner_preserves_semantics =
  QCheck.Test.make ~name:"full greedy inliner preserves behaviour" ~count:80
    QCheck.small_int (fun seed ->
      let prog = Helpers.random_program seed in
      (* Build a synthetic profile that weights every direct site. *)
      let profile = Profile.create () in
      List.iteri
        (fun i (_, sid, _) -> Profile.add_direct profile ~origin:sid ~count:(100 + i))
        (direct_sites prog);
      Program.iter_funcs prog (fun f ->
          Profile.add_entry profile ~func:f.fname ~count:100);
      let prog', _ =
        Inliner.run prog profile { Inliner.default_config with Inliner.budget_pct = 100.0 }
      in
      Validate.check_program prog' = [] && Helpers.equivalent prog prog')

(* -------------------------------- icp ------------------------------- *)

let test_icp_on_kernel_preserves_read_results () =
  let info = Helpers.kernel () in
  let prog = info.Pibe_kernel.Gen.prog in
  (* profile the kernel lightly *)
  let profile =
    Pibe.Pipeline.profile prog ~run:(fun engine ->
        let nr = Pibe_kernel.Gen.nr info "read" in
        for fd = 0 to 30 do
          ignore (Pibe_cpu.Engine.call engine info.Pibe_kernel.Gen.entry [ nr; fd; 17 ])
        done)
  in
  let prog', stats = Icp.run prog profile { Icp.budget_pct = 100.0; max_targets = None } in
  Alcotest.(check bool) "something promoted" true (stats.Icp.promoted_targets > 0);
  Validate.check_exn prog';
  let read_results p =
    let engine = Pibe_cpu.Engine.create p in
    let nr = Pibe_kernel.Gen.nr info "read" in
    List.init 40 (fun fd ->
        Pibe_cpu.Engine.call engine info.Pibe_kernel.Gen.entry [ nr; fd; 23 ])
  in
  Alcotest.(check bool) "same syscall results" true (read_results prog = read_results prog')

let test_icp_updates_profile () =
  let info = Helpers.kernel () in
  let prog = info.Pibe_kernel.Gen.prog in
  let profile =
    Pibe.Pipeline.profile prog ~run:(fun engine ->
        let nr = Pibe_kernel.Gen.nr info "read" in
        for fd = 0 to 20 do
          ignore (Pibe_cpu.Engine.call engine info.Pibe_kernel.Gen.entry [ nr; fd; 9 ])
        done)
  in
  let victim = info.Pibe_kernel.Gen.victim_icall_site in
  let before = List.length (Profile.value_profile profile ~origin:victim) in
  Alcotest.(check bool) "victim profiled" true (before > 0);
  let _, _ = Icp.run prog profile { Icp.budget_pct = 100.0; max_targets = None } in
  Alcotest.(check int) "all targets moved to direct counts" 0
    (List.length (Profile.value_profile profile ~origin:victim))

let test_icp_max_targets () =
  let info = Helpers.kernel () in
  let prog = info.Pibe_kernel.Gen.prog in
  let profile =
    Pibe.Pipeline.profile prog ~run:(fun engine ->
        let nr = Pibe_kernel.Gen.nr info "read" in
        for fd = 0 to 60 do
          ignore (Pibe_cpu.Engine.call engine info.Pibe_kernel.Gen.entry [ nr; fd; 9 ])
        done)
  in
  let _, unlimited =
    Icp.run prog (Pibe_profile.Profile.copy profile)
      { Icp.budget_pct = 100.0; max_targets = None }
  in
  let _, capped =
    Icp.run prog (Pibe_profile.Profile.copy profile)
      { Icp.budget_pct = 100.0; max_targets = Some 1 }
  in
  Alcotest.(check bool) "cap reduces promoted targets" true
    (capped.Icp.promoted_targets < unlimited.Icp.promoted_targets);
  Alcotest.(check int) "one per site" capped.Icp.promoted_sites capped.Icp.promoted_targets

(* The caller cost the inliner carries forward, its cost before plus
   [inline_delta], is the new caller's [func_cost].  Each callee [Ret]
   becomes a move plus a [Jmp] at a call with a destination and a bare
   [Jmp] at one without, which cost differently, so the property covers
   both (the destination is dropped from the chosen call on half the
   draws) and callees with several [Ret] blocks. *)
let carried_cost_exact prog ~caller ~site_id =
  let before = Program.find prog caller in
  let prog', _, site_block = Transform.inline_call prog ~caller ~site_id in
  let after = Program.find prog' caller in
  Inline_cost.func_cost before + Inline_cost.inline_delta ~before ~after ~site_block
  = Inline_cost.func_cost after

let drop_dst prog ~caller ~site_id =
  let f =
    Func.map_blocks (Program.find prog caller) ~f:(fun _ b ->
        {
          b with
          insts =
            Array.map
              (function
                | Call c when c.site.site_id = site_id -> Call { c with dst = None }
                | i -> i)
              b.insts;
        })
  in
  Program.update_func prog f

let prop_inline_cost_carried_forward =
  QCheck.Test.make ~name:"carried InlineCost equals the new caller's" ~count:300
    QCheck.(triple small_int small_int bool)
    (fun (seed, pick, no_dst) ->
      let prog =
        if pick mod 2 = 0 then Helpers.random_program seed
        else Helpers.random_chain_program seed
      in
      match direct_sites prog with
      | [] -> true
      | sites ->
        let caller, site_id, _ = List.nth sites (pick / 2 mod List.length sites) in
        let prog = if no_dst then drop_dst prog ~caller ~site_id else prog in
        carried_cost_exact prog ~caller ~site_id)

(* A callee with a valued and a bare [Ret], inlined at a call with and
   without a destination. *)
let test_inline_cost_several_rets () =
  let prog = Program.with_globals_size Program.empty 8 in
  let prog, site = Program.fresh_site prog in
  let callee =
    let b = Builder.create ~name:"g" ~params:1 in
    let l1 = Builder.new_block b and l2 = Builder.new_block b and l3 = Builder.new_block b in
    Builder.br b (Reg 0) l1 l2;
    Builder.switch_to b l1;
    Builder.ret b (Some (Imm 1));
    Builder.switch_to b l2;
    Builder.br b (Reg 0) l3 l3;
    Builder.switch_to b l3;
    Builder.ret b None;
    Builder.finish b ()
  in
  let caller =
    let b = Builder.create ~name:"f" ~params:0 in
    let r = Builder.reg b in
    Builder.call b ~dst:r site "g" [ Imm 3 ];
    Builder.observe b (Reg r);
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  let prog = Program.add_func (Program.add_func prog callee) caller in
  let site_id = site.site_id in
  Alcotest.(check bool) "with a destination" true (carried_cost_exact prog ~caller:"f" ~site_id);
  Alcotest.(check bool) "without a destination" true
    (carried_cost_exact (drop_dst prog ~caller:"f" ~site_id) ~caller:"f" ~site_id)

let suite =
  [
    ("budget selects hottest prefix", `Quick, test_budget_selects_hottest_prefix);
    ("budget 100% excludes zero-weight", `Quick, test_budget_full);
    ("budget 0% selects nothing", `Quick, test_budget_zero);
    Helpers.qcheck_to_alcotest prop_budget_monotone;
    Helpers.qcheck_to_alcotest prop_budget_weight_covered;
    ("inline cost: call args", `Quick, test_inline_cost_call_args);
    ("inline cost: standard + thresholds", `Quick, test_inline_cost_standard);
    Helpers.qcheck_to_alcotest prop_inline_preserves_semantics;
    Helpers.qcheck_to_alcotest prop_inline_removes_site_keeps_others;
    ("inline rejects bad site", `Quick, test_inline_rejects_bad_site);
    Helpers.qcheck_to_alcotest prop_inline_cost_carried_forward;
    ("inline cost: callee with several rets", `Quick, test_inline_cost_several_rets);
    ("find_site_in_func multi-block", `Quick, test_find_site_in_func_multi_block);
    Helpers.qcheck_to_alcotest prop_promote_preserves_semantics;
    ("promote fallback keeps origin", `Quick, test_promote_fallback_origin);
    ("inliner flattens hot chain", `Quick, test_inliner_flattens_chain);
    ("inliner zero budget is a no-op", `Quick, test_inliner_zero_budget_noop);
    ("inliner respects noinline", `Quick, test_inliner_respects_noinline);
    ("inliner never inlines recursion", `Quick, test_inliner_never_inlines_recursion);
    Helpers.qcheck_to_alcotest prop_inliner_preserves_semantics;
    ("icp preserves kernel behaviour", `Quick, test_icp_on_kernel_preserves_read_results);
    ("icp updates the profile", `Quick, test_icp_updates_profile);
    ("icp max_targets cap", `Quick, test_icp_max_targets);
  ]
