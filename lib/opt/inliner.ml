open Pibe_ir
open Types
module Profile = Pibe_profile.Profile

type config = {
  budget_pct : float;
  rule2_threshold : int;
  rule3_threshold : int;
  lax_within_pct : float option;
}

let default_config =
  {
    budget_pct = 99.9;
    rule2_threshold = Inline_cost.rule2_default;
    rule3_threshold = Inline_cost.rule3_default;
    lax_within_pct = None;
  }

type stats = {
  total_weight : int;
  eligible_weight : int;
  initial_candidates : int;
  initial_candidate_weight : int;
  inlined_sites : int;
  inlined_weight : int;
  blocked_rule2_weight : int;
  blocked_rule3_weight : int;
  blocked_other_weight : int;
  total_ret_sites_before : int;
  total_ret_sites_after : int;
}

type candidate = {
  uid : int;
  caller : string;
  site_id : int;
  callee : string;
  weight : int;
}

(* Max-heap via a set ordered by (weight, uid): max_elt pops the hottest;
   among equal weights the youngest uid wins, which keeps the walk
   deterministic. *)
module Pq = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let run ?provenance prog profile config =
  let cg = Pibe_cg.Callgraph.build prog in
  let prog = ref prog in
  let ret_sites_before = Program.total_ret_sites !prog in
  (* ---------------- initial candidates ---------------- *)
  let all_direct =
    Program.fold_funcs !prog ~init:[] ~f:(fun acc f ->
        List.fold_left
          (fun acc (site, callee) ->
            (f.fname, site, callee, Profile.site_weight profile site) :: acc)
          acc (Func.call_sites f))
  in
  let all_direct = List.rev all_direct in
  let total_weight = List.fold_left (fun acc (_, _, _, w) -> acc + w) 0 all_direct in
  let weighted = List.map (fun (c, s, t, w) -> ((c, s, t), w)) all_direct in
  let sel = Budget.select ~budget_pct:config.budget_pct weighted in
  let lax_cutoff =
    match config.lax_within_pct with
    | None -> max_int (* nothing is lax *)
    | Some pct -> (Budget.select ~budget_pct:pct weighted).Budget.cutoff_weight
  in
  let next_uid = ref 0 in
  let fresh_uid () =
    let u = !next_uid in
    incr next_uid;
    u
  in
  let by_uid = Hashtbl.create 1024 in
  let pq = ref Pq.empty in
  let push cand =
    Hashtbl.replace by_uid cand.uid cand;
    pq := Pq.add (cand.weight, cand.uid) !pq
  in
  List.iter
    (fun ((caller, (site : site), callee), weight) ->
      push { uid = fresh_uid (); caller; site_id = site.site_id; callee; weight })
    sel.Budget.selected;
  let initial_candidates = List.length sel.Budget.selected in
  let initial_candidate_weight = sel.Budget.selected_weight in
  let cutoff = sel.Budget.cutoff_weight in
  (* ---------------- cost caches ---------------- *)
  let cost_cache = Hashtbl.create 1024 in
  let func_cost name =
    match Hashtbl.find_opt cost_cache name with
    | Some c -> c
    | None ->
      let c = Inline_cost.func_cost (Program.find !prog name) in
      Hashtbl.replace cost_cache name c;
      c
  in
  (* Remaining-invocation discounting: once a function's callers have
     inlined it, the body that remains executes correspondingly less
     often, so candidates *inside* it are worth less.  Without this the
     walk would re-optimize dead copies and the elision statistics would
     double-count. *)
  let invocations_of = Hashtbl.create 256 in
  let invocations name =
    match Hashtbl.find_opt invocations_of name with
    | Some v -> v
    | None ->
      let v = Profile.invocations profile name in
      Hashtbl.replace invocations_of name v;
      v
  in
  let inv_rem = Hashtbl.create 256 in
  let remaining name =
    match Hashtbl.find_opt inv_rem name with
    | Some v -> v
    | None ->
      let v = invocations name in
      Hashtbl.replace inv_rem name v;
      v
  in
  let consume name amount = Hashtbl.replace inv_rem name (max 0 (remaining name - amount)) in
  let effective_weight cand =
    let total = invocations cand.caller in
    if total <= 0 then cand.weight
    else
      int_of_float
        (float_of_int cand.weight *. float_of_int (remaining cand.caller)
        /. float_of_int total)
  in
  (* Recursion safety: never inline a callee that can (transitively,
     through direct calls in the original graph) reach its caller. *)
  let reach_memo = Hashtbl.create 256 in
  let unsafe_recursion ~caller ~callee =
    String.equal caller callee
    || Pibe_cg.Callgraph.in_recursive_cycle cg callee
    ||
    match Hashtbl.find_opt reach_memo (callee, caller) with
    | Some b -> b
    | None ->
      let b = Pibe_cg.Callgraph.reaches cg ~src:callee ~dst:caller in
      Hashtbl.replace reach_memo (callee, caller) b;
      b
  in
  (* ---------------- greedy walk ---------------- *)
  let inlined_sites = ref 0 in
  let inlined_weight = ref 0 in
  let blocked_rule2 = ref 0 in
  let blocked_rule3 = ref 0 in
  let blocked_other = ref 0 in
  let eligible_weight = ref initial_candidate_weight in
  let attrs_block cand =
    let callee_f = Program.find !prog cand.callee in
    let caller_f = Program.find !prog cand.caller in
    callee_f.attrs.noinline || callee_f.attrs.optnone || callee_f.attrs.is_asm
    || caller_f.attrs.optnone || caller_f.attrs.is_asm
  in
  let do_inline cand ~effective ~caller_cost =
    let prog_before = !prog in
    let p, cloned, site_block =
      Transform.inline_call !prog ~caller:cand.caller ~site_id:cand.site_id
    in
    prog := p;
    Option.iter
      (fun pv ->
        Pibe_profile.Provenance.record_inline pv ~prog_before ~caller:cand.caller
          ~site_id:cand.site_id ~site_block ~callee:cand.callee
          ~cloned:
            (List.map
               (fun (c : Transform.cloned_site) ->
                 (c.Transform.new_site.site_id, c.Transform.callee_site.site_id))
               cloned)
          ~trained_count:cand.weight ~trained_caller_entries:(invocations cand.caller))
      provenance;
    (* the inline only rewrote the site's block and appended blocks:
       carry the caller's cost forward by their difference *)
    Hashtbl.replace cost_cache cand.caller
      (caller_cost
      + Inline_cost.inline_delta
          ~before:(Program.find prog_before cand.caller)
          ~after:(Program.find p cand.caller) ~site_block);
    incr inlined_sites;
    inlined_weight := !inlined_weight + effective;
    consume cand.callee effective;
    (* Constant-ratio inheritance for the callee's own direct calls, now
       cloned into the caller. *)
    let invocations = invocations cand.callee in
    List.iter
      (fun (c : Transform.cloned_site) ->
        match c.Transform.kind with
        | Transform.Cloned_direct grand_callee ->
          if invocations > 0 then begin
            let orig_w = Profile.site_weight profile c.Transform.callee_site in
            let inherited =
              int_of_float
                (float_of_int orig_w *. float_of_int effective /. float_of_int invocations)
            in
            if inherited > 0 && inherited >= cutoff then begin
              eligible_weight := !eligible_weight + inherited;
              push
                {
                  uid = fresh_uid ();
                  caller = cand.caller;
                  site_id = c.Transform.new_site.site_id;
                  callee = grand_callee;
                  weight = inherited;
                }
            end
          end
        | Transform.Cloned_indirect | Transform.Cloned_asm -> ())
      cloned
  in
  let rec loop () =
    match Pq.max_elt_opt !pq with
    | None -> ()
    | Some ((weight, uid) as key) ->
      pq := Pq.remove key !pq;
      let cand = Hashtbl.find by_uid uid in
      Hashtbl.remove by_uid uid;
      let effective = min weight (effective_weight cand) in
      (if effective > 0 then
         if attrs_block cand || unsafe_recursion ~caller:cand.caller ~callee:cand.callee
         then blocked_other := !blocked_other + effective
         else begin
           let lax = weight >= lax_cutoff && lax_cutoff < max_int in
           let callee_cost = func_cost cand.callee in
           let caller_cost = func_cost cand.caller in
           if (not lax) && callee_cost > config.rule3_threshold then
             blocked_rule3 := !blocked_rule3 + effective
           else if (not lax) && caller_cost + callee_cost > config.rule2_threshold then
             blocked_rule2 := !blocked_rule2 + effective
           else do_inline cand ~effective ~caller_cost
         end);
      loop ()
  in
  loop ();
  let stats =
    {
      total_weight;
      eligible_weight = !eligible_weight;
      initial_candidates;
      initial_candidate_weight;
      inlined_sites = !inlined_sites;
      inlined_weight = !inlined_weight;
      blocked_rule2_weight = !blocked_rule2;
      blocked_rule3_weight = !blocked_rule3;
      blocked_other_weight = !blocked_other;
      total_ret_sites_before = ret_sites_before;
      total_ret_sites_after = Program.total_ret_sites !prog;
    }
  in
  (!prog, stats)
