open Pibe_ir
open Types
module Profile = Pibe_profile.Profile

type config = {
  budget_pct : float;
  hot_callee_threshold : int;
  cold_callee_threshold : int;
  caller_cap : int;
}

(* The kernel builds the paper compares against do not feed a profile to
   the inliner, so every call site is sized against LLVM's *default*
   threshold (225) with only a mild bump for inline-hinted (formerly hot)
   sites -- "its inlining decisions are made solely based on size
   complexity and inline hints" (paper section 8.4). *)
let default_config =
  {
    budget_pct = 99.9;
    hot_callee_threshold = 325;
    cold_callee_threshold = 225;
    caller_cap = Inline_cost.rule2_default;
  }

type stats = {
  inlined_sites : int;
  inlined_weight : int;
  blocked_weight : int;
}

let run ?provenance prog profile config =
  let cg = Pibe_cg.Callgraph.build prog in
  let order = Pibe_cg.Callgraph.bottom_up_order cg in
  let prog = ref prog in
  (* Hot cutoff from the budget over all direct sites. *)
  let weighted =
    List.rev
      (Program.fold_funcs !prog ~init:[] ~f:(fun acc f ->
           List.fold_left
             (fun acc (site, _) -> (site.site_id, Profile.site_weight profile site) :: acc)
             acc (Func.call_sites f)))
  in
  let hot_cutoff = (Budget.select ~budget_pct:config.budget_pct weighted).Budget.cutoff_weight in
  let inlined_sites = ref 0 in
  let inlined_weight = ref 0 in
  let blocked_weight = ref 0 in
  let blocked_seen = Hashtbl.create 256 in
  let cost_of name = Inline_cost.func_cost (Program.find !prog name) in
  let inlinable ~caller ~callee =
    match Program.find_opt !prog callee with
    | None -> false
    | Some callee_f ->
      let caller_f = Program.find !prog caller in
      (not callee_f.attrs.noinline) && (not callee_f.attrs.optnone)
      && (not callee_f.attrs.is_asm) && (not caller_f.attrs.optnone)
      && (not caller_f.attrs.is_asm)
      && (not (String.equal caller callee))
      && (not (Pibe_cg.Callgraph.in_recursive_cycle cg callee))
      && not (Pibe_cg.Callgraph.reaches cg ~src:callee ~dst:caller)
  in
  let process_caller caller =
    (* Iterate to a fixed point: inlining exposes the callee's sites in
       source order, which LLVM's inliner would also visit. *)
    let continue = ref true in
    let iterations = ref 0 in
    while !continue && !iterations < 200 do
      incr iterations;
      continue := false;
      let f = Program.find !prog caller in
      let sites = Func.call_sites f in
      let caller_cost = Inline_cost.func_cost f in
      let try_site (site, callee) =
        if inlinable ~caller ~callee then begin
          let weight = Profile.site_weight profile site in
          let callee_cost = cost_of callee in
          let threshold =
            if weight >= hot_cutoff && weight > 0 then config.hot_callee_threshold
            else config.cold_callee_threshold
          in
          if callee_cost <= threshold && caller_cost + callee_cost <= config.caller_cap then begin
            let prog_before = !prog in
            let p, cloned, site_block =
              Transform.inline_call !prog ~caller ~site_id:site.site_id
            in
            prog := p;
            Option.iter
              (fun pv ->
                Pibe_profile.Provenance.record_inline pv ~prog_before ~caller
                  ~site_id:site.site_id ~site_block ~callee
                  ~cloned:
                    (List.map
                       (fun (c : Transform.cloned_site) ->
                         (c.Transform.new_site.site_id, c.Transform.callee_site.site_id))
                       cloned)
                  ~trained_count:weight
                  ~trained_caller_entries:(Profile.invocations profile caller))
              provenance;
            incr inlined_sites;
            inlined_weight := !inlined_weight + weight;
            continue := true;
            true
          end
          else begin
            if weight > 0 && not (Hashtbl.mem blocked_seen site.site_id) then begin
              Hashtbl.replace blocked_seen site.site_id ();
              blocked_weight := !blocked_weight + weight
            end;
            false
          end
        end
        else false
      in
      (* Inline at most one site per scan; costs are recomputed next
         round. *)
      ignore (List.exists try_site sites)
    done
  in
  List.iter process_caller order;
  (!prog, { inlined_sites = !inlined_sites; inlined_weight = !inlined_weight; blocked_weight = !blocked_weight })
