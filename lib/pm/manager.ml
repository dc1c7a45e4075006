open Pibe_ir
module Profile = Pibe_profile.Profile
module Tbl = Pibe_util.Tbl
module Trace = Pibe_trace.Trace

type snapshot = {
  funcs : int;
  blocks : int;
  insts : int;
  code_bytes : int;
  icalls : int;
  rets : int;
  jump_tables : int;
}

(* Sums of memoized per-function summaries, so order cannot matter. *)
let snapshot prog =
  let blocks = ref 0 and insts = ref 0 and bytes = ref 0 in
  let icalls = ref 0 and rets = ref 0 and jts = ref 0 in
  Program.iter_unordered prog (fun f ->
      let s = Summary.of_func f in
      blocks := !blocks + s.Summary.blocks;
      insts := !insts + s.Summary.insts;
      bytes := !bytes + s.Summary.code_bytes;
      icalls := !icalls + List.length s.Summary.icall_sites;
      rets := !rets + s.Summary.rets;
      jts := !jts + s.Summary.jump_tables);
  {
    funcs = Program.func_count prog;
    blocks = !blocks;
    insts = !insts;
    code_bytes = !bytes;
    icalls = !icalls;
    rets = !rets;
    jump_tables = !jts;
  }

type pass_stats = {
  pass : string;
  before : snapshot;
  after : snapshot;
  detail : Pass.detail;
}

type result = {
  image : Pibe_harden.Pass.image;
  profile : Profile.t;
  provenance : Pibe_profile.Provenance.t;
  passes : pass_stats list;
}

(* Pass-specific elision counters for the trace stream (the same numbers
   detail_lines renders for humans).  All values are deterministic. *)
let detail_counters detail =
  match detail with
  | Pass.Icp st ->
    [
      ("promoted_sites", Trace.Int st.Pibe_opt.Icp.promoted_sites);
      ("promoted_targets", Trace.Int st.Pibe_opt.Icp.promoted_targets);
      ("promoted_weight", Trace.Int st.Pibe_opt.Icp.promoted_weight);
      ("total_weight", Trace.Int st.Pibe_opt.Icp.total_weight);
    ]
  | Pass.Inline st ->
    [
      ("inlined_sites", Trace.Int st.Pibe_opt.Inliner.inlined_sites);
      ("inlined_weight", Trace.Int st.Pibe_opt.Inliner.inlined_weight);
      ("total_weight", Trace.Int st.Pibe_opt.Inliner.total_weight);
      ("rets_before", Trace.Int st.Pibe_opt.Inliner.total_ret_sites_before);
      ("rets_after", Trace.Int st.Pibe_opt.Inliner.total_ret_sites_after);
    ]
  | Pass.Llvm_inline st ->
    [
      ("inlined_sites", Trace.Int st.Pibe_opt.Llvm_inliner.inlined_sites);
      ("inlined_weight", Trace.Int st.Pibe_opt.Llvm_inliner.inlined_weight);
      ("blocked_weight", Trace.Int st.Pibe_opt.Llvm_inliner.blocked_weight);
    ]
  | Pass.Cleanup st ->
    [
      ("folded", Trace.Int st.Pibe_opt.Cleanup.folded);
      ("branches_folded", Trace.Int st.Pibe_opt.Cleanup.branches_folded);
      ("blocks_removed", Trace.Int st.Pibe_opt.Cleanup.blocks_removed);
      ("dead_assigns", Trace.Int st.Pibe_opt.Cleanup.dead_assigns_removed);
    ]
  | Pass.Defense | Pass.Nothing -> []

let trace_pass_deltas ~before:(b : snapshot) ~after:(a : snapshot) detail =
  if Trace.enabled () then begin
    Trace.counter ~cat:"pm" "ir-delta"
      [
        ("funcs", Trace.Int (a.funcs - b.funcs));
        ("blocks", Trace.Int (a.blocks - b.blocks));
        ("insts", Trace.Int (a.insts - b.insts));
        ("code_bytes", Trace.Int (a.code_bytes - b.code_bytes));
        ("icalls", Trace.Int a.icalls);
        ("rets", Trace.Int a.rets);
        ("jump_tables", Trace.Int a.jump_tables);
      ];
    match detail_counters detail with
    | [] -> ()
    | args -> Trace.counter ~cat:"pm" "pass-detail" args
  end

(* --------------------------- prefix reuse --------------------------- *)

(* The state a run reaches after its leading IR-transforming passes,
   keyed on what determines it: the input program (physical identity:
   programs are persistent values), the input profile (identity plus its
   mutation counter), the canonical spec text of those passes, and
   [verify].  [pstate]'s profile and provenance belong to the entry; a
   hit hands the caller copies, so nothing a caller mutates leaks into a
   later build. *)
type prefix_key = {
  kprog : Program.t;
  kprofile : Profile.t;
  kversion : int;
  kspec : string;
  kverify : bool;
}

type prefix = {
  pstate : Pass.state;
  pstats : pass_stats list;
  plast : snapshot;  (* after the prefix's last pass *)
}

(* Eight entries hold the four optimization levels a paper table sweeps
   with room to spare.  Whether a prefix was reused depends on what ran
   earlier in the process (and, in parallel runs, on scheduling), so the
   [prefix-cache-hit]/[-miss] counters are "sched" events. *)
let prefixes : (prefix_key, prefix) Pibe_util.Memo.t =
  Pibe_util.Memo.create ~capacity:8 ~counter:"prefix-cache"
    ~equal:(fun a b ->
      a.kprog == b.kprog && a.kprofile == b.kprofile && a.kversion = b.kversion
      && a.kverify = b.kverify && String.equal a.kspec b.kspec)
    ()

let private_copy (st : Pass.state) =
  {
    st with
    Pass.profile = Profile.copy st.Pass.profile;
    provenance = Pibe_profile.Provenance.copy st.Pass.provenance;
  }

(* [compute ()] runs the prefix cold; a miss returns that run's own state.
   A hit replays each reused pass's span and counters, so the trace reads
   as it would after a cold run. *)
let reuse_prefix ~verify prog profile prefix ~compute =
  let key =
    {
      kprog = prog;
      kprofile = profile;
      kversion = Profile.version profile;
      kspec = Spec.to_string (List.map (fun (p : Pass.t) -> p.spec) prefix);
      kverify = verify;
    }
  in
  let cold = ref None in
  let e =
    Pibe_util.Memo.get prefixes key (fun _ ->
        let ((st, last, stats) as computed) = compute () in
        cold := Some computed;
        { pstate = private_copy st; pstats = stats; plast = last })
  in
  match !cold with
  | Some computed -> computed
  | None ->
    if Trace.enabled () then
      List.iter
        (fun s ->
          Trace.span ~cat:"pm" ("pass:" ^ s.pass) (fun () ->
              trace_pass_deltas ~before:s.before ~after:s.after s.detail))
        e.pstats;
    (private_copy e.pstate, e.plast, e.pstats)

(* The leading run of passes that are not hardening requests. *)
let split_prefix passes =
  let rec go acc = function
    | (p : Pass.t) :: rest when not p.request -> go (p :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] passes

let run ?(verify = false) ?check prog profile passes =
  let inspect prog =
    if verify then Validate.check_exn prog;
    Option.iter (fun f -> f prog) check
  in
  (* Runs [passes] from [state], whose program [before] describes; returns
     the final state, the last snapshot and one stats row per pass. *)
  let run_passes state before passes =
    let state = ref state and before = ref before in
    let stats =
      List.map
        (fun (p : Pass.t) ->
          Trace.span ~cat:"pm" ("pass:" ^ Spec.elem_to_string p.spec) (fun () ->
              let st, detail = p.run !state in
              inspect st.Pass.prog;
              let after =
                if st.Pass.prog == !state.Pass.prog then !before else snapshot st.Pass.prog
              in
              state := st;
              trace_pass_deltas ~before:!before ~after detail;
              let s = { pass = Spec.elem_to_string p.spec; before = !before; after; detail } in
              before := after;
              s))
        passes
    in
    (!state, !before, stats)
  in
  let cold passes =
    run_passes
      {
        Pass.prog;
        profile = Profile.copy profile;
        defenses = Pibe_harden.Pass.no_defenses;
        rsb_refill = false;
        provenance = Pibe_profile.Provenance.create ();
      }
      (snapshot prog) passes
  in
  let run_args =
    if Trace.enabled () then
      [ ("spec", Trace.Str (Spec.to_string (List.map (fun (p : Pass.t) -> p.spec) passes))) ]
    else []
  in
  Trace.span ~cat:"pm" "pm:run" ~args:run_args (fun () ->
      let st, last, stats =
        match (check, split_prefix passes) with
        | Some _, _ | None, ([], _) -> cold passes
        | None, (prefix, rest) ->
          let st, last, reused =
            reuse_prefix ~verify prog profile prefix ~compute:(fun () -> cold prefix)
          in
          let st, last, stats = run_passes st last rest in
          (st, last, reused @ stats)
      in
      let image =
        Trace.span ~cat:"pm" "pm:harden" (fun () ->
            Pibe_harden.Pass.harden ~rsb_refill:st.Pass.rsb_refill st.Pass.prog st.Pass.defenses)
      in
      (* Trace-only work stays out of the [pm:harden] span it reports on. *)
      if Trace.enabled () then
        Trace.counter ~cat:"pm" "hardened"
          [
            ("icall_sites", Trace.Int last.icalls);
            ("ret_sites", Trace.Int last.rets);
            ("image_bytes", Trace.Int (Pibe_harden.Pass.image_bytes image));
          ];
      if verify then Validate.check_exn image.Pibe_harden.Pass.prog;
      {
        image;
        profile = st.Pass.profile;
        provenance = st.Pass.provenance;
        passes = stats;
      })

(* ----------------------------- reporting ----------------------------- *)

let delta b a = a - b

let table ?(title = "Per-pass pipeline statistics") passes =
  let t =
    Tbl.create ~title
      ~columns:
        [ "pass"; "dfuncs"; "dblocks"; "dinsts"; "dbytes"; "icalls"; "rets"; "jump tables" ]
  in
  List.iter
    (fun s ->
      let d f = delta (f s.before) (f s.after) in
      Tbl.add_row t
        [
          Tbl.Str s.pass;
          Tbl.Int (d (fun x -> x.funcs));
          Tbl.Int (d (fun x -> x.blocks));
          Tbl.Int (d (fun x -> x.insts));
          Tbl.Int (d (fun x -> x.code_bytes));
          Tbl.Int s.after.icalls;
          Tbl.Int s.after.rets;
          Tbl.Int s.after.jump_tables;
        ])
    passes;
  t

let detail_lines s =
  match s.detail with
  | Pass.Icp st ->
    [
      Printf.sprintf "promoted %d targets at %d sites (%d of %d weight)"
        st.Pibe_opt.Icp.promoted_targets st.Pibe_opt.Icp.promoted_sites
        st.Pibe_opt.Icp.promoted_weight st.Pibe_opt.Icp.total_weight;
    ]
  | Pass.Inline st ->
    [
      Printf.sprintf "inlined %d sites (%d of %d weight elided); rets %d -> %d"
        st.Pibe_opt.Inliner.inlined_sites st.Pibe_opt.Inliner.inlined_weight
        st.Pibe_opt.Inliner.total_weight st.Pibe_opt.Inliner.total_ret_sites_before
        st.Pibe_opt.Inliner.total_ret_sites_after;
    ]
  | Pass.Llvm_inline st ->
    [
      Printf.sprintf "inlined %d sites (%d weight; %d weight blocked by size)"
        st.Pibe_opt.Llvm_inliner.inlined_sites st.Pibe_opt.Llvm_inliner.inlined_weight
        st.Pibe_opt.Llvm_inliner.blocked_weight;
    ]
  | Pass.Cleanup st ->
    [
      Printf.sprintf "folded %d, branches %d, blocks removed %d, dead assigns %d"
        st.Pibe_opt.Cleanup.folded st.Pibe_opt.Cleanup.branches_folded
        st.Pibe_opt.Cleanup.blocks_removed st.Pibe_opt.Cleanup.dead_assigns_removed;
    ]
  | Pass.Defense | Pass.Nothing -> []
