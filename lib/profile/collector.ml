open Pibe_ir
module Trace = Pibe_trace.Trace

type lift_stats = {
  lifted_pairs : int;
  dropped_pairs : int;
  recovered_instances : int;
  unrecovered_instances : int;
  recovered_weight : int;
}

let zero_stats =
  {
    lifted_pairs = 0;
    dropped_pairs = 0;
    recovered_instances = 0;
    unrecovered_instances = 0;
    recovered_weight = 0;
  }

(* ------------------- per-program address tables ------------------- *)

(* Everything the hook and the lift read about the profiled image, built
   once per physical program: the layout symbol table, the site identity
   map, and the two int arrays the hook resolves an engine edge with —
   site id -> call-site address (site ids are dense; -1 marks an id no
   instruction carries) and engine function id -> entry address (engine
   ids are positions in [Program.layout_order], the order
   [Layout.build] also walks). *)
type tables = {
  tprog : Program.t;
  layout : Layout.t;
  (* site_id -> (origin, is the site a direct call?).  On a pristine
     program origin = site_id; on an optimized one clones report their
     inherited origin. *)
  site_info : (int, int * bool) Hashtbl.t;
  from_addrs : int array;
  to_addrs : int array;
}

let build_tables prog =
  let layout = Layout.build prog in
  let site_info = Hashtbl.create 1024 in
  Program.iter_funcs prog (fun f ->
      Func.iter_insts f (fun _ i ->
          match i with
          | Types.Call { site; _ } ->
            Hashtbl.replace site_info site.Types.site_id (site.Types.site_origin, true)
          | Types.Icall { site; _ } | Types.Asm_icall { site; _ } ->
            Hashtbl.replace site_info site.Types.site_id (site.Types.site_origin, false)
          | Types.Assign _ | Types.Store _ | Types.Observe _ -> ()));
  let from_addrs = Array.make (1 + Hashtbl.fold (fun id _ m -> max id m) site_info (-1)) (-1) in
  Hashtbl.iter
    (fun id _ -> if id >= 0 then from_addrs.(id) <- Layout.site_addr layout id)
    site_info;
  let to_addrs =
    Array.of_list (List.map (Layout.func_addr layout) (Program.layout_order prog))
  in
  { tprog = prog; layout; site_info; from_addrs; to_addrs }

(* A {!Pibe_util.Memo} over physically distinct programs: the online loop
   profiles the same pristine kernel every window, and the fleet creates
   collectors from pool workers.  Which domain builds first depends on
   scheduling, so the build span lives in the "sched" category that
   canonical traces strip. *)
let tables_cache : (Program.t, tables) Pibe_util.Memo.t =
  Pibe_util.Memo.create ~capacity:16 ~equal:( == ) ()

let traced_tables prog =
  Trace.span ~cat:"sched" "collector:tables" (fun () -> build_tables prog)

let tables_for prog = Pibe_util.Memo.get tables_cache prog traced_tables

(* ------------------------ pair aggregation ------------------------- *)

(* Drained (from, to) pair counts.  A pair whose addresses both lie in
   [0, 2^31) — every pair the engine hook records, since layouts start at
   0x1000 — packs into one non-negative int key, counted in an
   open-addressing table over two int arrays, so counting it allocates
   nothing.  Any other pair (raw PMU-style samples) keeps a tuple-keyed
   table. *)
module Pairs = struct
  type t = {
    mutable keys : int array;  (* packed key; -1 marks an empty slot *)
    mutable counts : int array;
    mutable shift : int;  (* 63 - log2 (capacity) *)
    mutable used : int;
    wide : (int * int, int) Hashtbl.t;
  }

  let addr_bits = 31
  let addr_mask = (1 lsl addr_bits) - 1
  let initial_bits = 12

  let create () =
    let cap = 1 lsl initial_bits in
    {
      keys = Array.make cap (-1);
      counts = Array.make cap 0;
      shift = 63 - initial_bits;
      used = 0;
      wide = Hashtbl.create 16;
    }

  (* Fibonacci hashing: the top bits of the product depend on every key
     bit, so packed keys that differ only in [from] spread as well as
     those that differ in [to]. *)
  let[@inline] home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

  (* The slot holding [k], or the empty slot where it belongs. *)
  let rec probe keys mask k i =
    let s = Array.unsafe_get keys i in
    if s = k || s = -1 then i else probe keys mask k ((i + 1) land mask)

  let rec insert t k c =
    let i = probe t.keys (Array.length t.keys - 1) k (home t k) in
    if Array.unsafe_get t.keys i = k then
      Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + c)
    else begin
      Array.unsafe_set t.keys i k;
      Array.unsafe_set t.counts i c;
      t.used <- t.used + 1;
      if 2 * t.used > Array.length t.keys then grow t
    end

  and grow t =
    let keys = t.keys and counts = t.counts in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap (-1);
    t.counts <- Array.make cap 0;
    t.shift <- t.shift - 1;
    t.used <- 0;
    Array.iteri (fun i k -> if k >= 0 then insert t k counts.(i)) keys

  let add t ~from_addr ~to_addr =
    if from_addr lor to_addr >= 0 && from_addr lor to_addr <= addr_mask then
      insert t ((from_addr lsl addr_bits) lor to_addr) 1
    else
      let key = (from_addr, to_addr) in
      Hashtbl.replace t.wide key (1 + Option.value ~default:0 (Hashtbl.find_opt t.wide key))

  let iter f t =
    Array.iteri
      (fun i k -> if k >= 0 then f (k lsr addr_bits) (k land addr_mask) t.counts.(i))
      t.keys;
    Hashtbl.iter (fun (from_addr, to_addr) c -> f from_addr to_addr c) t.wide
end

(* ---------------------------- collector ---------------------------- *)

type t = {
  tables : tables;
  pairs : Pairs.t;
  lbr : Lbr.t;
  provenance : Provenance.t option;
  (* top-level (kernel-entry) invocations, observed through
     [Engine.on_entry]: the one entry signal that survives total
     inlining, and the anchor of the carry-forward scaling *)
  external_entries : (string, int ref) Hashtbl.t;
  mutable last_stats : lift_stats;
}

let create ?provenance prog =
  let pairs = Pairs.create () in
  {
    tables = tables_for prog;
    pairs;
    lbr = Lbr.create ~drain:(Pairs.add pairs) ();
    provenance;
    external_entries = Hashtbl.create 64;
    last_stats = zero_stats;
  }

(* The profiling run observes addresses, as LBR hardware would.  [callee]
   is an id of the engine [engine] created on this collector's program,
   so it always indexes [to_addrs]; a site id outside the dense range
   (only a hand-written image can carry a negative one) goes through the
   layout table. *)
let record_call t ~site ~callee =
  let tb = t.tables in
  let from_addr =
    if site >= 0 && site < Array.length tb.from_addrs then Array.unsafe_get tb.from_addrs site
    else match Layout.site_addr tb.layout site with a -> a | exception Not_found -> -1
  in
  if from_addr >= 0 then Lbr.record t.lbr ~from_addr ~to_addr:tb.to_addrs.(callee)

let record_raw t ~from_addr ~to_addr = Lbr.record t.lbr ~from_addr ~to_addr

let hook_entry t func =
  match Hashtbl.find t.external_entries func with
  | n -> incr n
  | exception Not_found -> Hashtbl.add t.external_entries func (ref 1)

let engine ?(config = Pibe_cpu.Engine.default_config) t =
  Pibe_cpu.Engine.create
    ~config:
      {
        config with
        Pibe_cpu.Engine.on_call = Some (record_call t);
        on_entry = Some (hook_entry t);
      }
    t.tables.tprog

let bump tbl key count =
  Hashtbl.replace tbl key (count + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Resolve the witness-based instance counts to their least fixpoint.
   An instance's count feeds credits back onto the site it consumed and
   onto its callee's entry count; witnesses of other instances may read
   exactly those credited quantities (a witness clone can itself be
   consumed by a later inline; a caller-entries witness reads an entry
   count other instances recover).  Counts start at zero and every
   update is monotone non-decreasing, so iterating to stability yields
   the least solution; the round cap only guards degenerate input.

   When the witness observes nothing — the common case of a leaf callee
   inlined into a loop body, where the edge stream retains no signal at
   all — the resolver falls back to the carry-forward estimate AutoFDO
   and Go's PGO use in the same situation: the training profile's count
   for the consumed site, scaled by the observed/trained entry ratio of
   its caller.  A statically observed witness always takes precedence
   over the estimate. *)
let resolve_instances ~site_total ~entry_total insts =
  let n = Array.length insts in
  let counts = Array.make n 0 in
  let site_credit = Hashtbl.create 64 in
  let entry_credit = Hashtbl.create 64 in
  let observed_site id = Option.value ~default:0 (Hashtbl.find_opt site_total id) in
  let credit tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  let observed_entries f =
    Option.value ~default:0 (Hashtbl.find_opt entry_total f) + credit entry_credit f
  in
  let witness_observed (i : Provenance.instance) =
    match i.Provenance.witness with
    | Provenance.W_sites ids -> List.exists (fun id -> observed_site id > 0) ids
    | Provenance.W_caller_entries _ | Provenance.W_none -> false
  in
  let scaled (i : Provenance.instance) =
    if i.Provenance.trained_count <= 0 || i.Provenance.trained_caller_entries <= 0 then 0
    else
      int_of_float
        (float_of_int i.Provenance.trained_count
        *. float_of_int (observed_entries i.Provenance.caller)
        /. float_of_int i.Provenance.trained_caller_entries)
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    (* reverse chronological: late instances have un-consumed witnesses,
       so most counts settle in the first round *)
    for j = n - 1 downto 0 do
      let (i : Provenance.instance) = insts.(j) in
      let witnessed =
        match i.Provenance.witness with
        | Provenance.W_sites ids ->
          List.fold_left
            (fun acc id -> max acc (observed_site id + credit site_credit id))
            0 ids
        | Provenance.W_caller_entries f -> observed_entries f
        | Provenance.W_none -> 0
      in
      let w = if witness_observed i then witnessed else max witnessed (scaled i) in
      if w > counts.(j) then begin
        let delta = w - counts.(j) in
        counts.(j) <- w;
        bump site_credit i.Provenance.site_id delta;
        bump entry_credit i.Provenance.callee delta;
        changed := true
      end
    done
  done;
  counts

let lift t =
  Lbr.flush t.lbr;
  let profile = Profile.create () in
  (* 1. aggregate the address pairs back onto site ids / entered funcs *)
  let site_total : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let site_targets : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  let entry_total : (string, int) Hashtbl.t = Hashtbl.create 512 in
  Hashtbl.iter (fun func count -> bump entry_total func !count) t.external_entries;
  let { layout; site_info; _ } = t.tables in
  let dropped = ref 0 in
  let lifted = ref 0 in
  Pairs.iter
    (fun from_addr to_addr count ->
      match (Layout.site_at layout from_addr, Layout.func_at layout to_addr) with
      | Some site_id, Some target when Hashtbl.mem site_info site_id ->
        lifted := !lifted + count;
        bump site_total site_id count;
        bump entry_total target count;
        let _, is_direct = Hashtbl.find site_info site_id in
        if not is_direct then begin
          let vp =
            match Hashtbl.find_opt site_targets site_id with
            | Some vp -> vp
            | None ->
              let vp = Hashtbl.create 4 in
              Hashtbl.replace site_targets site_id vp;
              vp
          in
          bump vp target count
        end
      | _ ->
        (* stale address: outside any known site or function range *)
        dropped := !dropped + count)
    t.pairs;
  (* 2. emission helper: direct counts at an ICP-promoted origin fold
     back into the pristine indirect site's value profile *)
  let add_direct_resolved ~origin ~count =
    match Option.bind t.provenance (fun pv -> Provenance.promotion pv origin) with
    | Some (pristine_origin, target) ->
      Profile.add_indirect profile ~origin:pristine_origin ~target ~count
    | None -> Profile.add_direct profile ~origin ~count
  in
  (* 3. observed sites, keyed by origin *)
  Hashtbl.iter
    (fun site_id count ->
      let origin, is_direct = Hashtbl.find site_info site_id in
      if is_direct then add_direct_resolved ~origin ~count
      else
        Hashtbl.iter
          (fun target c -> Profile.add_indirect profile ~origin ~target ~count:c)
          (Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt site_targets site_id)))
    site_total;
  Hashtbl.iter (fun func count -> Profile.add_entry profile ~func ~count) entry_total;
  (* 4. inlined-away edges, recovered through the provenance witnesses *)
  let recovered_instances = ref 0 in
  let unrecovered_instances = ref 0 in
  let recovered_weight = ref 0 in
  (match t.provenance with
  | None -> ()
  | Some pv ->
    let insts = Array.of_list (Provenance.instances pv) in
    let counts = resolve_instances ~site_total ~entry_total insts in
    Array.iteri
      (fun j (i : Provenance.instance) ->
        let c = counts.(j) in
        if c > 0 then begin
          incr recovered_instances;
          recovered_weight := !recovered_weight + c;
          add_direct_resolved ~origin:i.Provenance.origin ~count:c;
          Profile.add_entry profile ~func:i.Provenance.callee ~count:c
        end
        else incr unrecovered_instances)
      insts);
  let stats =
    {
      lifted_pairs = !lifted;
      dropped_pairs = !dropped;
      recovered_instances = !recovered_instances;
      unrecovered_instances = !unrecovered_instances;
      recovered_weight = !recovered_weight;
    }
  in
  t.last_stats <- stats;
  if Trace.enabled () then
    Trace.counter ~cat:"profile" "collector:lift"
      [
        ("lifted_pairs", Trace.Int stats.lifted_pairs);
        ("dropped_pairs", Trace.Int stats.dropped_pairs);
        ("recovered_instances", Trace.Int stats.recovered_instances);
        ("unrecovered_instances", Trace.Int stats.unrecovered_instances);
        ("recovered_weight", Trace.Int stats.recovered_weight);
      ];
  profile

let stats t = t.last_stats

let raw_pairs t =
  Lbr.flush t.lbr;
  let acc = ref [] in
  Pairs.iter (fun from_addr to_addr c -> acc := ((from_addr, to_addr), c) :: !acc) t.pairs;
  List.sort compare !acc
