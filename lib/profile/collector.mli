(** The profiling-phase plumbing: engine call edges -> binary addresses ->
    LBR ring -> address-pair aggregation -> lifted {!Profile.t}.

    Mirrors the paper's §7 flow: the profiling binary records edges at the
    {e binary} level; after the run, the aggregated address pairs are
    lifted back to IR call-site identities through the layout symbol
    table.  Two collection regimes are supported:

    - {e pristine image} (the paper's assumption): every site id is its
      own origin and the lift is a pure address→site table walk;
    - {e optimized/hardened image} (production reality — AutoFDO, Go
      PGO): clones resolve through their inherited origin, ICP-promoted
      direct sites fold back into the pristine indirect site's value
      profile, and call edges consumed by inlining — which emit nothing
      at all — are reconstructed from the {!Provenance} witness tree by a
      monotone fixpoint over instance counts.  Pass the image's
      provenance via [create ?provenance] to enable this.

    Address pairs that resolve to no known site or function (stale
    addresses from a mismatched layout, raw-PMU noise) are dropped, and
    the drop is counted: see {!lift_stats}.

    Collection runs at engine speed.  The engine reports each call edge
    as a (site id, callee id) int pair; {!create} resolves both to
    addresses through two int arrays, the ring holds int pairs, and the
    drain counts them in an int-keyed table, so a hooked run allocates
    nothing per edge.  The layout, the site identity map and both
    arrays depend only on the program, so they are built once per
    physical program and shared, through a 16-entry
    {!Pibe_util.Memo}, by every collector created on it. *)

type t

type lift_stats = {
  lifted_pairs : int;  (** pair weight lifted onto known sites *)
  dropped_pairs : int;
      (** pair weight falling outside any known site/function range *)
  recovered_instances : int;
      (** inline instances assigned a non-zero count, by witness or by
          the scaled carry-forward estimate *)
  unrecovered_instances : int;
      (** inline instances whose count stayed zero: no witness signal,
          no carry-forward (e.g. the site was cold in training too) *)
  recovered_weight : int;  (** total count reconstructed for inlined-away edges *)
}

val create : ?provenance:Provenance.t -> Pibe_ir.Program.t -> t
(** An empty aggregation over the profiling image's address tables (its
    layout symbol table, site-id→origin map, and the site→address and
    function→address arrays), built on the first collector for that
    program and reused by later ones.  [provenance] is the
    inline/promotion tree recorded when the image was built; omit it for
    pristine images. *)

val engine : ?config:Pibe_cpu.Engine.config -> t -> Pibe_cpu.Engine.t
(** The profiling binary: an engine on this collector's own program,
    running [config] (default {!Pibe_cpu.Engine.default_config}) with
    [on_call] and [on_entry] replaced by the collector's hooks.  Engine
    ids are only meaningful for the program they were interned from,
    which is why the call-edge hook is installed here and nowhere
    else. *)

val hook_entry : t -> string -> unit
(** Record one top-level (kernel-entry) invocation of a function ({!engine}
    installs it as [on_entry]).  These entries survive total inlining —
    no call edge is needed — and anchor the carry-forward scaling of the
    lift. *)

val record_raw : t -> from_addr:int -> to_addr:int -> unit
(** Feed a raw address pair into the ring, bypassing the engine hook —
    the ingestion path for externally captured (PMU-style) samples, whose
    addresses may not resolve at lift time. *)

val lift : t -> Profile.t
(** Flushes the LBR ring, then lifts every aggregated (from, to) pair:
    [from] resolves to a call site and through it to the site's {e origin}
    (direct counter, or value-profile entry for indirect sites), [to] to
    the entered function (invocation counts).  With provenance attached,
    direct counts at ICP-promoted origins are re-emitted as value-profile
    counts at the pristine indirect origin, and inlined-away edges are
    reconstructed from witness counts.  Unresolvable pairs are dropped
    and counted.  Updates {!stats}; when tracing is enabled, emits a
    ["collector:lift"] counter with the stats. *)

val stats : t -> lift_stats
(** Stats of the most recent {!lift} (zeros before the first). *)

val raw_pairs : t -> ((int * int) * int) list
(** Aggregated ((from_addr, to_addr), count) pairs, for inspection. *)
