(** Inline/promotion provenance: the record the optimization passes leave
    behind so profiles collected on the {e optimized, hardened} image can
    be lifted back to pristine-kernel origin site ids.

    Production PGO systems (AutoFDO, Go's PGO) face the same problem:
    samples are taken from an already-optimized binary, where hot call
    sites have been inlined away (they emit no call edges at all) and
    promoted indirect calls show up as direct ones.  The tree records,
    per inline instance, which site was consumed and a {e witness} — an
    observable quantity whose count on the optimized image equals the
    number of times the inlined body ran — so {!Collector.lift} can
    reconstruct the vanished call edges and callee entries.  Promotions
    record the fresh direct-site origin ICP minted so its counts fold
    back into the pristine indirect site's value profile. *)

open Pibe_ir

type witness =
  | W_sites of int list
      (** live site ids whose event count equals the instance count
          (clones from once-per-invocation callee blocks, or sibling
          sites sharing the consumed site's basic block) *)
  | W_caller_entries of string
      (** the consumed block ran once per invocation of this caller:
          instance count = the caller's (recovered) entry count *)
  | W_none
      (** nothing observable on the optimized image; the lift falls back
          to the scaled carry-forward estimate recorded below *)

type instance = {
  caller : string;
  callee : string;
  site_id : int;  (** id of the consumed direct-call site *)
  origin : int;  (** its profile origin *)
  witness : witness;
  trained_count : int;
      (** the training profile's weight for the consumed site when it was
          inlined — the carry-forward estimate the lift falls back to
          (scaled by the observed/trained caller-entry ratio) when the
          witness observes nothing, e.g. a leaf callee inlined into a
          loop body *)
  trained_caller_entries : int;
      (** the training profile's entry count for [caller] at inline time,
          the denominator of that scaling ratio *)
}

type t

val create : unit -> t

val copy : t -> t
(** An independent copy: recording into either never shows in the
    other.  The pass manager hands every reused build its own copy. *)

val is_empty : t -> bool

val record_inline :
  t ->
  prog_before:Program.t ->
  caller:string ->
  site_id:int ->
  site_block:Types.label ->
  callee:string ->
  cloned:(int * int) list ->
  trained_count:int ->
  trained_caller_entries:int ->
  unit
(** Record one inline of [site_id] (a direct call in [caller] to
    [callee]) against the program as it was {e before} the transform.
    [site_block] is the caller block holding the site, as
    {!Pibe_opt.Transform.inline_call} reports it; raises
    [Invalid_argument] ("site ... not found") when that block does not
    hold a direct call with this id.  [cloned] lists [(new site id,
    callee site id)] for every call site cloned into the caller; the
    witness is derived here: clones of callee sites that run once per
    callee invocation ({!once_blocks} on the callee), then sibling sites
    in [site_block], then the caller-entries fallback when [site_block]
    runs once per caller invocation ({!runs_once}, which walks the grown
    caller instead of analysing all of it).  [trained_count] and
    [trained_caller_entries] snapshot what the training profile said
    about the consumed site and its caller, for the lift's carry-forward
    fallback. *)

val record_promotion : t -> promoted_origin:int -> origin:int -> target:string -> unit
(** ICP minted a fresh direct site with origin [promoted_origin] for
    calls from indirect site [origin] to [target]. *)

val instances : t -> instance list
(** In recording (chronological) order. *)

val inline_count : t -> int
val promotion : t -> int -> (int * string) option
val promotions : t -> (int * (int * string)) list
(** Sorted by promoted origin. *)

val promotion_count : t -> int

(** {2 Once-per-invocation blocks} *)

val once_blocks : Types.func -> bool array
(** Per block: does it run exactly once per complete invocation of the
    function?  True iff the block is reachable, some [Ret] is reachable,
    the block dominates every reachable [Ret] and it lies on no cycle.
    Near-linear in the function (iterative dominators, one SCC pass). *)

val runs_once : Types.func -> Types.label -> bool
(** [runs_once f bi = (once_blocks f).(bi)], answered for one block by at
    most two graph walks that stop as soon as the answer is known: one
    from the entry around [bi] (any [Ret] found means [bi] does not
    dominate it), one from [bi]'s successors (reaching [bi] means it
    repeats).  False for an out-of-range [bi]. *)

(** {2 Persistence}

    The tree is persisted alongside the image it describes (text form,
    like {!Profile}); a later profiling session reloads it to lift. *)

val to_string : t -> string

val of_string : string -> t
(** Raises {!Pibe_ir.Parser.Parse_error} with the 1-based line number on
    a malformed line, a negative count, or a count that would take the
    total of its kind (trained counts, trained caller entries) past
    [max_int]. *)
