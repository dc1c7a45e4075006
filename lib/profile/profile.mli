(** Lifted execution profiles.

    A profile maps *origin* call-site ids to execution counts — direct
    sites carry a plain counter, indirect sites a value profile of
    [(target function, count)] tuples — plus per-function invocation
    counts.  This is the LLVM-IR-friendly form the paper lifts its binary
    profile into (§7): optimization passes never see addresses, only these
    counts keyed by stable site identities that survive cloning (each
    clone inherits its origin id). *)

type t

val create : unit -> t

(** {2 Recording} *)

val add_direct : t -> origin:int -> count:int -> unit
val add_indirect : t -> origin:int -> target:string -> count:int -> unit
val add_entry : t -> func:string -> count:int -> unit

(** {2 Queries} *)

val direct_count : t -> origin:int -> int
val value_profile : t -> origin:int -> (string * int) list
(** Targets with counts, hottest first (ties by name for determinism). *)

val site_weight : t -> Pibe_ir.Types.site -> int
(** Count for a site by its origin: the direct counter if present, else
    the sum of its value profile. *)

val invocations : t -> string -> int
(** How often the function was entered. *)

val total_direct_weight : t -> int
val total_indirect_weight : t -> int

val profiled_indirect_origins : t -> int list
(** Origin ids that carry a value profile, ascending. *)

val merge : t -> t -> t
(** Pointwise sum (combining the 11 profiling iterations of the paper's
    methodology). *)

val merge_weighted : (float * t) list -> t
(** [merge_weighted [(w1, p1); ...]] sums every counter pointwise with the
    given non-negative weights, accumulating in floating point and
    rounding once (nearest) at the end; keys whose weighted sum rounds to
    zero are dropped.  This is the continuous-profiling combinator: a
    window ring merged with exponentially decaying weights yields the
    recency-biased training profile.  Raises [Invalid_argument] on a
    negative weight. *)

val scale : t -> float -> t
(** [scale t f] is [merge_weighted [(f, t)]]: every counter multiplied by
    [f] (non-negative) with nearest rounding, zero-rounding keys
    dropped. *)

val copy : t -> t
(** A deep, independent copy: mutating the copy (as ICP does when it moves
    promoted weight) never touches the original.  Every pipeline run
    operates on a copy of the caller's profile. *)

val remove_indirect_target : t -> origin:int -> target:string -> unit
(** Drops one target from a value profile (used by ICP when the target has
    been promoted to a direct call, leaving the fallback indirect site
    with only the residual weight). *)

val version : t -> int
(** A counter every mutator above ([add_direct], [add_indirect],
    [add_entry], [remove_indirect_target]) bumps.  Together with physical
    identity it names the profile's current contents without reading
    them: the pass manager keys its optimization-prefix reuse on the
    pair, so a profile mutated between two builds is never served the
    first build's prefix. *)

(** {2 Staleness matching} *)

type match_stats = {
  direct_kept : int;
  direct_dropped : int;
  indirect_kept : int;
  indirect_dropped : int;
  entries_kept : int;
  entries_dropped : int;
  renamed_weight : int;  (** weight that flowed through a rename *)
}
(** All fields are count weights, not key counts. *)

val match_to :
  ?renames:(string * string) list -> t -> Pibe_ir.Program.t -> t * match_stats
(** Match a (possibly stale) profile against the program about to be
    built: direct counts survive only at origins that are direct-call
    origins in [prog], value-profile counts only at indirect origins
    whose target function still exists, entry counts only for existing
    functions.  The per-kind check means a site id removed in one release
    and re-minted for a different-kind site in a later one cannot leak
    weight across kinds.  [renames] maps old function names to new ones
    (applied to value-profile targets and entry counts before the
    existence check), mirroring AutoFDO's symbol-remapping input.  The
    input is not mutated.  Matching is idempotent: matching the result
    against the same program is the identity. *)

(** {2 Persistence} *)

val to_string : t -> string

val of_string : string -> t
(** Raises {!Pibe_ir.Parser.Parse_error} with the 1-based line number on
    a malformed line, a negative count, or a count that would take the
    total of its kind (entries, direct counters, value profiles) past
    [max_int]. *)
