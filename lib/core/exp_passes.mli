(** Extension: per-pass pipeline instrumentation (IR deltas,
    pass-specific statistics) for the headline configurations, as
    reported by the pass manager. *)

val run : Env.t -> Pibe_util.Tbl.t list
