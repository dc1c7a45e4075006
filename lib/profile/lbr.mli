(** Simulated Last Branch Record facility.

    Modern Intel CPUs expose the last N taken branches as (from, to)
    address pairs in a small ring; a PMU handler drains the ring
    periodically.  The collector feeds every call edge through this ring
    so the aggregation sees exactly what a hardware profiler would:
    address pairs, no IR identities.  The ring holds the two addresses
    in two int arrays, like the hardware's fixed-width FROM/TO register
    pairs, so recording and draining allocate nothing. *)

type t

val create : ?depth:int -> drain:(from_addr:int -> to_addr:int -> unit) -> unit -> t
(** [depth] defaults to 32, matching Skylake's LBR depth.  [drain] is the
    PMU-handler callback invoked for each recorded pair, oldest first,
    when the ring fills (and on [flush]). *)

val record : t -> from_addr:int -> to_addr:int -> unit
val flush : t -> unit
(** Drains any buffered records (end of the profiling run). *)

val drained : t -> int
(** Total records handed to [drain] so far. *)
