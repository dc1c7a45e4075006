(** Bounded, domain-safe memo tables: the one cache protocol behind every
    process-wide cache (compiled images, optimization prefixes, the
    profile collector's address tables, the experiment environment, and
    the per-function IR summaries and cleanup results).

    A memo keeps at most [capacity] entries in exact least-recently-used
    order and compares keys with the caller's [equal] (physical identity
    for programs and functions, structural for configurations).  Without
    [hash] a lookup scans every entry, most recently used first, which
    suits the few entries of the image and prefix caches.  With [hash]
    the entries are indexed by it, so a lookup compares only the keys
    that hash alike; recency order, eviction and counts are exactly as
    without it.  A hit allocates nothing.

    [get] holds the lock only for the table operations: a miss runs
    [compute] outside it, so independent keys proceed concurrently.  Two
    domains racing on one cold key may both compute it; the first to
    finish is recorded and the other adopts that entry over its own
    result, so every caller sees the same physical value.  A [compute]
    that raises records nothing, and the next [get] of that key computes
    again.

    Hits and misses are counted (a raising or racing compute counts as a
    miss).  Which domain computes first depends on scheduling, so the
    optional trace counters live in the ["sched"] category that
    {!Pibe_trace.Trace.canonical} strips. *)

type ('k, 'v) t

val create :
  ?capacity:int ->
  ?counter:string ->
  ?hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [capacity] (at least 1) bounds the entry count, evicting the least
    recently used entry; omitted, the memo is unbounded.  With [counter],
    every [get] also emits a ["sched"] trace counter named
    [counter ^ "-hit"] or [counter ^ "-miss"] carrying [("count", Int 1)].
    [hash] must agree with [equal] (equal keys hash alike); it is
    computed outside the lock. *)

val get : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** [get t k compute] is the value recorded for [k], made the most
    recently used; on a miss, [compute k]'s result (or a racing
    domain's, if it finished first) is recorded and returned.  Passing
    [k] lets callers hand over a closed function, so a hit allocates
    nothing at the call site either. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Whether [k] has an entry; counts nothing and keeps the order. *)

val keys : ('k, 'v) t -> 'k list
(** The recorded keys, most recently used first. *)

val stats : ('k, 'v) t -> int * int
(** [(hits, misses)] of [get] since [create]. *)
