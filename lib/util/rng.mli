(** Deterministic pseudo-random number generation.

    Every stochastic choice in the reproduction (kernel generation, workload
    target selection, timing jitter) flows through a seeded [Rng.t] so that
    experiments are pure functions of their seed.  The generator is
    splitmix64, which is small, fast and statistically adequate for workload
    synthesis. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    streams are decorrelated.  Used to give each kernel subsystem or
    workload its own stream so adding draws in one place does not perturb
    the others. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly in [\[0, bound)]. *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val weighted : t -> (int * 'a) array -> 'a
(** [weighted t arr] draws ['a] with probability proportional to the [int]
    weights (all non-negative, at least one positive). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] draws the number of failures before the first success
    of a Bernoulli(p) sequence; heavy-tailed counts for workload fan-out. *)

type zipf
(** A Zipf distribution over [\[0, n)]: its cumulative weights,
    precomputed once, so a draw is one uniform float and a scan that
    allocates nothing. *)

val zipf_dist : n:int -> s:float -> zipf
(** [zipf_dist ~n ~s] gives rank [k] the weight [1/(k+1)^s]; [n] must be
    positive. *)

val zipf : t -> zipf -> int
(** [zipf t d] draws a rank of [d]; used to give indirect-call sites the
    skewed target popularity the paper reports (Table 4). *)
