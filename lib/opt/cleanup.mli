(** Post-inlining scalar cleanup.

    The paper (§5.2) notes that inlining's main traditional benefit is the
    follow-on optimization it unlocks (constant propagation, dead-code
    elimination, ...).  This pass supplies exactly that follow-on work so
    the PGO baseline earns its speedup the same way the authors' LTO
    pipeline does:

    - constant folding and block-local constant/copy propagation,
    - branch folding ([br] on a known condition, [switch] on a constant),
    - unreachable-block removal,
    - jump threading through empty forwarding blocks,
    - dead-store elimination of pure assignments (global liveness,
      solved per register; calls, stores and observes are never
      touched).

    The pass is a fixed point of all of the above and preserves observable
    semantics (differentially tested). *)

open Pibe_ir

val run_func : Types.func -> Types.func
val run : Program.t -> Program.t
(** Cleans every function that is not [optnone]/[is_asm]
    ({!run_with_stats} without the statistics). *)

type stats = {
  folded : int;  (** operands/exprs replaced by constants or copies *)
  branches_folded : int;
  blocks_removed : int;
  dead_assigns_removed : int;
}

val run_func_with_stats : Types.func -> Types.func * stats
(** [run_func] with its statistics: at most 8 rounds, each folding and
    propagating per block, then threading jumps and dropping unreachable
    blocks, then one {!eliminate_dead}, until a round changes nothing. *)

val eliminate_dead : Types.func -> Types.func * int
(** The dead-assignment step of one round, alone: solves register
    liveness over the whole function, then drops every pure assignment
    whose register is dead where it is written, sweeping each block
    backward.  A chain of dead values inside one block goes in one call;
    a chain across blocks loses one link per call, because liveness is
    solved before anything is dropped.  Returns the number dropped, and
    [f] itself when that is 0.  Liveness is solved per register — a
    backward walk from the blocks that read it first, stopped at the
    blocks that write it — so the cost follows the live ranges, not the
    function's size times its worklist visits.  Never raises on a
    register the validator would reject (negative, or past [nregs]). *)

val run_with_stats : Program.t -> Program.t * stats
(** [run] with the per-function statistics summed program-wide (fed to the
    pass manager's per-pass reporting).  Each function's result is
    memoized on its physical identity, process-wide, so a function an
    earlier run already cleaned costs a lookup; outputs are the same as
    cleaning afresh.  A function left unchanged keeps its record. *)
