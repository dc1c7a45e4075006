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
    semantics (differentially tested).  Its cost follows what changes:
    after the first round, propagation revisits only the blocks dead-code
    removal rewrote, and removal re-solves liveness only for the
    registers that lost a read. *)

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
(** [run_func] with its statistics.  Each round folds and propagates per
    block, threads jumps and drops unreachable blocks, then runs
    {!eliminate_dead_fixpoint}; the rounds stop once propagation or
    removal has nothing left to do, with no cap.  The first round
    propagates every block, later ones only the blocks the previous
    removal rewrote (propagating a block twice changes nothing), so a
    function whose dead chains span many blocks still takes two rounds.

    On a body where no block writes a register after copying from it
    (as in every body the kernel generator and the inliners make), the
    result and statistics are those of the plain loop the tests keep as
    a reference: whole-function propagation, threading and one
    {!eliminate_dead} per round, repeated until a round changes
    nothing.  The one exception is
    a cycle of empty [jmp]-only blocks, an infinite loop with no effect:
    it is threaded as its blocks empty, so emptying them in a different
    order can leave a different member in place, and [blocks_removed]
    moves with it.  Where a block does write a register after copying
    from it, removing that write gives propagation more to do, and the
    two loops reach equivalent fixpoints that can keep different copies
    and count [folded] differently; a register copied to itself binds
    nothing here, so reading it afterwards is no fold. *)

val eliminate_dead : Types.func -> Types.func * int
(** The dead-assignment step alone: solves register liveness over the
    whole function, then drops every pure assignment whose register is
    dead where it is written, sweeping each block backward.  A chain of
    dead values inside one block goes in one call; a chain across blocks
    loses one link per call, because liveness is solved before anything
    is dropped.  Returns the number dropped, and [f] itself when that is
    0.  Liveness is solved per register — a backward walk from the
    blocks that read it first, stopped at the blocks that write it — so
    the cost follows the live ranges, not the function's size times its
    worklist visits.  Never raises on a register the validator would
    reject (negative, or past [nregs]). *)

val eliminate_dead_fixpoint : Types.func -> Types.func * int
(** {!eliminate_dead} repeated until it drops nothing, with the same
    result and total count, at the cost of one step plus the work its
    removals cause: after the first step, only a register that lost a
    read in a block that read it first is re-walked, and only the
    writers it stopped being live out of are swept again.  Removal
    follows iterated liveness, not reachability from observable uses:
    a value that only feeds itself around a loop stays. *)

val run_with_stats : Program.t -> Program.t * stats
(** [run] with the per-function statistics summed program-wide (fed to the
    pass manager's per-pass reporting).  Each function's result is
    memoized on its physical identity, process-wide, so a function an
    earlier run already cleaned costs a lookup; outputs are the same as
    cleaning afresh.  A function left unchanged keeps its record. *)
