(** LLVM-InlineCost-style size/complexity analysis (paper §5.2, Rule 2).

    Each instruction contributes a standard cost of 5 (an approximation of
    the average encoded instruction size, as the paper notes for x86);
    nested calls cost [5 + 5 * num_args], since materializing arguments
    takes about one instruction each. *)

val standard : int
(** The standard per-instruction cost (5). *)

val inst_cost : Pibe_ir.Types.inst -> int
val term_cost : Pibe_ir.Types.terminator -> int

val func_cost : Pibe_ir.Types.func -> int
(** Sum over all instructions and terminators. *)

val inline_delta :
  before:Pibe_ir.Types.func -> after:Pibe_ir.Types.func -> site_block:Pibe_ir.Types.label -> int
(** [func_cost after - func_cost before] for a caller before and after
    {!Transform.inline_call} inlined the site in [site_block], from only
    the blocks the inline touched: [site_block], rewritten, and every
    block past [before]'s last, appended.  The inliner carries a caller's
    cost forward by it instead of re-walking the grown caller. *)

val rule2_default : int
(** Caller-complexity cap: 12,000 (paper's experimentally determined
    inhibitor threshold). *)

val rule3_default : int
(** Callee-complexity cap: 3,000 (LLVM's default hot threshold). *)
