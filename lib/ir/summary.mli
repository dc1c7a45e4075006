(** Per-function IR summary: the counts that whole-program walks sum
    (blocks, instructions, code bytes, indirect-call sites, returns, jump
    tables), computed once per function value.

    Programs are persistent and the passes hand back the functions they
    leave alone physically unchanged, so most functions of a build are
    values an earlier build already summarized.  {!of_func} memoizes on
    that physical identity in one process-wide {!Pibe_util.Memo}, and
    the pass manager's snapshots and the hardening pass read it instead
    of re-walking every instruction. *)

open Types

type t = {
  blocks : int;
  insts : int;  (** {!Func.inst_count}: terminators included *)
  code_bytes : int;  (** {!Layout.func_size} *)
  icall_sites : site list;  (** {!Func.icall_sites} *)
  rets : int;  (** {!Func.ret_count} *)
  jump_tables : int;  (** {!Func.jump_table_count} *)
}

val of_func : func -> t
(** The summary of [f], computed on the first call for this physical
    value and recorded (at most [2^15] entries, least recently used
    evicted first).  Equal to computing it afresh, on any domain. *)
