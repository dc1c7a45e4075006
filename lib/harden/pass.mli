(** The hardening pass (paper §4, §6): applies any combination of the
    transient defenses to every remaining indirect branch.

    The paper's retpoline/LVI stack:
    - Spectre V2 -> retpolines on indirect calls;
    - LVI -> LFENCE'd thunks on indirect calls and fenced returns;
    - Ret2spec -> return retpolines on every return instruction;
    - both forward defenses together -> the combined fenced retpoline;

    and the defense-diversity family (different cost/precision shapes,
    same PIBE front-end):
    - FineIBT-style landing pads (cheap per-branch check, set-based
      precision via the [Cfi] target-set oracle);
    - PAC-style return signing (per-return auth, no RSB refill needed,
      forged-signature attacks survive);
    - coarse single-label CFI (the frontier's cheap, weak end).

    Any defense enabled -> jump tables are re-lowered as branch ladders
    (LLVM's behaviour once retpolines/LVI are on; the CFI kinds need it
    so every indirect transfer goes through a checked site).

    Exemptions mirror the paper's findings (§8.6): inline-assembly
    indirect calls (the para-virt layer) cannot be converted, functions
    marked [is_asm] keep their jump tables, and [boot_only] functions do
    not need backward-edge protection. *)

open Pibe_ir

type defenses = {
  retpolines : bool;
  ret_retpolines : bool;
  lvi : bool;
  fineibt : bool;
  pac : bool;
  coarse_cfi : bool;
}

val no_defenses : defenses

val all_defenses : defenses
(** The paper's full stack (retpolines + ret-retpolines + LVI), keeping
    its historical name and output strings; the CFI/PAC kinds are
    alternative frontier points, not part of it. *)

val defenses_name : defenses -> string
(** A ["+"]-joined list of the enabled defenses (["none"] for none), with
    the paper's stack named ["all-defenses"] and LVI alone ["lvi-cfi"]. *)

val defenses_of_string : string -> (defenses, string) result
(** Reads every name {!defenses_name} prints, so
    [defenses_of_string (defenses_name d) = Ok d] for every [d].  Each
    ["+"]-separated part also has a short alias ([retp], [retret],
    [lvi], [all], [pac], [coarse]), and a list names the union of its
    parts.  [Error] names the whole text when a part is unknown. *)

val forward_kind : defenses -> Protection.forward
(** Combination precedence: the retpoline/LVI thunks subsume the
    check-based CFI kinds, and FineIBT subsumes the coarse label. *)

val backward_kind : defenses -> Protection.backward
(** Return retpolines (plain or fenced) subsume PAC signing. *)

type image = {
  prog : Program.t;
  defenses : defenses;
  rsb_refill : bool;
  fwd : (int, Protection.forward) Hashtbl.t;  (** per protected icall site *)
  bwd : (string, Protection.backward) Hashtbl.t;  (** per protected function *)
  cfi : Cfi.t option;
      (** target-set oracle, present iff the forward kind is CFI-based *)
  thunk_bytes : int;  (** shared out-of-line thunk code *)
  hardened_icall_sites : int;
  hardened_ret_sites : int;
}

val disable_jump_tables : Program.t -> Program.t
(** Re-lowers every jump-table switch outside assembly bodies as a branch
    ladder (LLVM's behaviour once retpolines/LVI are enabled).  [harden]
    applies this automatically when any defense is on; it is also
    registered as the standalone [no-jump-tables] pipeline pass.
    Idempotent.  Functions without a jump table keep their records, and a
    program without one is returned physically unchanged. *)

val harden : ?rsb_refill:bool -> Program.t -> defenses -> image
(** [rsb_refill] (default false) additionally stuffs the RSB at every
    kernel entry — the cheap, partial Ret2spec mitigation deployed ad hoc
    in real kernels (paper §6.4); it is orthogonal to the per-branch
    defenses.  The per-site scan reads each function's memoized
    {!Pibe_ir.Summary}, so it walks only the functions that no earlier
    scan or snapshot has seen. *)

val fwd_protection : image -> Types.site -> Protection.forward
val bwd_protection : image -> string -> Protection.backward

val footprint : image -> Types.func -> int
(** Function code footprint including per-site hardening bytes, for the
    engine's i-cache.  Reads the function's memoized
    {!Pibe_ir.Summary}. *)

val image_bytes : image -> int
(** Total text bytes: all function footprints plus shared thunks. *)

val engine_config : ?base:Pibe_cpu.Engine.config -> image -> Pibe_cpu.Engine.config
(** An engine configuration wired to this image's protections and
    footprints. *)
