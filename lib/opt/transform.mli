(** IR-to-IR surgery shared by the optimization passes: callee splicing
    for the inliners and block splitting for indirect call promotion.
    All transformations preserve observable semantics (checked by
    differential interpretation in the test suite). *)

open Pibe_ir

type clone_kind =
  | Cloned_direct of string  (** a direct call to the named callee *)
  | Cloned_indirect
  | Cloned_asm

type cloned_site = {
  new_site : Types.site;  (** fresh id, origin inherited from the callee's site *)
  callee_site : Types.site;  (** the site as it appeared inside the callee *)
  kind : clone_kind;
}

val find_site_in_func : Types.func -> int -> (int * int * Types.inst) option
(** [(block index, instruction index, instruction)] of the call site with
    the given id, if present.  Site ids are unique program-wide, so the
    scan stops at the first hit.  It runs from the last block back, where
    an inline appends the sites it clones. *)

val inline_call :
  Program.t -> caller:string -> site_id:int -> Program.t * cloned_site list * Types.label
(** Replaces the direct call with the callee's body: arguments become
    register moves, every [Ret] becomes an assignment to the call's
    destination plus a jump to the continuation block.  The callee's call
    sites are cloned with fresh ids (origins preserved) and reported.
    Also returns the caller block that held the call.  That block, cut
    at the call and ending in the parameter moves and a jump to the
    inlined entry, is the only one rewritten; the callee's blocks and
    then the continuation are appended after the caller's last, and
    every other block is shared with the input.  Raises
    [Invalid_argument] if the site is missing, is not a direct call, or
    the callee is unknown. *)

type promotion = {
  fallback_site : Types.site;  (** the residual indirect call *)
  promoted : (string * Types.site) list;  (** target -> its new direct-call site *)
}

val promote_icall :
  Program.t -> caller:string -> site_id:int -> targets:string list -> Program.t * promotion
(** Rewrites the indirect call into a compare ladder over [targets] (in
    the given order, hottest first) with direct calls, keeping the
    original indirect call as the final fallback.  Each target must be in
    the program's fptr table.  Raises [Invalid_argument] on a missing or
    non-indirect site or an unregistered target. *)
