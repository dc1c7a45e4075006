(** Accessors and traversals over IR functions. *)

open Types

val block : func -> label -> block
(** Raises [Invalid_argument] on out-of-range labels. *)

val iter_insts : func -> (label -> inst -> unit) -> unit
(** All instructions, in block order. *)

val iter_terms : func -> (label -> terminator -> unit) -> unit

val fold_insts : func -> init:'a -> f:('a -> inst -> 'a) -> 'a

val map_blocks : func -> f:(label -> block -> block) -> func

val call_sites : func -> (site * string) list
(** Direct-call sites with their callees, in block order. *)

val icall_sites : func -> site list
(** Promotable indirect-call sites (excludes [Asm_icall]). *)

val asm_icall_sites : func -> site list

val ret_count : func -> int
(** Number of [Ret] terminators (backward edges emitted for this
    function). *)

val jump_table_count : func -> int
(** Switch terminators currently lowered as jump tables. *)

val inst_count : func -> int
(** Total instruction count, terminators included. *)

val successors : terminator -> label list

val iter_successors : terminator -> (label -> unit) -> unit
(** [List.iter g (successors t)] without building the list. *)

val reachable_labels : func -> bool array
(** [reachable_labels f] marks blocks reachable from the entry. *)

val max_site_id : func -> int
(** Largest [site_id] appearing in the function; [-1] if none. *)

val rename_sites : func -> fresh:(site -> site) -> func
(** Rewrites every call-site id (used when cloning bodies during
    inlining). *)
