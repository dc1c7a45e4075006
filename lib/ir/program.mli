(** A whole program: functions in layout order, the function-pointer table,
    and the initial image of global memory.

    Indirect calls transfer to [fptr_table.(v)] where [v] is the runtime
    value of the call's pointer operand; the kernel generator seeds global
    memory with operation-table cells holding such indices (mirroring
    [file_operations]-style dispatch in the paper's target). *)

open Types

module String_map : Map.S with type key = string

type t = private {
  funcs : func String_map.t;
  rev_order : string list;  (** layout order, most recently added first *)
  fptr_table : string array;  (** function index -> function name *)
  globals_size : int;
  rev_globals_init : (int * int) list;  (** (address, value), newest first *)
  next_site : int;  (** next fresh call-site id *)
}

val empty : t

val with_globals_size : t -> int -> t
(** Sets the size of the global-memory image (cells initialized to 0). *)

val layout_order : t -> string list
(** Function names in code-layout order. *)

val find : t -> string -> func
(** Raises [Not_found] for unknown names. *)

val find_opt : t -> string -> func option
val mem : t -> string -> bool

val add_func : t -> func -> t
(** Adds or replaces; new names are appended to the layout order. *)

val update_func : t -> func -> t
(** Replaces an existing function; raises [Invalid_argument] if absent. *)

val remove_func : t -> string -> t
(** Removes a function from the program and the layout order.  Raises
    [Invalid_argument] if absent or address-taken (present in the fptr
    table) — callers must rewrite remaining call sites themselves (the
    kernel evolution model does). *)

val iter_funcs : t -> (func -> unit) -> unit
(** In layout order.  The layout order is a list of names, so each step
    looks its function up in the map: one [String_map.find] per
    function, which at 1,744 functions makes a walk cost 0.28–0.38 ms
    on a 2-vCPU Xeon VM, against about 0.012 ms for {!iter_unordered}.
    Where the order cannot reach the result, use that instead. *)

val fold_funcs : t -> init:'a -> f:('a -> func -> 'a) -> 'a
(** In layout order, with {!iter_funcs}'s lookup per function. *)

val iter_unordered : t -> (func -> unit) -> unit
(** Every function once, straight off the map, in an unspecified order.
    Use it only where the order cannot reach the result: sums, tables
    keyed by site or name that nothing iterates, and per-function
    rewrites through {!update_func}. *)

val fold_unordered : t -> init:'a -> f:('a -> func -> 'a) -> 'a
(** {!fold_funcs} in {!iter_unordered}'s order, under the same rule. *)

val func_count : t -> int

val fptr_index : t -> string -> int option
(** Reverse lookup into the fptr table (first occurrence). *)

val add_fptr : t -> string -> t * int
(** Appends a function name to the fptr table, returning its index;
    reuses an existing entry when present. *)

val fresh_site : t -> t * site
(** Allocates a brand-new call site (origin = own id). *)

val clone_site : t -> origin:site -> t * site
(** Allocates a fresh id that inherits [origin]'s profile identity. *)

val set_global : t -> addr:int -> value:int -> t
(** Overrides one cell of the initial memory image (last write wins). *)

val initial_memory : t -> int array
(** Materializes the initial global-memory image. *)

val all_sites : t -> (string * site) list
(** Every call site (direct, indirect, asm) with its enclosing function. *)

val total_icall_sites : t -> int
(** Promotable indirect-call sites across the program. *)

val total_ret_sites : t -> int
(** Return instructions across the program (backward-edge surface). *)
