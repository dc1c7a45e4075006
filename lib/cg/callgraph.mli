(** Static call graph over an IR program.

    Edges come in two flavours: direct (one per [Call] site) and indirect
    (one per [Icall] site, with the possible targets unknown statically —
    the profiler's value profiles fill them in).  The graph drives both
    inliners (recursion detection, bottom-up order for the LLVM-default
    inliner) and the elision statistics.

    [build] interns every name once: the program's functions in layout
    order, then the callees outside the program.  Recursion (an
    iterative Tarjan), reachability and the bottom-up order then walk
    dense ids and per-function callee-id arrays, so no query hashes a
    name more than twice.  Every query answers for any name, including a
    callee outside the program and a name the program never mentions. *)

type direct_edge = {
  caller : string;
  callee : string;
  site : Pibe_ir.Types.site;
}

type t

val build : Pibe_ir.Program.t -> t

val direct_edges : t -> direct_edge list
(** All direct edges, in layout/block order. *)

val callees_of : t -> string -> direct_edge list
(** Direct out-edges of a function. *)

val callers_of : t -> string -> direct_edge list
(** Direct in-edges of a function, in layout/block order; a scan of all
    edges per call. *)

val icall_sites_of : t -> string -> Pibe_ir.Types.site list
(** Promotable indirect sites inside a function, in block order; a scan
    of its body per call. *)

val in_recursive_cycle : t -> string -> bool
(** True if the function sits on a directed cycle of direct calls
    (including self-calls); such callees are never inlined. *)

val reaches : t -> src:string -> dst:string -> bool
(** Reachability over direct edges: would inlining [dst] into [src]
    create a cycle?  ([reaches ~src:callee ~dst:caller]).  The walk
    reuses a visited array kept in [t], stamped per call, so one graph
    must not serve [reaches] to two domains at once. *)

val bottom_up_order : t -> string list
(** Functions ordered so that (non-cyclic) callees precede their callers —
    the visit order of LLVM's default inliner (paper §8.4).  Callees
    outside the program are listed too, where the walk meets them. *)

val to_dot : t -> string
(** Graphviz rendering, for debugging and documentation. *)
