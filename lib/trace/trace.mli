(** Structured tracing and metrics: spans, counters and gauges with a
    zero-cost disabled path.

    The layer is a process-global collector.  When disabled (the default)
    every emitting entry point is a single atomic load and a branch — no
    clock read, no allocation, no lock — so instrumented code pays nothing
    in release runs ([test/test_trace.ml] pins both the "no events" and
    the "does not perturb simulated cycles" halves of that claim).  When
    enabled, events carry a monotonic timestamp, the emitting domain id
    and a global sequence number, and land in a mutex-guarded buffer;
    emission sites are deliberately coarse (per pass, per measurement run,
    per profiling window — never per instruction), so the lock is cold.

    Three sinks render a collected stream: human-readable indented text,
    CSV, and Chrome [trace_event] JSON loadable in [chrome://tracing] or
    Perfetto (spans become nestable B/E slices per domain, counters become
    counter tracks).

    Determinism contract: everything an instrumented run computes is a
    pure function of its seeds, so event {e content} is deterministic.
    The execution-dependent residue is confined to three places —
    timestamps (host time), domain ids, and events in the ["sched"]
    category (work distribution).
    {!canonical} strips exactly that residue and stable-sorts the rest, so
    a run at [--jobs 1] and a run at [--jobs 4] yield byte-identical
    canonical streams (also pinned by the tests). *)

type value = Int of int | Float of float | Str of string

type phase =
  | Begin  (** span opened *)
  | End  (** span closed *)
  | Instant  (** point event *)
  | Counter  (** metric sample: args are the (name, value) series *)

type event = {
  ph : phase;
  name : string;
  cat : string;  (** category; ["sched"] marks execution-dependent events *)
  ts_ns : int64;  (** monotonic clock, nanoseconds *)
  dom : int;  (** emitting domain id *)
  seq : int;  (** global emission order *)
  args : (string * value) list;
}

(** {1 Collection} *)

val enabled : unit -> bool
(** One atomic load; instrumentation on hot-ish paths should guard any
    argument-list construction behind it. *)

val start : unit -> unit
(** Clear the buffer and enable collection. *)

val stop : unit -> event list
(** Disable collection and return everything collected, in emission
    ([seq]) order. *)

val events : unit -> event list
(** Snapshot of the buffer in emission order, without disabling. *)

val clear : unit -> unit

(** {1 Emission} *)

val span : ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] between a [Begin] and an [End] event.  The
    [End] is emitted even when [f] raises (with the exception rendered
    into an ["exn"] argument) and the exception is re-raised.  When
    disabled this is exactly [f ()]. *)

val counter : ?cat:string -> string -> (string * value) list -> unit
(** [counter name series] records one sample of a named metric family;
    each argument is one track (Chrome renders them stacked). *)

val gauge : ?cat:string -> string -> float -> unit
(** [gauge name v] is [counter name [("value", Float v)]]. *)

val instant : ?cat:string -> ?args:(string * value) list -> string -> unit

(** {1 Analysis} *)

val check_balanced : event list -> (unit, string) result
(** Per-domain span balance: every [End] matches the innermost open
    [Begin] of the same name on its domain, and no span stays open. *)

val counter_totals : event list -> ((string * string * string) * float) list
(** Sum of every numeric counter argument, keyed by
    [(category, counter name, argument key)], sorted by key.  [Str]
    arguments are ignored.  Totals are independent of which domain emitted
    which sample — the cross-domain merge the tests pin. *)

val canonical : event list -> string list
(** The deterministic payload of a stream: one line per event holding
    phase, category, name and arguments — timestamps, domain ids and
    sequence numbers dropped, ["sched"]-category events removed —
    stable-sorted.  Equal for equal seeded work at any job count. *)

(** {1 Sinks} *)

type format = Text | Csv | Chrome

val format_of_path : string -> format
(** The sink a trace file's extension asks for: [.json] is {!Chrome},
    [.csv] is {!Csv}, anything else {!Text}.  Every program that writes a
    trace picks its sink with this one rule. *)

val format_to_string : format -> string

val to_text : event list -> string
(** Indented per-domain span tree with millisecond durations; counters and
    instants print at their nesting depth. *)

val to_csv : event list -> string
(** One row per event: [seq,dom,ph,cat,name,t_us,args]; [t_us] is
    microseconds since the first event; args are [k=v] pairs joined with
    [';'] in one quoted field. *)

val to_chrome : event list -> string
(** Chrome [trace_event] JSON: [{"traceEvents": [...]}] with B/E duration
    events and C counter events, [tid] = domain id, timestamps in
    microseconds since the first event.  Load in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}.  Only numeric counter arguments
    are emitted on C events (Chrome requirement). *)

val render : format -> event list -> string
val write_file : path:string -> format -> event list -> unit
