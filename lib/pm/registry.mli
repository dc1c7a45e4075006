(** Built-in pass registry: resolves textual spec elements into runnable
    {!Pass.t} instances, validating names and typed options.

    Registered passes and their options:

    - [icp(budget=PCT, max-targets=N)] — PIBE indirect-call promotion;
      [budget] defaults to 99.999, [max-targets] is unbounded when absent.
    - [inline(budget=PCT, lax, lax=PCT, rule2=N, rule3=N)] — PIBE's
      weight-ordered inliner; bare [lax] enables the paper's lax window at
      its default 99%, [lax=PCT] sets the window explicitly.
    - [llvm-inline(budget=PCT, hot=N, cold=N, cap=N)] — the LLVM-default
      bottom-up PGO inliner baseline.
    - [cleanup] — post-inlining scalar cleanup.
    - [retpoline], [ret-retpoline], [lvi-cfi], [fenced-retpoline] —
      hardening requests; [fenced-retpoline] is sugar for
      retpoline + LVI (lowered to the combined fenced sequence).
    - [no-jump-tables] — re-lower jump tables as branch ladders now
      (implied by any defense at hardening time; idempotent).
    - [rsb-refill] — stuff the RSB at every kernel entry (§6.4).

    Every percentage ([budget], [lax=PCT]) must be finite and between 0
    and 100, [max-targets] at least 1, and the integer thresholds
    ([rule2], [rule3], [hot], [cold], [cap]) at least 0; {!find} rejects
    anything else with a message naming the pass, the option and the
    value.

    The defense passes and [rsb-refill] are tagged as hardening requests
    ({!Pass.t}'s [request]); the others transform the IR and form the
    optimization prefix the manager may reuse. *)

val names : string list
(** Registered pass names, alphabetical. *)

type opt_info = {
  opt_key : string;  (** option name as written in a spec *)
  opt_type : string;  (** "float", "int", or "flag or float" *)
  opt_default : string;  (** rendered default (live, from the pass config) *)
  opt_sample : string option;  (** example value; [None] = bare flag *)
  opt_doc : string;
}

type pass_info = {
  info_name : string;
  info_doc : string;
  info_opts : opt_info list;
}

val infos : pass_info list
(** One entry per registered pass, same order as {!names}; defaults are
    read from the live pass configs, never hand-copied. *)

val sample_spec_text : pass_info -> string
(** A spec element exercising every documented option — guaranteed to
    parse ({!Spec.of_string}) and resolve ({!find}); the tests pin this. *)

val find : Spec.elem -> (Pass.t, string) result
(** Resolves one element; [Error] explains the unknown pass or option
    (listing what is accepted). *)

val of_spec : Spec.t -> (Pass.t list, string) result
(** Resolves a whole spec, failing on the first bad element. *)
