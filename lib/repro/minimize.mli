(** Replay-verified schedule minimization.

    Shrinks any schedule exposing a bug — typically a long,
    preemption-heavy one found by [random] or [pct:N] — to a
    locally-minimal witness for the same bug key, in three phases:

    + {b tail truncation}: the witness ends at the earliest step that
      exposes the bug (built into every replay, {!Sched.probe});
    + {b ddmin over preemption points}: delta debugging over the
      schedule's preempting context switches, each removal realized by
      the delay-merge transformation ({!Sched.remove_preemption}) and
      validated by replay, until the kept set is 1-minimal;
    + {b bounded ICB-style local search}: an exhaustive canonical search
      of the space with [current preemptions - 1] preemptions, seeded at
      the surviving preemption points (deepest first) and falling back
      to the whole bounded space — when it finds a witness the phases
      repeat, when it exhausts the space the current preemption count is
      {e proven} minimal for the bug key.

    A final canonicalization pass replaces the witness by the first one
    the deterministic bounded search finds at the proven-minimal bound:
    the result then depends only on [(program, key, minimal bound)], so
    the same bug found by different strategies minimizes to the {e same}
    schedule and {!Triage} fingerprints deduplicate across runs.

    Works for any {!Icb_search.Engine.S} — the stateful machine engine
    and the stateless CHESS engine alike.  Deterministic: no randomness,
    no timing dependence, telemetry-neutral (the [emit] hook observes
    the trajectory but never changes it). *)

(** Work limits.  [max_engine_steps] bounds the total engine steps spent
    across all phases (replays and bounded searches); when it runs out
    the best witness so far is returned with [proven_minimal = false].
    The default is generous enough to prove minimality on all bundled
    models. *)
type budget = { max_engine_steps : int }

val default_budget : budget

type stats = {
  original : Sched.witness;   (** the input schedule, replay-verified
                                  (and tail-truncated if it had steps
                                  past the bug) *)
  minimized : Sched.witness;
  candidates : int;           (** candidate executions replayed *)
  proven_minimal : bool;
      (** the bounded search exhausted the space with one preemption
          fewer — no witness for this key has fewer preemptions *)
}

val run :
  (module Icb_search.Engine.S with type state = 's) ->
  ?budget:budget ->
  ?deadlock_is_error:bool ->
  ?emit:Icb_obs.Emit.t ->
  key:string ->
  int list ->
  (stats, string) result
(** Minimize a schedule exposing the bug [key].  [deadlock_is_error]
    (default [true]) must match the options of the search that found the
    bug, or a "deadlock"-keyed bug cannot reproduce.  [emit] receives
    [Minimize_started] / [Minimize_improved] / [Minimize_finished]
    events (candidate counts, length/preemption trajectory).  [Error]
    when the input schedule does not reproduce the bug at all. *)

val bug :
  (module Icb_search.Engine.S with type state = 's) ->
  ?budget:budget ->
  ?deadlock_is_error:bool ->
  ?emit:Icb_obs.Emit.t ->
  Icb_search.Sresult.bug ->
  (stats, string) result
(** [run] on a collected bug's key and schedule. *)
