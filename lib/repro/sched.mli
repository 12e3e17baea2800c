(** Schedule surgery and replay probing — the primitives {!Minimize} is
    built from.

    Everything here works through the engine abstraction
    ({!Icb_search.Engine.S}), so both the stateful machine engine and the
    stateless CHESS engine are supported.  All replays are {e defensive}:
    a candidate schedule that names a disabled thread, diverges
    ({!Icb_search.Engine.Nondeterministic_program}) or reaches a
    different outcome is reported as "does not reproduce" rather than
    raised out of the minimizer. *)

(** A replay-verified execution exposing a bug: the schedule consumed up
    to the first terminal state, with the engine's own measurements. *)
type witness = {
  schedule : int list;
  preemptions : int;
  context_switches : int;
  depth : int;
}

val better : witness -> witness -> bool
(** [better a b]: is [a] a strictly smaller witness than [b]?
    Lexicographic on (preemptions, depth, schedule) — the last component
    makes the order total, so "keep the best seen" is deterministic. *)

val count_switches : int list -> int
(** Total context switches (preempting or not): adjacent pairs of
    differing thread ids — {!Icb_search.Collector.count_switches}. *)

exception Budget
(** Raised by {!probe} and {!bounded_find} when the shared engine-step
    budget runs out; {!Minimize} converts it into a
    [proven_minimal = false] result. *)

val crash_key : exn -> string
(** The bug key crash containment gives an exception escaping an engine
    step ("nondeterministic-program" or "engine-crash:<constructor>"):
    {!Icb_search.Search_core.crash_key}, so crash bugs minimize too. *)

val probe :
  (module Icb_search.Engine.S with type state = 's) ->
  deadlock_is_error:bool ->
  key:string ->
  steps:int ref ->
  int list ->
  witness option
(** Replay a schedule from the initial state, stopping at the first
    terminal state (built-in tail truncation: trailing steps past the
    bug never make it into the witness), and report whether that state
    exposes the bug [key].  A schedule step naming a disabled thread, an
    engine exception with a different {!crash_key}, or a terminal state
    with a different outcome all yield [None].  Decrements [steps] once
    per engine step; raises {!Budget} when it hits zero. *)

val preemption_stack :
  (module Icb_search.Engine.S with type state = 's) ->
  int list ->
  (int * int * int) list
(** The preempting context switches of a replayable schedule, oldest
    first, as [(step index, preempted tid, chosen tid)] triples — the
    "preemption stack" that fingerprints a minimized witness.  Raises
    [Invalid_argument] if the schedule does not replay. *)

val remove_preemption : int list -> at:int -> int list option
(** Delay-merge transformation: drop the preemption whose switch happens
    at step index [at] by delaying the preempted thread's next run to
    immediately after its interrupted run (the intervening segments slide
    later, adjacent same-thread runs merge).  Purely syntactic — the
    result must still be validated by {!probe}.  [None] when the
    preempted thread never runs again, or [at] does not start a new
    thread's run. *)

val remove_preemptions : int list -> at:int list -> int list option
(** Apply {!remove_preemption} at each given step index, latest first
    (the transformation preserves the schedule prefix before the removed
    switch, so earlier indices stay valid); [None] as soon as one removal
    is impossible. *)

val bounded_find :
  (module Icb_search.Engine.S with type state = 's) ->
  deadlock_is_error:bool ->
  key:string ->
  max_preemptions:int ->
  steps:int ref ->
  tried:int ref ->
  prefix:int list ->
  unit ->
  witness option
(** Exhaustive depth-first search for an execution exposing [key] with at
    most [max_preemptions] preemptions, rooted at the state reached by
    replaying [prefix] (the empty prefix searches the whole bounded
    space).  The visit order is deterministic and input-independent —
    continue the running thread first, then the other enabled threads in
    increasing tid order — so the first witness found is a {e canonical}
    representative for [(key, max_preemptions)].  [tried] counts terminal
    states visited (candidate executions); [steps] is the shared engine
    budget ({!Budget} when exhausted).  [None] when the bounded space
    holds no such execution (or the prefix itself does not replay). *)
