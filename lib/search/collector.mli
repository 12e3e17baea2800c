(** Mutable accumulator shared by all search strategies: distinct-state
    accounting, execution counting, bug deduplication and growth curves.
    A collector only records; the round runners apply the limits between
    work items, through {!limit_hit}. *)

(** A live snapshot of the search, handed to [on_progress] after every
    completed execution; drive heartbeat displays from it. *)
type progress = {
  p_executions : int;
  p_states : int;
  p_bugs : int;
  p_elapsed : float;   (** seconds since the collector was created *)
  p_bound : int option;(** ICB's current context bound, when applicable *)
  p_frontier : int option;
      (** work items seeding the current round, when the driver noted it
          ({!note_frontier}) *)
}

type options = {
  max_executions : int option;
  max_states : int option;
  max_total_steps : int option;
  deadline : float option;
      (** absolute wall-clock deadline ([Unix.gettimeofday] scale); once
          it passes, the search stops between work items with a partial
          result (see {!overdue} for an execution that does not end, and
          {!deadline_in}) *)
  deadlock_is_error : bool;
  stop_at_first_bug : bool;
  terminal_states_only : bool;
      (** count only the state at the end of each execution (the paper's
          Section 4.3 stateless-coverage convention for Figures 2, 5 and
          6) instead of every visited state *)
  on_progress : (progress -> unit) option;
      (** called after every completed execution; throttle on the caller's
          side if the display is expensive *)
  events : Icb_obs.Emit.t;
      (** telemetry emitter for [Execution_done]/[Bug_found]; the default
          {!Icb_obs.Emit.null} costs one branch per execution.  Callers
          normally leave this alone and pass [?telemetry] to the search
          entry points, which install per-worker emitters here. *)
}

val default_options : options
(** No limits, deadlocks are errors, keep searching after a bug. *)

val deadline_in : float -> float
(** [deadline_in secs] is the absolute deadline [secs] seconds from now,
    ready to store in [options.deadline]. *)

type t

val create : options -> t

val touch : t -> int64 -> unit
(** Record a reached state by signature, and count the step. *)

val seen_states : t -> int

val executions : t -> int

val note_bound : t -> int -> unit
(** ICB: the bound now being explored, surfaced in {!progress} and
    stamped on [Execution_done] telemetry events. *)

val note_frontier : t -> int -> unit
(** The number of items seeding the current round, surfaced as
    [progress.p_frontier]; the driver notes it at each round start. *)

(** End-of-execution record: engine measurements of the finished (or
    truncated) execution. *)
type execution_end = {
  depth : int;
  blocks : int;
  preemptions : int;
  threads : int;
  trail : int list;
      (** the schedule newest first ({!Engine.S.trail}); reversed only
          when the execution exposes a bug *)
  signature : int64;
  status : Engine.status;   (** [Running] means truncated by a depth bound *)
}

val end_execution : t -> execution_end -> unit
(** Count the execution and record the bug its status exposes
    ({!status_bug}).  Each bug key keeps the least
    [(preemptions, schedule)] witness seen, stamped with the execution
    that first found the key.  [Bug_found] is emitted whenever the
    offered witness becomes its key's (a new key or a lesser witness).
    Then [on_progress] is called. *)

val limit_hit :
  options ->
  executions:int ->
  states:int ->
  steps:int ->
  bugs:int ->
  Sresult.stop_reason option
(** The first limit the run totals meet, in a fixed order: states, steps,
    the first bug, executions, the deadline.  Every runner stops through
    it between work items — the serial runner on its collector
    ({!limit_reached}), the domain pool and the distributed coordinator on
    their round-wide totals — so the reason recorded when several limits
    trip at once does not depend on the runner. *)

val limit_reached : t -> Sresult.stop_reason option
(** {!limit_hit} on the collector's own options and totals, polling the
    deadline once per 32 steps and executions; under [stop_at_first_bug],
    a restored bug counts. *)

val overdue : t -> bool
(** Tested by an item after each step of an execution: [true] once
    2{^14} steps have passed since a poll every 32 steps first found
    {!limit_reached}, and the item gives up, so an execution that never
    ends cannot hold a run past its limits ({!Strategy.S.expand}). *)

val gave_up : t -> bool
(** Whether an item gave up: {!overdue} held. *)

val status_bug :
  deadlock_is_error:bool -> Engine.status -> (string * string) option
(** The key and message of the bug an end status exposes: a failure by
    its own key, a deadlock as ["deadlock"] when deadlocks are errors. *)

val count_switches : int list -> int
(** Context switches in a schedule: adjacent differing thread ids. *)

val record_bound : t -> int -> unit
(** ICB: snapshot coverage (distinct states and cumulative executions)
    after completing the given context bound.  Recording the newest
    entry's bound again replaces that entry. *)

val set_complete : t -> unit

val note_stop : t -> Sresult.stop_reason -> unit
(** Record why the search stopped.  The first recorded reason wins. *)

val total_steps : t -> int

val elapsed : t -> float
(** Seconds since the collector was created (or restored). *)

val bug_count : t -> int

val absorb_bug : t -> Sresult.bug -> unit
(** Add a bug found by another collector (a parallel worker, a
    distributed batch) under {!end_execution}'s witness rule: a known key
    takes a lesser witness and keeps its stamp. *)

val mark_growth : t -> unit
(** Append a (executions so far, distinct states) point to the growth
    curve, unless it is the newest point already; the parallel executor
    calls this at each bound barrier, where the serial collector would
    have recorded per-execution points. *)

(** {2 Checkpointable state}

    Everything the accumulator has learned, as plain marshal-safe data.
    Options (limits, callbacks) are not part of a snapshot: the resuming
    caller supplies fresh ones. *)

type snapshot

val snapshot : t -> snapshot

val restore : options -> snapshot -> t
(** A collector that continues exactly where the snapshotted one stopped:
    same visited set, bug list, counters and curves. *)

val snapshot_complete : snapshot -> bool
(** The snapshotted search had already exhausted its space. *)

val snapshot_bugs : snapshot -> Sresult.bug list
(** Bugs in discovery order. *)

val snapshot_executions : snapshot -> int

val snapshot_steps : snapshot -> int

val snapshot_states : snapshot -> int
(** Distinct states the snapshotted collector recorded. *)

val snapshot_to_json : snapshot -> Icb_obs.Json.t
(** The wire form used by the distributed protocol: everything the
    snapshot holds — including the visited-signature set, as decimal
    strings (JSON numbers are not 64-bit) — so the receiving side's
    {!merge_stats} computes the same distinct-state union a
    shared-memory barrier would. *)

val snapshot_of_json : Icb_obs.Json.t -> (snapshot, string) result

type snapshot_v1
(** The snapshot layout written by format-v1 checkpoints (no per-bound
    execution counts).  Only {!Checkpoint.load} unmarshals values at this
    type. *)

val snapshot_of_v1 : snapshot_v1 -> snapshot
(** Upgrade a v1 snapshot; the missing per-bound execution curve becomes
    empty. *)

val merge_stats : t -> snapshot -> unit
(** Fold a parallel worker's snapshot into this (master) collector: union
    of visited states, saturating sums of the execution and step counters
    (they pin at [max_int] rather than wrapping negative), max of the
    per-execution maxima.  Bugs and the growth/bound curves are NOT
    merged: deterministic bug merging needs a sort across all workers of a
    bound, which the parallel executor owns ({!absorb_bug},
    {!mark_growth}, {!record_bound}). *)

val forge_counts : snapshot -> executions:int -> total_steps:int -> snapshot
(** A copy of the snapshot with the summed counters replaced; test support
    for the saturation behaviour of {!merge_stats}. *)

val result : t -> strategy:string -> Sresult.t
