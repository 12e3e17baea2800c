(** The search strategies.

    {!Icb} is the paper's Algorithm 1; the others are the baselines its
    evaluation compares against (unbounded depth-first search,
    depth-bounded DFS, iterative depth-bounding, uniform random walk).

    {2 Resilience}

    Every strategy degrades gracefully: any limit in
    {!Collector.options} — including the wall-clock [deadline] — stops the
    search with a partial result ([complete = false] and a
    {!Sresult.stop_reason}) instead of raising.  An exception escaping an
    engine step (including [Stack_overflow], [Out_of_memory] and
    {!Engine.Nondeterministic_program}) is contained as a replayable
    {!Sresult.bug} carrying the provoking schedule prefix; the search
    continues on the remaining branches.

    Every strategy except {!Sleep_dfs} additionally supports
    checkpoint/resume: pass [?checkpoint_out] to {!run} and the frontier
    (work items as replayable schedule prefixes, the strategy's round
    counter and parameters) plus all coverage counters are written
    atomically every [?checkpoint_every] executions and whenever a limit
    stops the search; {!resume} continues from a loaded {!Checkpoint.t},
    reaching the same bug set an uninterrupted run would.  Requesting
    checkpointing for {!Sleep_dfs} raises [Invalid_argument].

    Each strategy variant selects a {!Strategies} instance (a first-class
    module of type {!Strategy.S}); {!Driver.run} executes it. *)

type strategy =
  | Icb of { max_bound : int option; cache : bool }
      (** iterative context bounding; [max_bound = Some c] stops after
          exploring every execution with at most [c] preemptions *)
  | Dfs of { cache : bool }
  | Bounded_dfs of { depth : int; cache : bool }
      (** the paper's db:N baseline *)
  | Iterative_dfs of { start : int; incr : int; max_depth : int; cache : bool }
      (** iterative deepening over depth bounds *)
  | Random_walk of { seed : int64 }
  | Sleep_dfs
      (** depth-first search with Godefroid-style sleep sets over dynamic
          step footprints — the partial-order reduction the paper names as
          the natural complement to context bounding.  Explores the same
          reachable states as {!Dfs} with (often far) fewer executions. *)
  | Pct of { change_points : int; seed : int64 }
      (** probabilistic concurrency testing (Burckhardt et al., ASPLOS
          2010): randomized priorities with [change_points - 1] random
          demotion points per execution; needs an execution limit *)
  | Most_enabled of { cache : bool }
      (** best-first search preferring states with more enabled threads
          (Groce & Visser's heuristic, cited by the paper) *)
  | Variable_bound of { n : int; cache : bool }
      (** variable bounding (Bindal-Bansal-Lal, see docs/BOUNDS.md): only
          preemption points around the [n] hottest shared variables admit
          preemptions; the preemption *count* is unbounded.  Needs the
          variable ranking from {!run}'s [?env] (resumes restore it from
          the checkpoint) *)
  | Thread_bound of { n : int; cache : bool }
      (** thread bounding: only the [n] lowest-numbered threads (creation
          order, main = 0) may be preempted *)
  | Icb_vb of { n : int; max_bound : int option; cache : bool }
      (** iterated preemption bound composed with variable sealing: ICB's
          round structure, but deferrals only at preemption points around
          the [n] hottest variables — strictly fewer executions per bound
          than {!Icb} *)

val strategy_name : strategy -> string

val needs_env : strategy -> bool
(** Whether the strategy consumes {!Strategy.env}'s shared-variable
    ranking ({!Variable_bound} and {!Icb_vb}).  Callers for which building
    an env costs something (the CHESS engine profiles an execution) gate
    on this. *)

val default_checkpoint_every : int

val run :
  (module Engine.S with type state = 's) ->
  ?options:Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?resume_from:Checkpoint.t ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?domains:int ->
  ?env:Strategy.env ->
  ?cache:bool ->
  ?on_cache_stats:(Replay_cache.stats -> unit) ->
  strategy ->
  Sresult.t
(** Explore the engine's transition system with the given strategy.
    [env] supplies the shared-variable ranking consumed by
    {!Variable_bound} and {!Icb_vb} ({!Strategy.env_of_prog} derives it
    from a compiled program; [Icb.run] passes it automatically); with no
    env a fresh variable-bounded search seals every preemption point.
    Never raises on limit exhaustion — limits simply yield a result with
    [complete = false] and a [stop_reason].

    [domains] (default 1) shards the search across that many OCaml
    domains via {!Driver.run}, sharing this engine module across workers.
    States cross domains only when the engine certifies them as
    restorable snapshots ({!Engine.S.snapshot}, e.g. the persistent
    machine engine); otherwise each worker replays schedule prefixes on
    its own states.  The result is deterministic
    and matches the serial search — see docs/PARALLEL.md for the exact
    guarantees and the [cache] caveat.  A strategy whose frontier does
    not shard ({!Strategy.S.shardable}) raises [Invalid_argument].

    [checkpoint_out] (every strategy but {!Sleep_dfs}) writes a
    checkpoint to that path every [checkpoint_every] (default
    {!default_checkpoint_every}) executions, when any limit stops the
    search, and at the end of the run; [checkpoint_meta] is stored
    verbatim for the caller (the CLI records program provenance there).
    [resume_from] restores the collector and frontier of a loaded
    checkpoint; the given strategy must be the checkpoint's own (use
    {!resume} to derive it).  Raises [Invalid_argument] if the strategy
    does not match or does not support checkpointing, or if the
    checkpointed frontier no longer replays on this engine (wrong or
    nondeterministic program).

    [cache] (default [true]) enables the prefix-snapshot replay cache
    (docs/REPLAY_CACHE.md): engines with the {!Engine.S.snapshot}
    capability memoize the state reached at every replayed prefix, states
    ride along on work items across rounds and domains, and
    materializing an item costs only the steps past its longest cached
    ancestor.  [~cache:false] restores the pure stateless discipline —
    every item replays its full prefix from the initial state — which is
    the one-flag way to check a suspected cache divergence; bug sets,
    execution counts and checkpoints are identical either way.
    [on_cache_stats] receives the run's replay accounting (hits, misses,
    steps saved/replayed, summed over workers) in both modes. *)

val resume :
  (module Engine.S with type state = 's) ->
  ?options:Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?domains:int ->
  ?env:Strategy.env ->
  ?cache:bool ->
  Checkpoint.t ->
  Sresult.t
(** Continue a checkpointed search: derives the strategy from the
    checkpoint and calls {!run} with [resume_from].  When
    [checkpoint_meta] is omitted the checkpoint's own metadata is carried
    forward.  [domains] parallelizes the resumed search; serial and
    parallel checkpoints are mutually resumable.  A checkpoint whose
    strategy does not decode ({!strategy_of_checkpoint}) raises
    [Invalid_argument] with the decoder's message before any
    execution. *)

val instantiate :
  ?env:Strategy.env ->
  (module Engine.S with type state = 's) ->
  strategy ->
  (module Strategy.S with type state = 's)
(** Build the strategy instance {!run} would execute.  Instances are
    single-use (they hold the run's round state): build one per search.
    Exposed for drivers outside this module — the distributed
    coordinator/worker pair positions instances directly via
    {!Strategy.S.of_prefixes} — and for reading a strategy's capability
    flags. *)

val check :
  (module Engine.S with type state = 's) ->
  ?options:Collector.options ->
  ?max_bound:int ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?domains:int ->
  ?cache:bool ->
  unit ->
  Sresult.bug option
(** Convenience one-call checker: ICB with [stop_at_first_bug]; returns the
    first bug (which ICB guarantees has the minimal number of preemptions
    among all bugs of its kind reachable within the bound). *)

val replay :
  (module Engine.S with type state = 's) -> int list -> 's
(** Run a recorded schedule from the initial state; used to reproduce a
    bug trace.  Raises [Invalid_argument] if the schedule names a thread
    that is not enabled at some point, and lets
    {!Engine.Nondeterministic_program} propagate when a stateless engine
    detects that the program diverged from the recording. *)

val replay_prefix :
  (module Engine.S with type state = 's) -> int list -> 's * int list
(** Like {!replay}, but stops at the first terminal state and returns it
    together with the unconsumed schedule suffix ([[]] when every step
    was taken) — the replay hook behind the repro subsystem's tail
    truncation ({!Icb_repro.Minimize}): the earliest prefix exposing a
    bug is the witness, anything after it is noise.  Raises like
    {!replay} if a pre-terminal step names a disabled thread. *)

(** {2 The strategy catalogue}

    One row per strategy family declares its checkpoint tag, its
    [--strategy] spellings (form, help text, range of N), its one
    parameter decoder and its registry representative; the values below
    are derived from the rows, so the CLI, a checkpoint resume and a
    distributed worker accept and reject exactly the same values.  The
    capability flags live on the {!Strategy.S} instance, not here.

    A decoder requires every parameter that determines the strategy.
    [max_bound] and the progress counters an instance persists
    ([truncated], [sealed], [k]) may be absent.  A present value must
    parse and be in range: [max_bound] and the counters at least 0,
    every other integer at least 1.  Unknown keys are ignored. *)

val strategy_forms : (string * string * string option) list
(** (form, description, argument range), e.g.
    [("vb:N", "variable bounding: ...", Some "N>=1")]. *)

val parse_strategy : seed:int64 -> string -> (strategy, string) result
(** Parse a [--strategy] spelling: its N and the defaults (cache on,
    [seed], iterative deepening in steps of 10 from depth 10) go through
    the family's decoder.  Rejections name the offending spelling and
    either the violated range (["bad strategy: vb:0 — vb:N takes N>=1,
    got 0"]) or the full list of accepted forms with their ranges. *)

val strategy_of_v3 : Checkpoint.v3 -> (strategy, string) result
(** Rebuild a strategy value from a serialized v3 frontier's tag and
    parameters alone — what {!strategy_of_checkpoint} does after
    upgrading, and what a distributed worker does with the frontier
    slice it receives over the wire.  Never raises: an unknown tag, or a
    missing, malformed or out-of-range parameter, is an [Error] naming
    the tag and the key (["checkpoint strategy idfs: incr=0 is below
    1"]). *)

val strategy_of_checkpoint : Checkpoint.t -> (strategy, string) result

(** {2 The strategy registry}

    Each catalogue row's representative: the cross-strategy property
    suites iterate this list, so a family added to the catalogue is
    covered automatically.  They read the capability flags off the
    instance ({!instantiate}). *)

type registered = {
  reg_name : string;
  reg_strategy : strategy;
  reg_bounded : bool;
      (** no natural termination: the caller must cap executions *)
}

val registry : ?seed:int64 -> unit -> registered list
(** [seed] (default 2007) seeds the randomized representatives. *)
