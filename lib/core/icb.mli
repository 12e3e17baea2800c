(** Iterative context bounding for systematic testing of multithreaded
    programs — public facade.

    This library reproduces Musuvathi & Qadeer (PLDI 2007).  A model is a
    program in the bundled modeling language (or a hand-built
    {!Machine.Prog.t}); {!check} systematically explores its thread
    schedules in increasing order of preempting context switches and
    reports the first bug with a replayable schedule.  {!run} gives full
    control over strategy, limits and coverage accounting.

    {[
      let prog = Icb.compile {| ...model source... |} in
      match Icb.check prog with
      | Some bug -> Format.printf "bug with %d preemptions: %s@." bug.preemptions bug.msg
      | None -> print_endline "no bug up to the default bound"
    ]} *)

module Machine = Icb_machine
module Zlang = Icb_zlang
module Race = Icb_race
module Search = Icb_search
module Obs = Icb_obs
module Util = Icb_util

type prog = Icb_machine.Prog.t
type bug = Icb_search.Sresult.bug
type result = Icb_search.Sresult.t

exception Compile_error of string

val compile : string -> prog
(** Compile modeling-language source.  Raises {!Compile_error}. *)

val compile_file : string -> prog

val engine :
  ?config:Icb_search.Mach_engine.config ->
  prog ->
  (module Icb_search.Engine.S with type state = Icb_search.Mach_engine.state)
(** The machine engine for a program, ready to pass to the search
    strategies. *)

val run :
  ?config:Icb_search.Mach_engine.config ->
  ?options:Icb_search.Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?resume_from:Icb_search.Checkpoint.t ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?domains:int ->
  ?cache:bool ->
  ?on_cache_stats:(Icb_search.Replay_cache.stats -> unit) ->
  strategy:Icb_search.Explore.strategy ->
  prog ->
  result
(** See {!Icb_search.Explore.run}: all limits (including the wall-clock
    [deadline] in options) yield partial results rather than raising, and
    [checkpoint_out]/[resume_from] make every strategy but [Sleep_dfs]
    interruptible and resumable.  [domains] shards any strategy whose
    frontier shards ([Icb], the DFS family, [Random_walk], [Pct]) across
    OCaml domains; for ICB specifically, {!run_parallel} additionally
    shares engine states across workers instead of replaying prefixes.
    [cache] (default [true]) is the prefix-snapshot replay cache
    (docs/REPLAY_CACHE.md); [~cache:false] forces every schedule prefix to
    replay from the initial state, with identical results.
    [telemetry] streams structured run events (and derived metrics) to
    that hub's sinks without changing what the search explores — see
    docs/OBSERVABILITY.md. *)

val run_parallel :
  ?config:Icb_search.Mach_engine.config ->
  ?options:Icb_search.Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?resume_from:Icb_search.Checkpoint.t ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?max_bound:int ->
  ?cache:bool ->
  ?replay_cache:bool ->
  ?on_cache_stats:(Icb_search.Replay_cache.stats -> unit) ->
  domains:int ->
  prog ->
  result
(** Parallel iterative context bounding: shard each context bound's work
    queue across [domains] OCaml domains, each with its own engine
    instance, and merge deterministically at a per-bound barrier — the
    result (bug set, per-bound execution counts, states, steps) matches a
    serial [run ~strategy:(Icb ...)] of the same program when
    [cache = false] (the default: the seen-state cache prunes per worker,
    so a cached parallel run may explore more executions; see
    docs/PARALLEL.md).  [cache] is the strategy's seen-state pruning cache;
    [replay_cache] (default [true]) is the orthogonal prefix-snapshot
    replay cache of docs/REPLAY_CACHE.md, which never changes what is
    explored.  Checkpoints written here are resumable both serially
    ({!resume}) and in parallel ({!resume} with [~domains], or
    [run_parallel ~resume_from]). *)

module Dist = Icb_dist

val serve :
  ?config:Icb_search.Mach_engine.config ->
  ?options:Icb_search.Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?resume_from:Icb_search.Checkpoint.t ->
  ?host:string ->
  ?port:int ->
  ?lease_timeout:float ->
  ?batch_size:int ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?cache:bool ->
  ?on_coordinator:(Icb_dist.Coord.t -> unit) ->
  strategy:Icb_search.Explore.strategy ->
  prog ->
  result
(** Coordinate a distributed search of [prog]: listen on [host]:[port]
    (default loopback, ephemeral), lease work-item batches to [icb
    worker] processes and merge their reports at the same deterministic
    per-bound barrier the in-process parallel driver uses, so the result
    (bug set, per-bound execution counts) equals a serial {!run} of the
    same search — see docs/DISTRIBUTED.md.  [on_coordinator] runs before
    blocking (read the bound {!Icb_dist.Coord.port} there);
    [checkpoint_meta] doubles as the job provenance workers use to
    rebuild the program.  The coordinator is shut down (port released)
    when the search returns. *)

val worker :
  ?config:Icb_search.Mach_engine.config ->
  ?cache:bool ->
  ?resolve:
    ((string * string) list ->
    (Icb_dist.Worker.packed_engine, string) Stdlib.result) ->
  host:string ->
  port:int ->
  unit ->
  (int, string) Stdlib.result
(** Serve one coordinator as a worker until its run finishes; returns the
    number of batches processed.  The default resolver compiles the job's
    [kind=file]/[target] provenance with {!compile_file}; pass [resolve]
    to support other kinds (the CLI adds the bundled model registry). *)

val resume :
  ?config:Icb_search.Mach_engine.config ->
  ?options:Icb_search.Collector.options ->
  ?checkpoint_out:string ->
  ?checkpoint_every:int ->
  ?checkpoint_meta:(string * string) list ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?domains:int ->
  ?cache:bool ->
  prog ->
  Icb_search.Checkpoint.t ->
  result
(** Continue a checkpointed search of [prog]; see
    {!Icb_search.Explore.resume}.  The checkpoint must have been written
    for the same program (a fingerprint mismatch raises
    [Invalid_argument]).  [domains] resumes any shardable strategy's
    checkpoint in parallel, whichever driver wrote it. *)

val check :
  ?config:Icb_search.Mach_engine.config ->
  ?options:Icb_search.Collector.options ->
  ?max_bound:int ->
  ?telemetry:Icb_obs.Telemetry.t ->
  ?domains:int ->
  ?cache:bool ->
  prog ->
  bug option
(** Iterative context bounding, stopping at the first bug.  The returned
    bug carries the minimal number of preemptions needed to expose any bug
    of its kind (the ICB guarantee).  Default bound: 3, matching the range
    within which every bug in the paper's evaluation was found; pass
    [~max_bound] to widen. *)

val pp_bug : Format.formatter -> bug -> unit

val explain : ?config:Icb_search.Mach_engine.config -> prog -> bug ->
  string list
(** Replay a bug's schedule and narrate each step: which thread ran and
    what the machine state looked like when the bug fired. *)
