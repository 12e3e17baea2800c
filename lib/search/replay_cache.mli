(** Prefix-snapshot replay cache.

    A work item in the stateless search discipline is a replayable schedule
    prefix; a round's frontier is a {e tree} of shared prefixes.  Engines
    with the snapshot capability ({!Engine.S.snapshot}) let the driver
    memoize the state reached at every prefix it replays, so materializing
    the next item costs only the steps past its longest cached ancestor —
    execution scales with new steps, not prefix length.

    One cache per worker (no locking); bounded LRU ({!Icb_util.Lru}) keyed
    by the FNV-1a hash of the prefix, with the prefix itself stored and
    compared on lookup so hash collisions degrade to misses, never to wrong
    states.  Entries are only ever created from states the current run
    actually reached, so there is no invalidation problem: a snapshot for a
    prefix is eternally valid for this engine instance.

    See docs/REPLAY_CACHE.md. *)

(** Replay accounting, shared by cached and uncached materialization so the
    two modes can be compared (the replay table of [test/test_cache.ml]). *)
type stats = {
  mutable hits : int;       (** materializations served at least partly from a snapshot *)
  mutable misses : int;     (** materializations replayed entirely from the initial state *)
  mutable steps_saved : int;     (** engine steps avoided via snapshots *)
  mutable steps_replayed : int;  (** engine steps re-executed to rebuild prefixes *)
}

val zero : unit -> stats

val accum : into:stats -> stats -> unit
(** Saturation-free accumulation of one worker's counters into a total. *)

type 'v t
(** A cache holding snapshots of type ['v]. *)

val default_capacity : int

val create : ?capacity:int -> unit -> 'v t
val length : 'v t -> int
val clear : 'v t -> unit

val replay :
  'v t ->
  stats:stats ->
  sched:int list ->
  init:(unit -> 'a) ->
  step:('a -> int -> 'a) ->
  capture:('a -> 'v) ->
  restore:('v -> 'a) ->
  ('a, 'a * int * exn) result
(** Materialize the state reached by [sched]: restore the longest cached
    prefix of [sched] (verified element-wise, not just by hash) and replay
    only the remaining suffix, inserting a snapshot after every new step so
    the next item sharing this prefix starts further along.  [Error
    (st, tid, exn)] reports a step that raised, with the state and thread
    at the point of failure — the caller decides between crash containment
    (parallel workers) and strict rejection (serial resume). *)
