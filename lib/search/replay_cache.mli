(** Prefix-snapshot replay.

    A work item in the stateless search discipline is a replayable schedule
    prefix.  Engines with the snapshot capability ({!Engine.S.snapshot})
    let a worker keep a {!memo} of the path it materialized last: that
    item's schedule and the snapshot after each of its steps.  The next
    item restores the snapshot at its longest common prefix with the path
    and replays only the rest.  Items that reach the memo arrive sorted
    (a resumed frontier, a distributed worker's batches), and in sorted
    order the longest prefix an item shares with {e any} earlier item is
    the one it shares with the item just before — so the previous path is
    all a cache needs to hold.

    One memo per worker (no locking).  Its path only ever holds states the
    current run actually reached, so there is no invalidation problem.

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

type ('a, 'v) memo
(** The previous materialization's path, over states ['a] and their
    snapshots ['v]. *)

val memo : capture:('a -> 'v) -> restore:('v -> 'a) -> ('a, 'v) memo
(** An empty path. *)

val replay :
  ('a, 'v) memo option ->
  stats:stats ->
  init:(unit -> 'a) ->
  step:('a -> int -> 'a) ->
  int list ->
  ('a, 'a * int * exn) result
(** Materialize the state a schedule reaches: restore the memo's snapshot
    at the schedule's longest common prefix with the path, replay the
    rest, and make the schedule the new path (an empty schedule is
    [init ()] and leaves the path alone).  With no memo, every schedule
    replays from [init ()].  [Error (st, tid, exn)] reports a
    step that raised, with the state and thread at the point of failure —
    the caller decides between crash containment (parallel workers) and
    strict rejection (serial resume); the path then ends at [st]. *)
