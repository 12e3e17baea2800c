(** The distributed worker: connects to a coordinator, leases work-item
    batches and runs each through the generic driver item path
    ({!Icb_search.Search_core}) with a local replay cache, reporting
    back counters, bugs, deferred items and either buffered telemetry
    or metric deltas (the job's [j_events]).  It asks for its next
    batch before running the one it holds, so it holds at most two
    leases and the lease round trip overlaps the search.

    A worker is stateless between batches except for its replay cache:
    killing one at any point loses nothing — the coordinator re-issues
    the batch's lease and absorbs each batch exactly once. *)

type packed_engine =
  | Packed :
      (module Icb_search.Engine.S with type state = 's)
      -> packed_engine

val run :
  host:string ->
  port:int ->
  resolve:((string * string) list -> (packed_engine, string) result) ->
  unit ->
  (int, string) result
(** Serve one coordinator until it reports the run is over.  [resolve]
    builds the engine from the job's provenance metadata (the
    checkpoint-style ["kind"]/["target"] pairs); the worker then verifies
    the engine's initial-state fingerprint against the coordinator's
    before touching any work.  The job's [cache] flag (set by the
    coordinator) is the replay cache's only switch.

    Returns the number of batches processed, or an error on connection
    failure, protocol violation, or a program mismatch. *)
