(** The per-run telemetry handle: one shared monotonic clock, a
    mutex-guarded fan-out of {!Event.envelope}s to registered sinks, and
    a {!Metrics} registry kept current by the standard event projection.

    Lifecycle: {!create}, register sinks ({!add_trace},
    {!add_metrics_dump}, {!add_consumer}), hand the handle to the search
    driver ([?telemetry]), and {!close} when the run returns (final
    metrics dump, file flush).

    Concurrency: sinks run under one lock.  Direct {!emitter}s take it
    per event and belong on single-writer paths (the serial driver, the
    master at a barrier); parallel workers use {!buffered} emitters —
    private buffers flushed in worker order at the round barrier, so the
    merged stream is deterministic up to timestamps and the hot path
    never contends. *)

type t

val create : unit -> t
(** Starts the run clock ({!Event.envelope}[.ts] is seconds since this
    call). *)

val clock : t -> unit -> float
val metrics : t -> Metrics.t

val emitter : t -> worker:int -> Emit.t
(** A direct emitter: each event takes the lock and fans out
    immediately. *)

val buffered : t -> worker:int -> Emit.t * (unit -> unit)
(** [(emit, flush)]: events accumulate in a private buffer (no lock,
    single writer) until [flush], which delivers them in emission
    order.  One per worker per round; flush at the barrier. *)

val add_consumer : t -> (Event.envelope -> unit) -> unit
(** Sinks observe every event, in registration order. *)

val streams_events : t -> bool
(** Whether anything besides the {!track_metrics} projection reads the
    event stream: true once {!add_consumer}, {!add_trace} or
    {!add_metrics_dump} has registered a sink.  A distributed
    coordinator asks this when it publishes its job: only then do its
    workers ship their events; otherwise they ship metric deltas
    ({!merge_deltas}). *)

val locked : t -> (unit -> 'a) -> 'a
(** Run a thunk under the consumer lock, mutually excluded from every
    fan-out: the distributed coordinator's HTTP handlers render the
    {!metrics} registry this way so a scrape never reads a half-applied
    update.  Do not emit from inside the thunk. *)

val inject : t -> Event.envelope list -> unit
(** Deliver pre-built envelopes in list order under the lock — the
    cross-process analogue of a {!buffered} flush, used by the
    distributed coordinator to replay a worker's event stream decoded
    off the wire. *)

val on_close : t -> (unit -> unit) -> unit

val add_trace : t -> string -> unit
(** JSONL trace sink: one {!Event.to_json} object per line.  The file is
    truncated at registration and flushed/closed by {!close}. *)

val track_metrics : t -> unit
(** Install the standard event → metrics projection (executions, steps,
    items, distinct bugs, checkpoints, current bound, frontier size,
    executions/second, steps/preemptions/item-seconds/step-latency
    histograms) into {!metrics}.  Idempotent. *)

val merge_deltas : t -> Json.t -> bugs:string list -> (unit, string) result
(** Fold a remote projection's image into {!metrics}, under the lock:
    [values] is {!Metrics.values_to_json} of a registry that
    {!track_metrics} fed with one batch's events, and [bugs] the bug
    keys that batch found.  Counters and histograms add;
    [icb_bugs_total] instead counts the keys this projection has not
    seen yet, since per-batch distinct counts do not sum; the
    executions-per-second gauge is recomputed on this handle's clock.
    An error (no projection installed, a malformed image) leaves the
    registry untouched. *)

val add_metrics_dump : t -> ?every:float -> string -> unit
(** Periodically (default every 5 event-clock seconds; [every <= 0.] =
    final dump only) write the metrics snapshot to the file — Prometheus
    text, or a JSON snapshot when the path ends in [.json] — with an
    atomic tmp-rename, plus a final dump at {!close}.  Implies
    {!track_metrics}. *)

val dump_metrics : t -> string -> unit

val close : t -> unit
(** Run the close hooks (final dump, trace flush).  Idempotent. *)
