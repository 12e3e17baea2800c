(** A handle-based metrics registry: counters, gauges and fixed-bucket
    histograms, rendered as Prometheus text exposition or a JSON
    snapshot.

    Handles are returned at registration so updates are ref bumps, not
    name lookups.  Rendering preserves registration order.  The registry
    itself is not thread-safe: {!Telemetry} funnels every update through
    its consumer lock. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> help:string -> string -> counter
(** Raises [Invalid_argument] when the name is already registered (same
    for {!gauge} and {!histogram}). *)

val inc : counter -> float -> unit
val gauge : t -> help:string -> string -> gauge
val set : gauge -> float -> unit

val value : counter -> float
(** Also reads gauges — the two share a representation. *)

val histogram : t -> help:string -> buckets:float list -> string -> histogram
(** [buckets] are upper bounds (sorted and deduplicated internally); an
    implicit [+Inf] bucket catches the rest. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val find : t -> string -> float option
(** Current value of a counter or gauge by name; [None] for histograms
    and unknown names.  For tests and file validation. *)

val values_to_json : t -> Json.t
(** The registry's additive part, keyed by name: each non-zero counter's
    value and each non-empty histogram's bucket counts and sum.  Gauges
    are left out — they are levels, not deltas.  This is what a
    distributed worker ships per batch instead of its event stream. *)

val merge_values : t -> Json.t -> (unit, string) result
(** Add a {!values_to_json} image into this registry: counters add,
    histograms add bucket counts, sums and totals.  An unknown name, a
    gauge, or a histogram whose bucket count differs is an error, and
    then nothing is applied. *)

val to_prometheus : t -> string
(** Text exposition format: [# HELP]/[# TYPE] comments, cumulative
    [_bucket{le="..."}] samples plus [_sum]/[_count] for histograms. *)

val to_json : t -> Json.t
