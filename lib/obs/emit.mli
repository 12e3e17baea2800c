(** The emission guard held by search hot paths.

    A disabled emitter ({!null}) makes {!emit} a single pattern match;
    call sites that would allocate an event payload guard construction
    with {!enabled} first, so disabled telemetry costs one branch per
    potential event — the zero-cost-when-off contract. *)

type t

val null : t
(** The disabled sink (the default everywhere). *)

val live : worker:int -> clock:(unit -> float) -> push:(Event.envelope -> unit) -> t
(** An emitter stamping events with [worker] and [clock ()] (seconds on
    the run's shared monotonic clock) before handing them to [push].
    Usually built by {!Telemetry.emitter} / {!Telemetry.buffered}. *)

val enabled : t -> bool

val emit : t -> Event.t -> unit
