(** On-disk repro bundles: one versioned, checksummed, atomically-written
    file per deduplicated bug, carrying everything needed to rebuild the
    program and replay the witness.

    The framing follows the checkpoint format (magic, big-endian format
    version, MD5 digest of the payload, payload length, Marshal payload;
    writes go to a temp file in the same directory followed by an atomic
    rename), so a killed writer never leaves a half-written bundle and
    truncation or corruption is rejected with a clear {!Corrupt} error.
    See docs/REPRO.md for the workflow. *)

type t = {
  kind : string;     (** program provenance, the checkpoint convention:
                         ["model"] (a bundled-model name) or ["file"] *)
  target : string;   (** the {!Icb_models.Registry.addressable} name, or
                         the source path *)
  strategy : string; (** the strategy that found the bug, e.g. "random" *)
  seed : int64;
  bug_key : string;
  bug_msg : string;
  schedule : int list;          (** current witness (minimized when
                                    [minimized]) *)
  preemptions : int;            (** of [schedule], engine-measured *)
  context_switches : int;
  depth : int;
  found_schedule : int list;    (** the witness as originally found *)
  found_preemptions : int;
  found_depth : int;
  minimized : bool;
  proven_minimal : bool;        (** see {!Minimize.stats} *)
  deadlocks_are_errors : bool;  (** the finding search's
                                    [deadlock_is_error]; replays must
                                    match it *)
  fingerprint : string;         (** {!Triage.fingerprint} of [schedule] *)
  meta : (string * string) list;
      (** free-form provenance: granularity, executions, ... *)
}

exception Corrupt of string

val save : path:string -> t -> unit
val load : string -> t
(** Raises {!Corrupt} on wrong magic, unsupported version, digest
    mismatch, truncation or a payload that does not unmarshal. *)

val verify :
  (module Icb_search.Engine.S with type state = 's) ->
  t ->
  (Sched.witness, string) result
(** Replay the bundle's schedule on a freshly-built engine for its
    program and check full agreement: same bug key at the end of the
    schedule (not earlier, not later) and the recorded
    preemption/switch/depth counts.  [Error] describes the first
    disagreement — the program changed, the wrong variant was rebuilt,
    or the body is nondeterministic. *)

val describe : t -> string
(** One line: target, strategy, key, schedule size. *)
