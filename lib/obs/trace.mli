(** Read side of the JSONL trace: replay a file written by
    {!Telemetry.add_trace} into a run summary — per-bound execution and
    bug counts (the shape of the paper's Table 2), totals and outcome.
    Drives [icb report]. *)

type bug = { bg_key : string; bg_preemptions : int; bg_execution : int }

type summary = {
  strategy : string option;
  domains : int;
  resumed : bool;
  finished : bool;       (** a [Run_finished] event is present *)
  complete : bool;
  stop_reason : string option;
  executions : int;      (** [Execution_done] events in the trace *)
  states : int option;   (** only [Run_finished] knows the distinct total *)
  bugs : bug list;
      (** each key in stream order of its first sighting, with that
          sighting's execution and the least preemptions of any *)
  bounds : (int option * int) list;
      (** executions per bound, ascending; the [None] bucket (non-ICB
          strategies tag no bound) last *)
  checkpoints : int;
  workers : int;         (** distinct worker ids seen *)
  wall : float;          (** largest timestamp, seconds *)
}

val read : string -> Event.envelope list
(** Raises [Failure] with file:line on a malformed line, [Sys_error] on
    an unreadable file. *)

val summarize : Event.envelope list -> summary

val bound_executions : summary -> (int * int) list
(** Cumulative per-bound counts in the exact shape of
    {!Sresult.t.bound_executions} — rounds run in bound order, so
    cumulating the ascending per-bound totals reproduces the collector's
    curve.  The [None] bucket is excluded. *)

val pp_report : Format.formatter -> summary -> unit
(** The Table-2-shaped per-bound coverage table plus totals and bugs. *)

val to_json : summary -> Json.t
