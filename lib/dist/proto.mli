(** The coordinator/worker wire protocol.

    Transport: framed JSON over a byte stream — each message is one
    {!Icb_util.Framing} frame (magic, version, MD5 digest, length,
    payload) whose payload is a single {!Icb_obs.Json} object carrying a
    ["type"] tag.  The framing is the checkpoint file discipline reused
    verbatim, so a torn or corrupted message is rejected with a clear
    error instead of a JSON parse crash; see docs/DISTRIBUTED.md for the
    message flows. *)

val magic : string
(** ["ICBDIST\x01"] — distinguishes protocol clients from HTTP requests
    on the coordinator's shared listening port (the first 8 bytes are
    sniffed). *)

val version : int
(** The frame version, [2]: a peer speaking another version is refused
    at the first frame. *)

type job = {
  j_meta : (string * string) list;
      (** checkpoint-style provenance (["kind"], ["target"], ...); the
          worker resolves its engine from these *)
  j_root_sig : string;
      (** {!Icb_search.Driver.fingerprint} of the coordinator's initial
          state; the worker verifies its own engine matches *)
  j_deadlock_is_error : bool;
  j_terminal_states_only : bool;
  j_cache : bool;  (** whether workers should enable their replay caches *)
  j_events : bool;
      (** whether the coordinator's telemetry has a consumer besides its
          own metrics projection
          ({!Icb_obs.Telemetry.streams_events}): then reports carry the
          batch's events, otherwise only its metric deltas *)
  j_worker : int;  (** this worker's id (1-based; 0 is the coordinator) *)
}

type batch = {
  b_lease : int;  (** opaque lease token; echoed in the result *)
  b_id : int;     (** batch index within the round, 0-based *)
  b_tag : string; (** strategy tag, {!Icb_search.Checkpoint.v3.v3_tag} *)
  b_params : (string * string) list;
      (** the round's serialized strategy parameters, as sent to every
          worker of the round *)
  b_round : int;
  b_items : (int list * int) list;  (** the work items, stripped *)
  b_pending : int;
      (** the round's batches still waiting for a lease after this one;
          at [0] a worker does not ask ahead, since it would only be
          told to wait *)
}

type report = {
  r_params : (string * string) list;
      (** the worker instance's parameters after the batch
          ({!Icb_search.Strategy.S.to_prefixes}); the coordinator merges
          the per-batch deltas with
          {!Icb_search.Strategy.merge_params} *)
  r_snapshot : Icb_obs.Json.t;
      (** the batch collector's snapshot
          ({!Icb_search.Collector.snapshot_to_json}) *)
  r_deferred : (int list * int) list;  (** items deferred to the next round *)
  r_events : Icb_obs.Json.t list;
      (** the batch's buffered telemetry envelopes, in emission order;
          empty unless the job's [j_events] is set *)
  r_metrics : Icb_obs.Json.t option;
      (** without [j_events]: {!Icb_obs.Metrics.values_to_json} of a
          local metrics projection fed the batch's events, which the
          coordinator folds in with {!Icb_obs.Telemetry.merge_deltas} *)
}

type c2s =
  | Hello
  | Request  (** ask for a batch *)
  | Result of { lease : int; report : report }

type s2c =
  | Job of job
  | Batch of batch
  | Wait of { ms : int }
      (** no job yet (reply to [Hello]), or nothing to lease while this
          connection still holds a lease (reply to [Request], [ms = 0]);
          retry after [ms].  A [Request] from a connection holding no
          lease is instead held until a batch is pending or the run
          ends. *)
  | Done  (** the run is over (or was never started on this socket) *)
  | Accepted  (** result absorbed *)
  | Stale
      (** result rejected: the lease expired and was re-issued, the
          report arrived twice, the round already closed, or a stop was
          requested — the batch's outcome was (or will be) absorbed
          exactly once elsewhere, or not at all after a stop *)

val send : out_channel -> Icb_obs.Json.t -> unit
val recv : in_channel -> (Icb_obs.Json.t, [ `Closed | `Malformed of string ]) result
(** Never raises: [`Closed] when the input ends on a frame boundary,
    [`Malformed] for anything else short of one whole JSON frame. *)

val c2s_to_json : c2s -> Icb_obs.Json.t
val c2s_of_json : Icb_obs.Json.t -> (c2s, string) result
val s2c_to_json : s2c -> Icb_obs.Json.t
val s2c_of_json : Icb_obs.Json.t -> (s2c, string) result
