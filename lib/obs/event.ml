(* The typed telemetry event stream.  Payloads are plain ints, strings
   and options — never search-library types — so the dependency runs
   [icb_search -> icb_obs] and a trace file is self-describing.

   An envelope stamps each event with a monotonic timestamp (seconds
   since the telemetry handle was created, so merged parallel streams
   share one clock) and the id of the worker domain that recorded it. *)

type t =
  | Run_started of { strategy : string; domains : int; resumed : bool }
  | Bound_started of { bound : int; items : int }
      (** a strategy round begins; for ICB [bound] is the context bound,
          [items] the frontier size seeding the round *)
  | Item_started of { prefix : int; payload : int }
      (** a work item dequeued: schedule-prefix length and payload *)
  | Item_finished of { seconds : float; executions : int; steps : int }
      (** the matching completion, with per-item deltas *)
  | Execution_done of {
      bound : int option;  (** ICB's current bound; [None] otherwise *)
      steps : int;         (** depth of the finished execution *)
      preemptions : int;
      status : string;     (** terminated | deadlock | failed | truncated *)
      executions : int;    (** the recording collector's running count *)
    }
  | Bug_found of { key : string; preemptions : int; execution : int }
  | Checkpoint_written of { path : string; executions : int }
  | Worker_stats of {
      stats_for : int;  (** worker the numbers describe (the envelope's
                            [worker] is whoever merged them) *)
      executions : int;
      steps : int;
      bugs : int;
    }
  | Cache_stats of {
      hits : int;           (** materializations served from a snapshot *)
      misses : int;         (** materializations replayed from the root *)
      steps_saved : int;    (** engine steps avoided via snapshots *)
      steps_replayed : int; (** engine steps re-executed to rebuild prefixes *)
    }
      (** end-of-run totals of the prefix-snapshot replay cache, summed
          over all workers; emitted only when the engine offers the
          snapshot capability and caching is enabled *)
  | Run_finished of {
      executions : int;
      states : int;
      bugs : int;
      complete : bool;
      stop_reason : string option;
    }
  | Minimize_started of { key : string; length : int; preemptions : int }
  | Minimize_improved of {
      phase : string;  (** truncate | ddmin | search | canonical *)
      candidates : int;
      length : int;
      preemptions : int;
    }
  | Minimize_finished of {
      key : string;
      candidates : int;
      length : int;
      preemptions : int;
      proven : bool;
    }

type envelope = { ts : float; worker : int; ev : t }

let name = function
  | Run_started _ -> "run-started"
  | Bound_started _ -> "bound-started"
  | Item_started _ -> "item-started"
  | Item_finished _ -> "item-finished"
  | Execution_done _ -> "execution-done"
  | Bug_found _ -> "bug-found"
  | Checkpoint_written _ -> "checkpoint-written"
  | Worker_stats _ -> "worker-stats"
  | Cache_stats _ -> "cache-stats"
  | Run_finished _ -> "run-finished"
  | Minimize_started _ -> "minimize-started"
  | Minimize_improved _ -> "minimize-improved"
  | Minimize_finished _ -> "minimize-finished"

(* --- JSON ---------------------------------------------------------------- *)

let fields_of = function
  | Run_started { strategy; domains; resumed } ->
    [
      ("strategy", Json.String strategy);
      ("domains", Json.Int domains);
      ("resumed", Json.Bool resumed);
    ]
  | Bound_started { bound; items } ->
    [ ("bound", Json.Int bound); ("items", Json.Int items) ]
  | Item_started { prefix; payload } ->
    [ ("prefix", Json.Int prefix); ("payload", Json.Int payload) ]
  | Item_finished { seconds; executions; steps } ->
    [
      ("seconds", Json.Float seconds);
      ("executions", Json.Int executions);
      ("steps", Json.Int steps);
    ]
  | Execution_done { bound; steps; preemptions; status; executions } ->
    (match bound with Some b -> [ ("bound", Json.Int b) ] | None -> [])
    @ [
        ("steps", Json.Int steps);
        ("preemptions", Json.Int preemptions);
        ("status", Json.String status);
        ("executions", Json.Int executions);
      ]
  | Bug_found { key; preemptions; execution } ->
    [
      ("key", Json.String key);
      ("preemptions", Json.Int preemptions);
      ("execution", Json.Int execution);
    ]
  | Checkpoint_written { path; executions } ->
    [ ("path", Json.String path); ("executions", Json.Int executions) ]
  | Worker_stats { stats_for; executions; steps; bugs } ->
    [
      ("stats_for", Json.Int stats_for);
      ("executions", Json.Int executions);
      ("steps", Json.Int steps);
      ("bugs", Json.Int bugs);
    ]
  | Cache_stats { hits; misses; steps_saved; steps_replayed } ->
    [
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ("steps_saved", Json.Int steps_saved);
      ("steps_replayed", Json.Int steps_replayed);
    ]
  | Run_finished { executions; states; bugs; complete; stop_reason } ->
    [
      ("executions", Json.Int executions);
      ("states", Json.Int states);
      ("bugs", Json.Int bugs);
      ("complete", Json.Bool complete);
    ]
    @ (match stop_reason with
      | Some r -> [ ("stop_reason", Json.String r) ]
      | None -> [])
  | Minimize_started { key; length; preemptions } ->
    [
      ("key", Json.String key);
      ("length", Json.Int length);
      ("preemptions", Json.Int preemptions);
    ]
  | Minimize_improved { phase; candidates; length; preemptions } ->
    [
      ("phase", Json.String phase);
      ("candidates", Json.Int candidates);
      ("length", Json.Int length);
      ("preemptions", Json.Int preemptions);
    ]
  | Minimize_finished { key; candidates; length; preemptions; proven } ->
    [
      ("key", Json.String key);
      ("candidates", Json.Int candidates);
      ("length", Json.Int length);
      ("preemptions", Json.Int preemptions);
      ("proven", Json.Bool proven);
    ]

let to_json { ts; worker; ev } =
  Json.Obj
    (("ts", Json.Float ts)
    :: ("worker", Json.Int worker)
    :: ("ev", Json.String (name ev))
    :: fields_of ev)

let of_json j =
  let ( let* ) = Result.bind in
  let* ts = Json.float j "ts" in
  let* worker = Json.int j "worker" in
  let* kind = Json.string j "ev" in
  let* ev =
    match kind with
    | "run-started" ->
      let* strategy = Json.string j "strategy" in
      let* domains = Json.int j "domains" in
      let* resumed = Json.bool j "resumed" in
      Ok (Run_started { strategy; domains; resumed })
    | "bound-started" ->
      let* bound = Json.int j "bound" in
      let* items = Json.int j "items" in
      Ok (Bound_started { bound; items })
    | "item-started" ->
      let* prefix = Json.int j "prefix" in
      let* payload = Json.int j "payload" in
      Ok (Item_started { prefix; payload })
    | "item-finished" ->
      let* seconds = Json.float j "seconds" in
      let* executions = Json.int j "executions" in
      let* steps = Json.int j "steps" in
      Ok (Item_finished { seconds; executions; steps })
    | "execution-done" ->
      let* steps = Json.int j "steps" in
      let* preemptions = Json.int j "preemptions" in
      let* status = Json.string j "status" in
      let* executions = Json.int j "executions" in
      let bound = Result.to_option (Json.int j "bound") in
      Ok (Execution_done { bound; steps; preemptions; status; executions })
    | "bug-found" ->
      let* key = Json.string j "key" in
      let* preemptions = Json.int j "preemptions" in
      let* execution = Json.int j "execution" in
      Ok (Bug_found { key; preemptions; execution })
    | "checkpoint-written" ->
      let* path = Json.string j "path" in
      let* executions = Json.int j "executions" in
      Ok (Checkpoint_written { path; executions })
    | "worker-stats" ->
      let* stats_for = Json.int j "stats_for" in
      let* executions = Json.int j "executions" in
      let* steps = Json.int j "steps" in
      let* bugs = Json.int j "bugs" in
      Ok (Worker_stats { stats_for; executions; steps; bugs })
    | "cache-stats" ->
      let* hits = Json.int j "hits" in
      let* misses = Json.int j "misses" in
      let* steps_saved = Json.int j "steps_saved" in
      let* steps_replayed = Json.int j "steps_replayed" in
      Ok (Cache_stats { hits; misses; steps_saved; steps_replayed })
    | "run-finished" ->
      let* executions = Json.int j "executions" in
      let* states = Json.int j "states" in
      let* bugs = Json.int j "bugs" in
      let* complete = Json.bool j "complete" in
      let stop_reason = Result.to_option (Json.string j "stop_reason") in
      Ok (Run_finished { executions; states; bugs; complete; stop_reason })
    | "minimize-started" ->
      let* key = Json.string j "key" in
      let* length = Json.int j "length" in
      let* preemptions = Json.int j "preemptions" in
      Ok (Minimize_started { key; length; preemptions })
    | "minimize-improved" ->
      let* phase = Json.string j "phase" in
      let* candidates = Json.int j "candidates" in
      let* length = Json.int j "length" in
      let* preemptions = Json.int j "preemptions" in
      Ok (Minimize_improved { phase; candidates; length; preemptions })
    | "minimize-finished" ->
      let* key = Json.string j "key" in
      let* candidates = Json.int j "candidates" in
      let* length = Json.int j "length" in
      let* preemptions = Json.int j "preemptions" in
      let* proven = Json.bool j "proven" in
      Ok (Minimize_finished { key; candidates; length; preemptions; proven })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  Ok { ts; worker; ev }
