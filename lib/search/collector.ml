module Sigset = Icb_util.Sigset

type progress = {
  p_executions : int;
  p_states : int;
  p_bugs : int;
  p_elapsed : float;
  p_bound : int option;
  p_frontier : int option;
}

type options = {
  max_executions : int option;
  max_states : int option;
  max_total_steps : int option;
  deadline : float option;
  deadlock_is_error : bool;
  stop_at_first_bug : bool;
  terminal_states_only : bool;
  on_progress : (progress -> unit) option;
  events : Icb_obs.Emit.t;
}

let default_options =
  {
    max_executions = None;
    max_states = None;
    max_total_steps = None;
    deadline = None;
    deadlock_is_error = true;
    stop_at_first_bug = false;
    terminal_states_only = false;
    on_progress = None;
    events = Icb_obs.Emit.null;
  }

let deadline_in secs = Unix.gettimeofday () +. secs

exception Stop

type t = {
  opts : options;
  visited : Sigset.t;
  bugs : (string, Sresult.bug) Hashtbl.t;
  mutable bug_order : string list;  (* reversed *)
  mutable executions : int;
  mutable total_steps : int;
  mutable max_steps : int;
  mutable max_blocks : int;
  mutable max_preemptions : int;
  mutable max_threads : int;
  mutable complete : bool;
  mutable stop_reason : Sresult.stop_reason option;
  mutable current_bound : int option;
  mutable frontier : int option;
  started : float;
  mutable growth : (int * int) list;          (* reversed *)
  mutable bound_coverage : (int * int) list;  (* reversed *)
  mutable bound_executions : (int * int) list;(* reversed *)
}

let create opts =
  {
    opts;
    visited = Sigset.create 1024;
    bugs = Hashtbl.create 16;
    bug_order = [];
    executions = 0;
    total_steps = 0;
    max_steps = 0;
    max_blocks = 0;
    max_preemptions = 0;
    max_threads = 0;
    complete = false;
    stop_reason = None;
    current_bound = None;
    frontier = None;
    started = Unix.gettimeofday ();
    growth = [];
    bound_coverage = [];
    bound_executions = [];
  }

let over limit n = match limit with Some l -> n >= l | None -> false

let stop t reason =
  t.stop_reason <- Some reason;
  raise Stop

(* A gettimeofday syscall per step would dominate tight search loops, so
   the deadline is polled every 32 steps (and at every execution end). *)
let check_deadline t =
  match t.opts.deadline with
  | Some d when Unix.gettimeofday () >= d -> stop t Sresult.Deadline_exceeded
  | Some _ | None -> ()

let touch t signature =
  t.total_steps <- t.total_steps + 1;
  if not t.opts.terminal_states_only then
    Sigset.add t.visited signature;
  if over t.opts.max_states (Sigset.length t.visited) then
    stop t Sresult.State_limit;
  if over t.opts.max_total_steps t.total_steps then stop t Sresult.Step_limit;
  if t.total_steps land 31 = 0 then check_deadline t

let seen_states t = Sigset.length t.visited

let executions t = t.executions

let note_bound t bound = t.current_bound <- Some bound

let note_frontier t n = t.frontier <- Some n

type execution_end = {
  depth : int;
  blocks : int;
  preemptions : int;
  threads : int;
  trail : int list;
  signature : int64;
  status : Engine.status;
}

let count_switches schedule =
  let rec go n = function
    | a :: (b :: _ as rest) -> go (if a <> b then n + 1 else n) rest
    | _ -> n
  in
  go 0 schedule

let status_bug ~deadlock_is_error : Engine.status -> (string * string) option
    = function
  | Engine.Failed { key; msg } -> Some (key, msg)
  | Engine.Deadlock blocked when deadlock_is_error ->
    Some
      ( "deadlock",
        Format.asprintf "deadlock; blocked threads: %s"
          (String.concat ", " (List.map string_of_int blocked)) )
  | Engine.Deadlock _ | Engine.Terminated | Engine.Running -> None

(* The witness rule of [end_execution] and [absorb_bug]: whether [b] is
   the first witness of its key ([`New]), replaces a greater one
   ([`Less]), or is dropped ([`Kept]).  A least witness does not depend
   on the order witnesses arrive in, so runners draining the same
   executions keep the same. *)
let offer t (b : Sresult.bug) =
  match Hashtbl.find_opt t.bugs b.Sresult.key with
  | None ->
    Hashtbl.add t.bugs b.Sresult.key b;
    t.bug_order <- b.Sresult.key :: t.bug_order;
    `New
  | Some old ->
    if
      compare (b.Sresult.preemptions, b.Sresult.schedule)
        (old.Sresult.preemptions, old.Sresult.schedule)
      < 0
    then begin
      Hashtbl.replace t.bugs b.Sresult.key
        { b with Sresult.execution = old.Sresult.execution };
      `Less
    end
    else `Kept

(* Telemetry names for {!Engine.status}; [Running] at execution end means
   the execution was truncated by a depth bound. *)
let status_string : Engine.status -> string = function
  | Engine.Running -> "truncated"
  | Engine.Terminated -> "terminated"
  | Engine.Deadlock _ -> "deadlock"
  | Engine.Failed _ -> "failed"

let end_execution t (e : execution_end) =
  t.executions <- t.executions + 1;
  if t.opts.terminal_states_only then Sigset.add t.visited e.signature;
  t.max_steps <- max t.max_steps e.depth;
  t.max_blocks <- max t.max_blocks e.blocks;
  t.max_preemptions <- max t.max_preemptions e.preemptions;
  t.max_threads <- max t.max_threads e.threads;
  t.growth <- (t.executions, Sigset.length t.visited) :: t.growth;
  (* before bug handling: [stop_at_first_bug] raises from [bug_of], and
     the execution that exposed the bug must already be in the stream *)
  if Icb_obs.Emit.enabled t.opts.events then
    Icb_obs.Emit.emit t.opts.events
      (Icb_obs.Event.Execution_done
         {
           bound = t.current_bound;
           steps = e.depth;
           preemptions = e.preemptions;
           status = status_string e.status;
           executions = t.executions;
         });
  (match status_bug ~deadlock_is_error:t.opts.deadlock_is_error e.status with
  | None -> ()
  | Some (key, msg) ->
    let schedule = List.rev e.trail in
    let offered =
      offer t
        {
          Sresult.key;
          msg;
          schedule;
          preemptions = e.preemptions;
          context_switches = count_switches schedule;
          depth = e.depth;
          execution = t.executions;
        }
    in
    if offered <> `Kept && Icb_obs.Emit.enabled t.opts.events then
      Icb_obs.Emit.emit t.opts.events
        (Icb_obs.Event.Bug_found
           { key; preemptions = e.preemptions; execution = t.executions });
    if offered = `New && t.opts.stop_at_first_bug then
      stop t Sresult.First_bug);
  (match t.opts.on_progress with
  | None -> ()
  | Some f ->
    f
      {
        p_executions = t.executions;
        p_states = Sigset.length t.visited;
        p_bugs = Hashtbl.length t.bugs;
        p_elapsed = Unix.gettimeofday () -. t.started;
        p_bound = t.current_bound;
        p_frontier = t.frontier;
      });
  if over t.opts.max_executions t.executions then
    stop t Sresult.Execution_limit;
  check_deadline t

(* A checkpoint written at a barrier runs that barrier again on resume:
   the bound replaces the newest entry instead of repeating it. *)
let record_bound t bound =
  let old = function (b, _) :: l when b = bound -> l | l -> l in
  t.bound_coverage <- (bound, Sigset.length t.visited) :: old t.bound_coverage;
  t.bound_executions <- (bound, t.executions) :: old t.bound_executions

let set_complete t = t.complete <- true

let note_stop t reason =
  if t.stop_reason = None then t.stop_reason <- Some reason

let total_steps t = t.total_steps

let elapsed t = Unix.gettimeofday () -. t.started

let bug_count t = Hashtbl.length t.bugs

let absorb_bug t b = ignore (offer t b)

let bugs t = List.rev_map (Hashtbl.find t.bugs) t.bug_order

(* --- checkpointable snapshot ------------------------------------------- *)

(* Everything the accumulator has learned, as plain marshal-safe data (no
   closures, no hashtables with undefined iteration order at restore).
   Options are deliberately NOT part of the snapshot: the resuming caller
   supplies fresh limits. *)
type snapshot = {
  s_visited : int64 array;
  s_bugs : Sresult.bug list;  (* discovery order *)
  s_executions : int;
  s_total_steps : int;
  s_max_steps : int;
  s_max_blocks : int;
  s_max_preemptions : int;
  s_max_threads : int;
  s_complete : bool;
  s_growth : (int * int) list;          (* reversed, newest first *)
  s_bound_coverage : (int * int) list;  (* reversed, newest first *)
  s_bound_executions : (int * int) list;(* reversed, newest first *)
}

let snapshot t =
  {
    s_visited =
      (let a = Array.make (Sigset.length t.visited) 0L in
       let i = ref 0 in
       Sigset.iter
         (fun sig_ ->
           a.(!i) <- sig_;
           incr i)
         t.visited;
       a);
    s_bugs = bugs t;
    s_executions = t.executions;
    s_total_steps = t.total_steps;
    s_max_steps = t.max_steps;
    s_max_blocks = t.max_blocks;
    s_max_preemptions = t.max_preemptions;
    s_max_threads = t.max_threads;
    s_complete = t.complete;
    s_growth = t.growth;
    s_bound_coverage = t.bound_coverage;
    s_bound_executions = t.bound_executions;
  }

let restore opts s =
  let t = create opts in
  Array.iter (Sigset.add t.visited) s.s_visited;
  List.iter (fun b -> ignore (offer t b)) s.s_bugs;
  t.executions <- s.s_executions;
  t.total_steps <- s.s_total_steps;
  t.max_steps <- s.s_max_steps;
  t.max_blocks <- s.s_max_blocks;
  t.max_preemptions <- s.s_max_preemptions;
  t.max_threads <- s.s_max_threads;
  t.complete <- s.s_complete;
  t.growth <- s.s_growth;
  t.bound_coverage <- s.s_bound_coverage;
  t.bound_executions <- s.s_bound_executions;
  t

let snapshot_complete s = s.s_complete

let snapshot_bugs s = s.s_bugs

let snapshot_executions s = s.s_executions

let snapshot_steps s = s.s_total_steps

let snapshot_states s = Array.length s.s_visited

(* The format-v1 snapshot layout (before the per-bound execution counts
   grew the record): identical except for the missing final
   [s_bound_executions] field.  [Checkpoint.load] unmarshals v1 payloads
   at this type — structural layout is all [Marshal] cares about — and
   upgrades them here. *)
type snapshot_v1 = {
  v1_visited : int64 array;
  v1_bugs : Sresult.bug list;
  v1_executions : int;
  v1_total_steps : int;
  v1_max_steps : int;
  v1_max_blocks : int;
  v1_max_preemptions : int;
  v1_max_threads : int;
  v1_complete : bool;
  v1_growth : (int * int) list;
  v1_bound_coverage : (int * int) list;
}

let snapshot_of_v1 v =
  {
    s_visited = v.v1_visited;
    s_bugs = v.v1_bugs;
    s_executions = v.v1_executions;
    s_total_steps = v.v1_total_steps;
    s_max_steps = v.v1_max_steps;
    s_max_blocks = v.v1_max_blocks;
    s_max_preemptions = v.v1_max_preemptions;
    s_max_threads = v.v1_max_threads;
    s_complete = v.v1_complete;
    s_growth = v.v1_growth;
    s_bound_coverage = v.v1_bound_coverage;
    s_bound_executions = [];
  }

(* --- parallel merge ------------------------------------------------------ *)

(* Counter sums saturate at [max_int]: a long parallel campaign summing
   per-worker totals must degrade to a pinned counter, never wrap to a
   negative count (both operands are known non-negative). *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* Fold one worker's learning into the master accumulator: union of visited
   states, saturating sums of the execution/step counters, max of the
   maxima.  Bugs, growth curves and bound curves are deliberately NOT
   merged here — the parallel executor owns those, because making them
   deterministic requires sorting across all workers of a bound, not
   pairwise folding.  Limits are not re-checked: merging happens at a
   barrier, where the caller decides whether to stop. *)
let merge_stats t (s : snapshot) =
  Array.iter (Sigset.add t.visited) s.s_visited;
  t.executions <- sat_add t.executions s.s_executions;
  t.total_steps <- sat_add t.total_steps s.s_total_steps;
  t.max_steps <- max t.max_steps s.s_max_steps;
  t.max_blocks <- max t.max_blocks s.s_max_blocks;
  t.max_preemptions <- max t.max_preemptions s.s_max_preemptions;
  t.max_threads <- max t.max_threads s.s_max_threads

let mark_growth t =
  let p = (t.executions, Sigset.length t.visited) in
  match t.growth with q :: _ when q = p -> () | _ -> t.growth <- p :: t.growth

let forge_counts s ~executions ~total_steps =
  { s with s_executions = executions; s_total_steps = total_steps }

let result t ~strategy =
  {
    Sresult.strategy;
    executions = t.executions;
    distinct_states = Sigset.length t.visited;
    bugs = bugs t;
    max_steps = t.max_steps;
    max_blocks = t.max_blocks;
    max_preemptions = t.max_preemptions;
    max_threads = t.max_threads;
    complete = t.complete;
    stop_reason = (if t.complete then None else t.stop_reason);
    growth = Array.of_list (List.rev t.growth);
    bound_coverage = Array.of_list (List.rev t.bound_coverage);
    bound_executions = Array.of_list (List.rev t.bound_executions);
    total_steps = t.total_steps;
  }

(* --- wire codec ----------------------------------------------------------- *)

(* JSON for the distributed protocol: a worker ships its whole snapshot —
   including the visited-signature set, so the coordinator's
   [merge_stats] computes the same distinct-state union a shared-memory
   barrier would.  Signatures are 64-bit, JSON numbers are not, so they
   travel as decimal strings. *)

module J = Icb_obs.Json

let bug_to_json (b : Sresult.bug) =
  J.Obj
    [
      ("key", J.String b.Sresult.key);
      ("msg", J.String b.Sresult.msg);
      ("schedule", J.List (List.map (fun t -> J.Int t) b.Sresult.schedule));
      ("preemptions", J.Int b.Sresult.preemptions);
      ("context_switches", J.Int b.Sresult.context_switches);
      ("depth", J.Int b.Sresult.depth);
      ("execution", J.Int b.Sresult.execution);
    ]

let pairs_to_json l =
  J.List (List.map (fun (a, b) -> J.List [ J.Int a; J.Int b ]) l)

let snapshot_to_json (s : snapshot) =
  J.Obj
    [
      ( "visited",
        J.List
          (Array.to_list
             (Array.map (fun v -> J.String (Int64.to_string v)) s.s_visited))
      );
      ("bugs", J.List (List.map bug_to_json s.s_bugs));
      ("executions", J.Int s.s_executions);
      ("total_steps", J.Int s.s_total_steps);
      ("max_steps", J.Int s.s_max_steps);
      ("max_blocks", J.Int s.s_max_blocks);
      ("max_preemptions", J.Int s.s_max_preemptions);
      ("max_threads", J.Int s.s_max_threads);
      ("complete", J.Bool s.s_complete);
      ("growth", pairs_to_json s.s_growth);
      ("bound_coverage", pairs_to_json s.s_bound_coverage);
      ("bound_executions", pairs_to_json s.s_bound_executions);
    ]

let ( let* ) = Result.bind

let pairs_of_json j key =
  let* l = J.list j key in
  J.map_result
    (function
      | J.List [ J.Int a; J.Int b ] -> Ok (a, b)
      | _ -> Error (Printf.sprintf "field %S is not int pairs" key))
    l

let bug_of_json j =
  let* key = J.string j "key" in
  let* msg = J.string j "msg" in
  let* sched = J.list j "schedule" in
  let* schedule =
    J.map_result
      (function J.Int t -> Ok t | _ -> Error "a bug schedule holds a non-int")
      sched
  in
  let* preemptions = J.int j "preemptions" in
  let* context_switches = J.int j "context_switches" in
  let* depth = J.int j "depth" in
  let* execution = J.int j "execution" in
  Ok
    {
      Sresult.key;
      msg;
      schedule;
      preemptions;
      context_switches;
      depth;
      execution;
    }

let snapshot_of_json j : (snapshot, string) result =
  let* visited = J.list j "visited" in
  let* visited =
    J.map_result
      (fun v ->
        match Option.bind (J.to_str v) Int64.of_string_opt with
        | Some v -> Ok v
        | None -> Error "field \"visited\" holds a bad signature")
      visited
  in
  let* bugs = Result.bind (J.list j "bugs") (J.map_result bug_of_json) in
  let* executions = J.int j "executions" in
  let* total_steps = J.int j "total_steps" in
  let* max_steps = J.int j "max_steps" in
  let* max_blocks = J.int j "max_blocks" in
  let* max_preemptions = J.int j "max_preemptions" in
  let* max_threads = J.int j "max_threads" in
  let* complete = J.bool j "complete" in
  let* growth = pairs_of_json j "growth" in
  let* bound_coverage = pairs_of_json j "bound_coverage" in
  let* bound_executions = pairs_of_json j "bound_executions" in
  Ok
    {
      s_visited = Array.of_list visited;
      s_bugs = bugs;
      s_executions = executions;
      s_total_steps = total_steps;
      s_max_steps = max_steps;
      s_max_blocks = max_blocks;
      s_max_preemptions = max_preemptions;
      s_max_threads = max_threads;
      s_complete = complete;
      s_growth = growth;
      s_bound_coverage = bound_coverage;
      s_bound_executions = bound_executions;
    }
