(* Replay a JSONL trace file into a run summary: per-bound execution
   and bug counts (the shape of the paper's Table 2), totals, and the
   run's outcome.  This is the read side of [Telemetry.add_trace] and
   the engine of `icb report`.

   Per-bound execution counts come from the [Execution_done] events'
   [bound] field; bugs are bucketed by their preemption count, which
   under ICB is exactly the context bound that exposed them (a round-c
   work item carries c preempting switches in its prefix and its
   continuations add none). *)

type bug = { bg_key : string; bg_preemptions : int; bg_execution : int }

type summary = {
  strategy : string option;
  domains : int;
  resumed : bool;
  finished : bool;       (* a Run_finished event is present *)
  complete : bool;
  stop_reason : string option;
  executions : int;      (* Execution_done events *)
  states : int option;   (* only Run_finished knows the distinct total *)
  bugs : bug list;
      (* each key in stream order of its first sighting, with that
         sighting's execution and the least preemptions of any *)
  bounds : (int option * int) list;
      (* executions per bound, ascending, the unbounded bucket last *)
  checkpoints : int;
  workers : int;         (* distinct worker ids seen *)
  wall : float;          (* largest timestamp *)
}

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go n acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go (n + 1) acc
        | line -> (
          match Event.of_json (Json.parse line) with
          | Ok env -> go (n + 1) (env :: acc)
          | Error msg -> failwith (Printf.sprintf "%s:%d: %s" path n msg)
          | exception Json.Parse_error msg ->
            failwith (Printf.sprintf "%s:%d: %s" path n msg))
      in
      go 1 [])

let summarize events =
  let strategy = ref None in
  let domains = ref 1 in
  let resumed = ref false in
  let finished = ref false in
  let complete = ref false in
  let stop_reason = ref None in
  let executions = ref 0 in
  let states = ref None in
  let bugs = Hashtbl.create 8 and bug_order = ref [] in
  let per_bound : (int option, int ref) Hashtbl.t = Hashtbl.create 8 in
  let checkpoints = ref 0 in
  let workers = Hashtbl.create 8 in
  let wall = ref 0.0 in
  List.iter
    (fun { Event.ts; worker; ev } ->
      if ts > !wall then wall := ts;
      Hashtbl.replace workers worker ();
      match ev with
      | Event.Run_started r ->
        strategy := Some r.strategy;
        domains := r.domains;
        resumed := r.resumed
      | Event.Execution_done e ->
        incr executions;
        let cell =
          match Hashtbl.find_opt per_bound e.bound with
          | Some c -> c
          | None ->
            let c = ref 0 in
            Hashtbl.add per_bound e.bound c;
            c
        in
        incr cell
      | Event.Bug_found b -> (
        (* a key is found again whenever its witness shrinks *)
        match Hashtbl.find_opt bugs b.key with
        | None ->
          bug_order := b.key :: !bug_order;
          Hashtbl.add bugs b.key
            { bg_key = b.key; bg_preemptions = b.preemptions; bg_execution = b.execution }
        | Some bg when b.preemptions < bg.bg_preemptions ->
          Hashtbl.replace bugs b.key { bg with bg_preemptions = b.preemptions }
        | Some _ -> ())
      | Event.Checkpoint_written _ -> incr checkpoints
      | Event.Run_finished r ->
        finished := true;
        complete := r.complete;
        stop_reason := r.stop_reason;
        states := Some r.states
      | Event.Bound_started _ | Event.Item_started _ | Event.Item_finished _
      | Event.Worker_stats _ | Event.Cache_stats _ | Event.Minimize_started _
      | Event.Minimize_improved _ | Event.Minimize_finished _ -> ())
    events;
  let bounds =
    Hashtbl.fold (fun b c acc -> (b, !c) :: acc) per_bound []
    |> List.sort (fun (a, _) (b, _) ->
           match (a, b) with
           | Some x, Some y -> compare x y
           | Some _, None -> -1
           | None, Some _ -> 1
           | None, None -> 0)
  in
  {
    strategy = !strategy;
    domains = !domains;
    resumed = !resumed;
    finished = !finished;
    complete = !complete;
    stop_reason = !stop_reason;
    executions = !executions;
    states = !states;
    bugs = List.rev_map (Hashtbl.find bugs) !bug_order;
    bounds;
    checkpoints = !checkpoints;
    workers = Hashtbl.length workers;
    wall = !wall;
  }

(* Cumulative per-bound counts in [Sresult.bound_executions] shape.
   Rounds run in bound order (the barrier drains bound c before c+1
   starts), so cumulating the ascending per-bound counts reproduces the
   collector's curve exactly. *)
let bound_executions s =
  let cum = ref 0 in
  List.filter_map
    (fun (b, n) ->
      match b with
      | Some b ->
        cum := !cum + n;
        Some (b, !cum)
      | None -> None)
    s.bounds

let pp_report ppf s =
  let bug_count = List.length s.bugs in
  Format.fprintf ppf "run: %s, %d domain(s)%s, %s@."
    (Option.value s.strategy ~default:"(no run-started event)")
    s.domains
    (if s.resumed then ", resumed" else "")
    (if not s.finished then "interrupted trace (no run-finished event)"
     else if s.complete then "complete"
     else
       match s.stop_reason with
       | Some r -> "stopped: " ^ r
       | None -> "stopped");
  Format.fprintf ppf "totals: %d executions%s, %d bug%s, %d checkpoint%s, %.2fs@.@."
    s.executions
    (match s.states with
    | Some n -> Printf.sprintf ", %d states" n
    | None -> "")
    bug_count
    (if bug_count = 1 then "" else "s")
    s.checkpoints
    (if s.checkpoints = 1 then "" else "s")
    s.wall;
  Format.fprintf ppf "%8s %12s %12s %6s@." "bound" "executions" "cumulative" "bugs";
  let cum = ref 0 in
  List.iter
    (fun (b, n) ->
      cum := !cum + n;
      let bugs_here =
        match b with
        | Some b ->
          List.length (List.filter (fun bg -> bg.bg_preemptions = b) s.bugs)
        | None ->
          (* the unbounded bucket: bugs whose preemption count is not a
             listed bound row (non-ICB strategies have only this row) *)
          let bounded = List.filter_map fst s.bounds in
          List.length
            (List.filter
               (fun bg -> not (List.mem bg.bg_preemptions bounded))
               s.bugs)
      in
      Format.fprintf ppf "%8s %12d %12d %6d@."
        (match b with Some b -> string_of_int b | None -> "-")
        n !cum bugs_here)
    s.bounds;
  if s.bugs <> [] then begin
    Format.fprintf ppf "@.";
    List.iter
      (fun bg ->
        Format.fprintf ppf "bug: %s (%d preemption%s, execution %d)@."
          bg.bg_key bg.bg_preemptions
          (if bg.bg_preemptions = 1 then "" else "s")
          bg.bg_execution)
      s.bugs
  end

let to_json s =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("strategy", opt (fun v -> Json.String v) s.strategy);
      ("domains", Json.Int s.domains);
      ("resumed", Json.Bool s.resumed);
      ("finished", Json.Bool s.finished);
      ("complete", Json.Bool s.complete);
      ("stop_reason", opt (fun v -> Json.String v) s.stop_reason);
      ("executions", Json.Int s.executions);
      ("states", opt (fun v -> Json.Int v) s.states);
      ( "bugs",
        Json.List
          (List.map
             (fun bg ->
               Json.Obj
                 [
                   ("key", Json.String bg.bg_key);
                   ("preemptions", Json.Int bg.bg_preemptions);
                   ("execution", Json.Int bg.bg_execution);
                 ])
             s.bugs) );
      ( "bounds",
        Json.List
          (List.map
             (fun (b, n) ->
               Json.Obj
                 [
                   ("bound", opt (fun v -> Json.Int v) b);
                   ("executions", Json.Int n);
                 ])
             s.bounds) );
      ("checkpoints", Json.Int s.checkpoints);
      ("workers", Json.Int s.workers);
      ("wall_seconds", Json.Float s.wall);
    ]
