(* Command-line interface to the checker.

   icb check FILE            -- iterative context bounding, stop at first bug
   icb resume CHECKPOINT     -- continue an interrupted check
   icb explore FILE          -- run a strategy, print statistics
   icb report TRACE          -- summarize a JSONL trace (per-bound table)
   icb compile FILE          -- type-check and dump the compiled program
   icb models                -- list bundled benchmark models
   icb check-model NAME      -- check a bundled model (e.g. "bluetooth:bug")
   icb repro min BUNDLE      -- minimize a repro bundle's witness
   icb repro run BUNDLE      -- replay a bundle and print the bug report
   icb repro verify BUNDLE   -- replay a bundle, check the recorded outcome
   icb triage DIR            -- cluster a directory of repro bundles
   icb serve FILE            -- coordinate a distributed search over TCP
   icb worker HOST:PORT      -- run leased work batches for a coordinator

   check, check-model, resume and explore take --jobs N to shard the
   search across N OCaml domains; every strategy whose frontier shards
   accepts it (docs/PARALLEL.md).
   The same four commands take --trace/--metrics/--metrics-every to
   stream structured telemetry and --quiet to silence the progress line
   (docs/OBSERVABILITY.md), and --repro-dir DIR to drop one repro bundle
   per deduplicated bug (docs/REPRO.md).  --no-cache disables the
   prefix-snapshot replay cache (docs/REPLAY_CACHE.md) without changing
   what is explored.  serve/worker stretch the same sharded search over
   processes and machines, with the coordinator also answering GET
   /metrics and GET /status on its port (docs/DISTRIBUTED.md).

   Exit codes: 0 ok / no bug, 1 bug found (or triage found new bugs
   against a --known baseline), 2 usage or input error, 3 interrupted
   with a partial result, 4 repro verification failure (a bundle that no
   longer reproduces its recorded bug). *)

open Cmdliner
module Obs = Icb_obs

let load_program path = Icb.compile_file path

(* Bundled models are addressed as "<model>" or "<model>:<variant>"; the
   registry guarantees the names are collision-free. *)
let resolve_model name =
  match List.assoc_opt name (Icb_models.Registry.addressable ()) with
  | Some p -> Ok (p ())
  | None ->
    Error
      (Printf.sprintf "unknown model %S; run `icb models` for the list" name)

let die msg =
  Format.eprintf "%s@." msg;
  exit 2

(* The program a checkpoint, a worker's job or a repro bundle records:
   [kind] "model" (a registry name) or "file" (a source path), the
   [target], and the granularity it ran at.  [`Unreadable] is a recorded
   file that cannot be read, [`Unrecorded] provenance naming neither;
   each caller words those its own way. *)
let recorded_program meta =
  let gran =
    if List.assoc_opt "granularity" meta = Some "every" then `Every else `Sync
  in
  match (List.assoc_opt "kind" meta, List.assoc_opt "target" meta) with
  | Some "model", Some name -> (
    match resolve_model name with
    | Ok p -> Ok (p, gran)
    | Error msg -> Error (`Msg msg))
  | Some "file", Some path -> (
    match load_program path with
    | p -> Ok (p, gran)
    | exception Icb.Compile_error msg -> Error (`Msg msg)
    | exception Sys_error msg -> Error (`Unreadable msg))
  | _ -> Error `Unrecorded

(* The program a fresh run names, as a source file or a bundled model,
   with the [kind] and [target] its checkpoint meta records. *)
let load_target = function
  | `File path -> (
    match load_program path with
    | prog -> ("file", path, prog)
    | exception Icb.Compile_error msg -> die msg)
  | `Model name -> (
    match resolve_model name with
    | Ok prog -> ("model", name, prog)
    | Error msg -> die msg)

(* --- common options --------------------------------------------------------- *)

let bound_arg =
  let doc = "Maximum number of preemptions to explore (default 3)." in
  Arg.(value & opt int 3 & info [ "b"; "bound" ] ~docv:"BOUND" ~doc)

let no_deadlock_arg =
  let doc = "Do not treat deadlocks as bugs." in
  Arg.(value & flag & info [ "no-deadlock" ] ~doc)

let granularity_arg =
  let doc =
    "Scheduling granularity: $(b,sync) (scheduling points at \
     synchronization accesses only, with race checking — the CHESS \
     reduction) or $(b,every) (every shared access — the ZING behaviour)."
  in
  Arg.(
    value
    & opt (enum [ ("sync", `Sync); ("every", `Every) ]) `Sync
    & info [ "granularity" ] ~docv:"MODE" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock budget in seconds.  When it expires the search stops with \
     a partial result (and writes a final checkpoint if $(b,--checkpoint) \
     is set) instead of running unbounded; continue later with $(b,icb \
     resume).  See docs/RESILIENCE.md."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let checkpoint_arg =
  let doc =
    "Write the search frontier and coverage counters to $(docv) (atomic \
     write-rename, versioned format) periodically and whenever the search \
     stops, so an interrupted run can be continued with $(b,icb resume)."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "Executions between periodic checkpoint writes (default 500)." in
  Arg.(
    value
    & opt int Icb_search.Explore.default_checkpoint_every
    & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the search (default 1 = serial).  With $(docv) > \
     1 each round's work queue is sharded across $(docv) OCaml domains \
     with work stealing; the result (bug set, per-round execution \
     counts) is deterministic and identical to a serial run.  Available \
     for every strategy whose frontier shards; the others refuse \
     $(docv) > 1.  See docs/PARALLEL.md."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc =
    "Seed for the randomized strategies (those whose $(b,--strategy) \
     entry says so); deterministic strategies ignore it.  The default \
     2007 keeps historical runs reproducible."
  in
  Arg.(value & opt int64 2007L & info [ "seed" ] ~docv:"N" ~doc)

let progress_arg =
  let doc =
    "Print a progress line (current bound, frontier, executions/sec, \
     bugs, ETA) on stderr about once a second, plus a final summary \
     line.  On by default when stderr is a terminal; $(b,--quiet) wins."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let quiet_arg =
  let doc =
    "Suppress the stderr progress line and informational hints.  Results, \
     warnings and errors still print."
  in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let trace_arg =
  let doc =
    "Append-free JSONL event trace of the run: one timestamped, \
     worker-tagged event per line (run/bound/item/execution/bug/\
     checkpoint), written to $(docv) and replayable with $(b,icb \
     report).  See docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Periodically write a metrics snapshot (counters, gauges, latency \
     histograms) to $(docv) — Prometheus text format, or JSON when \
     $(docv) ends in $(b,.json) — plus a final snapshot when the run \
     ends.  See $(b,--metrics-every) and docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let metrics_every_arg =
  let doc =
    "Seconds between $(b,--metrics) snapshots (default 5; 0 means only \
     the final snapshot)."
  in
  Arg.(value & opt float 5.0 & info [ "metrics-every" ] ~docv:"SECS" ~doc)

let repro_dir_arg =
  let doc =
    "Write one repro bundle per deduplicated bug into $(docv) (created if \
     missing): a versioned, checksummed $(b,.repro) file recording the \
     program, strategy, seed and replayable witness schedule.  Filenames \
     are content-derived, so re-running drops nothing new for \
     already-recorded witnesses.  Minimize with $(b,icb repro min), \
     replay with $(b,icb repro run), cluster with $(b,icb triage).  See \
     docs/REPRO.md."
  in
  Arg.(value & opt (some string) None & info [ "repro-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc =
    "Disable the prefix-snapshot replay cache: every work item replays \
     its full schedule prefix from the initial state instead of resuming \
     from a memoized snapshot.  The explored executions, bugs and \
     checkpoints are identical either way — this is the escape hatch for \
     ruling the cache out when debugging, at a (often large) replay \
     cost.  See docs/REPLAY_CACHE.md."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let first_bug_arg =
  let doc =
    "Stop the search at the first bug instead of exploring the whole \
     space (what $(b,icb check) always does)."
  in
  Arg.(value & flag & info [ "first-bug" ] ~doc)

let config_of_granularity = function
  | `Sync -> Icb_search.Mach_engine.default_config
  | `Every -> Icb_search.Mach_engine.zing_config

let granularity_name = function `Sync -> "sync" | `Every -> "every"

(* Fail before the search starts, not hours into it when the first
   periodic write fires. *)
let validate_out_path what = function
  | None -> ()
  | Some path ->
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Format.eprintf "cannot write %s to %s: %s is not an existing directory@."
        what path dir;
      exit 2
    end

let validate_checkpoint_path p = validate_out_path "checkpoints" p

(* The per-invocation observability state shared by check/check-model/
   resume/explore: the telemetry hub feeding --trace/--metrics sinks, the
   throttled stderr progress display, and the finisher that prints the
   unconditional final summary line and closes the sinks.  [rt_finish]
   must run before any [exit]. *)
type runtime = {
  rt_telemetry : Obs.Telemetry.t option;
  rt_on_progress : (Icb_search.Collector.progress -> unit) option;
  rt_quiet : bool;
  rt_finish : Icb_search.Sresult.t -> unit;
}

let make_runtime ?max_execs ~trace ~metrics ~metrics_every ~quiet ~progress
    ~timeout () =
  validate_out_path "the event trace" trace;
  validate_out_path "metrics" metrics;
  let telemetry =
    match (trace, metrics) with
    | None, None -> None
    | _ ->
      let t = Obs.Telemetry.create () in
      Option.iter (Obs.Telemetry.add_trace t) trace;
      Option.iter (Obs.Telemetry.add_metrics_dump t ~every:metrics_every)
        metrics;
      Some t
  in
  let started_at = Unix.gettimeofday () in
  let stat_of (p : Icb_search.Collector.progress) : Obs.Progress.stat =
    let rate =
      if p.p_elapsed > 0.0 then float_of_int p.p_executions /. p.p_elapsed
      else 0.0
    in
    let eta_timeout =
      Option.map
        (fun t -> t -. (Unix.gettimeofday () -. started_at))
        timeout
    in
    let eta_execs =
      match max_execs with
      | Some n when rate > 0.0 ->
        Some (float_of_int (n - p.p_executions) /. rate)
      | _ -> None
    in
    let eta =
      match (eta_timeout, eta_execs) with
      | Some a, Some b -> Some (Float.min a b)
      | (Some _ as e), None | None, (Some _ as e) -> e
      | None, None -> None
    in
    {
      Obs.Progress.executions = p.p_executions;
      states = p.p_states;
      bugs = p.p_bugs;
      elapsed = p.p_elapsed;
      bound = p.p_bound;
      frontier = p.p_frontier;
      eta = Option.map (fun e -> Float.max e 0.0) eta;
    }
  in
  let display =
    if (progress || Unix.isatty Unix.stderr) && not quiet then
      Some (Obs.Progress.create ())
    else None
  in
  let finish (r : Icb_search.Sresult.t) =
    (match display with
    | Some d ->
      Obs.Progress.finish d
        {
          Obs.Progress.executions = r.Icb_search.Sresult.executions;
          states = r.Icb_search.Sresult.distinct_states;
          bugs = List.length r.Icb_search.Sresult.bugs;
          elapsed = Unix.gettimeofday () -. started_at;
          bound = None;
          frontier = None;
          eta = None;
        }
    | None -> ());
    Option.iter Obs.Telemetry.close telemetry
  in
  {
    rt_telemetry = telemetry;
    rt_on_progress =
      Option.map (fun d p -> Obs.Progress.report d (stat_of p)) display;
    rt_quiet = quiet;
    rt_finish = finish;
  }

let options_of ~no_deadlock ~timeout rt =
  {
    Icb_search.Collector.default_options with
    deadlock_is_error = not no_deadlock;
    deadline = Option.map Icb_search.Collector.deadline_in timeout;
    on_progress = rt.rt_on_progress;
  }

(* One bundle per deduplicated bug, after the run; a failed write warns
   but never changes the search's own exit code. *)
let drop_bundles ~repro_dir ~prog ~no_deadlock ~gran ~kind ~target ~strategy
    ~seed ~quiet (r : Icb_search.Sresult.t) =
  match repro_dir with
  | None -> ()
  | Some dir -> (
    if r.Icb_search.Sresult.bugs <> [] then
      let module E =
        (val Icb.engine ~config:(config_of_granularity gran) prog)
      in
      match
        Icb_repro.Store.drop
          (module E)
          ~dir ~deadlock_is_error:(not no_deadlock) ~kind ~target ~strategy
          ~seed
          ~meta:[ ("granularity", granularity_name gran) ]
          r.Icb_search.Sresult.bugs
      with
      | Ok [] ->
        if not quiet then
          Format.eprintf "[icb] repro bundles already present in %s@." dir
      | Ok paths ->
        if not quiet then
          Format.eprintf "[icb] wrote %d repro bundle%s to %s@."
            (List.length paths)
            (if List.length paths = 1 then "" else "s")
            dir
      | Error msg -> Format.eprintf "cannot write repro bundles: %s@." msg)

(* --- check / check-model / resume ------------------------------------------- *)

let report_bug prog (bug : Icb.bug) =
  Format.printf "BUG FOUND (%d preemption%s):@.  %a@.@.trace:@." bug.preemptions
    (if bug.preemptions = 1 then "" else "s")
    Icb.pp_bug bug;
  List.iter (fun l -> Format.printf "  %s@." l) (Icb.explain prog bug)

let print_summary (r : Icb_search.Sresult.t) =
  Format.printf "%a@." Icb_search.Sresult.pp_summary r;
  List.iter
    (fun (bug : Icb.bug) -> Format.printf "@.%a@." Icb.pp_bug bug)
    r.Icb_search.Sresult.bugs

(* Shared driver behind check, check-model and resume: ICB stopping at the
   first bug, with optional deadline and checkpointing.  Exit codes:
   0 no bug, 1 bug found, 2 usage error, 3 interrupted (partial result). *)
let run_check ~prog ~meta ~bound ~rt ~options ~gran ~checkpoint
    ~checkpoint_every ~resume_from ~jobs ~repro_dir ~seed ~no_cache () =
  if jobs < 1 then die "--jobs must be at least 1";
  let config = config_of_granularity gran in
  let options =
    { options with Icb_search.Collector.stop_at_first_bug = true }
  in
  let telemetry = rt.rt_telemetry in
  let r =
    match resume_from with
    | Some ckpt -> (
      try
        Icb.resume ~config ~options ?checkpoint_out:checkpoint
          ~checkpoint_every ~checkpoint_meta:meta ?telemetry ~domains:jobs
          ~cache:(not no_cache) prog ckpt
      with Invalid_argument msg -> die msg)
    | None ->
      Icb.run ~config ~options ?checkpoint_out:checkpoint ~checkpoint_every
        ~checkpoint_meta:meta ?telemetry ~domains:jobs ~cache:(not no_cache)
        ~strategy:
          (Icb_search.Explore.Icb { max_bound = Some bound; cache = false })
        prog
  in
  rt.rt_finish r;
  drop_bundles ~repro_dir ~prog
    ~no_deadlock:(not options.Icb_search.Collector.deadlock_is_error)
    ~gran
    ~kind:(Option.value (List.assoc_opt "kind" meta) ~default:"file")
    ~target:(Option.value (List.assoc_opt "target" meta) ~default:"?")
    ~strategy:(Printf.sprintf "icb:%d" bound)
    ~seed ~quiet:rt.rt_quiet r;
  match r.Icb_search.Sresult.bugs with
  | bug :: _ ->
    report_bug prog bug;
    exit 1
  | [] -> (
    match r.Icb_search.Sresult.stop_reason with
    | None ->
      Format.printf "no bug found in executions with at most %d preemptions@."
        bound
    | Some reason ->
      Format.eprintf
        "search interrupted (%s) after %d executions, %d states — no bug so \
         far%s@."
        (Icb_search.Sresult.stop_reason_string reason)
        r.executions r.distinct_states
        (match checkpoint with
        | Some f when not rt.rt_quiet ->
          Printf.sprintf "; continue with `icb resume %s`" f
        | _ -> "");
      exit 3)

(* check FILE and check-model NAME: a fresh run of [run_check]. *)
let check_run target bound seed no_deadlock gran timeout checkpoint
    checkpoint_every jobs progress trace metrics metrics_every quiet repro_dir
    no_cache =
  let kind, target, prog = load_target target in
  let meta =
    [
      ("kind", kind);
      ("target", target);
      ("bound", string_of_int bound);
      ("seed", Int64.to_string seed);
      ("granularity", granularity_name gran);
      ("no-deadlock", string_of_bool no_deadlock);
    ]
  in
  let rt =
    make_runtime ~trace ~metrics ~metrics_every ~quiet ~progress ~timeout ()
  in
  validate_checkpoint_path checkpoint;
  run_check ~prog ~meta ~bound ~rt
    ~options:(options_of ~no_deadlock ~timeout rt)
    ~gran ~checkpoint ~checkpoint_every ~resume_from:None ~jobs ~repro_dir
    ~seed ~no_cache ()

let check_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Model source file.")
  in
  let doc = "systematically test a model with iterative context bounding" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Explores thread schedules in increasing order of preempting \
         context switches, stopping at the first bug.  With \
         $(b,--timeout) and $(b,--checkpoint) the search is interruptible \
         and resumable; see docs/RESILIENCE.md for the checkpoint format \
         and guarantees.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man)
    Term.(
      const (fun path -> check_run (`File path))
      $ path $ bound_arg $ seed_arg $ no_deadlock_arg
      $ granularity_arg $ timeout_arg $ checkpoint_arg $ checkpoint_every_arg
      $ jobs_arg $ progress_arg $ trace_arg $ metrics_arg $ metrics_every_arg
      $ quiet_arg $ repro_dir_arg $ no_cache_arg)

(* --- check-model -------------------------------------------------------------- *)

let check_model_cmd =
  let model_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL"
          ~doc:
            "Bundled model name as printed by $(b,icb models), e.g. \
             bluetooth:check-then-add-reference (or the single-bug alias \
             bluetooth:bug).")
  in
  let doc = "check one of the bundled benchmark models" in
  Cmd.v
    (Cmd.info "check-model" ~doc)
    Term.(
      const (fun name -> check_run (`Model name))
      $ model_name $ bound_arg $ seed_arg
      $ no_deadlock_arg $ granularity_arg $ timeout_arg $ checkpoint_arg
      $ checkpoint_every_arg $ jobs_arg $ progress_arg $ trace_arg
      $ metrics_arg $ metrics_every_arg $ quiet_arg $ repro_dir_arg
      $ no_cache_arg)

(* --- resume ------------------------------------------------------------------- *)

let missing_meta file what =
  die
    (Printf.sprintf
       "checkpoint %s does not record %s (not written by `icb check`?)" file
       what)

(* What `icb resume` and `icb serve --resume` take from a checkpoint.  A
   checkpoint with no recorded mode was written by check or check-model,
   and resumes as a check does: it stops at the first bug. *)
type resumed = {
  ckpt : Icb_search.Checkpoint.t;
  check_mode : bool;
  prog : Icb.prog;
  gran : [ `Sync | `Every ];
  no_deadlock : bool;
  max_execs : int option;
  first_bug : bool;
  seed : int64;
  out : string;  (* where new checkpoints go *)
}

let load_resume ~quiet ~checkpoint ~first_bug ?max_execs file =
  validate_checkpoint_path checkpoint;
  match Icb_search.Checkpoint.load file with
  | exception Icb_search.Checkpoint.Corrupt msg -> die msg
  | ckpt ->
    let meta k = Icb_search.Checkpoint.meta_find ckpt k in
    let prog, gran =
      match recorded_program ckpt.Icb_search.Checkpoint.meta with
      | Ok pg -> pg
      | Error (`Msg msg) -> die msg
      | Error (`Unreadable msg) ->
        die
          (Printf.sprintf
             "cannot reload the checkpointed program: %s (the checkpoint \
              records the model by path; restore the file or rerun `icb \
              check`)"
             msg)
      | Error `Unrecorded -> missing_meta file "how to rebuild the program"
    in
    if not quiet then
      Format.eprintf "[icb] resuming %s@."
        (Icb_search.Checkpoint.describe ckpt);
    let check_mode = meta "mode" <> Some "explore" in
    {
      ckpt;
      check_mode;
      prog;
      gran;
      no_deadlock = meta "no-deadlock" = Some "true";
      (* the recorded cap, so a resumed randomized strategy keeps the
         horizon the user asked for instead of running to its hard walk
         cap; serve's --max-executions overrides it, since a run its cap
         stopped would otherwise stop again at once *)
      max_execs =
        (match max_execs with
        | Some _ -> max_execs
        | None -> Option.bind (meta "max-executions") int_of_string_opt);
      first_bug = first_bug || check_mode || meta "first-bug" = Some "true";
      seed =
        Option.value
          (Option.bind (meta "seed") Int64.of_string_opt)
          ~default:2007L;
      out = Option.value checkpoint ~default:file;
    }

let resume_run file timeout checkpoint checkpoint_every jobs progress trace
    metrics metrics_every quiet repro_dir first_bug no_cache =
  let res = load_resume ~quiet ~checkpoint ~first_bug file in
  let meta k = Icb_search.Checkpoint.meta_find res.ckpt k in
  if res.check_mode then begin
    let bound =
      match Option.bind (meta "bound") int_of_string_opt with
      | Some b -> b
      | None -> missing_meta file "the preemption bound"
    in
    let rt =
      make_runtime ~trace ~metrics ~metrics_every ~quiet ~progress ~timeout ()
    in
    run_check ~prog:res.prog
      ~meta:
        (List.filter_map
           (fun k -> Option.map (fun v -> (k, v)) (meta k))
           [ "kind"; "target"; "bound"; "seed"; "granularity"; "no-deadlock" ])
      ~bound ~rt
      ~options:(options_of ~no_deadlock:res.no_deadlock ~timeout rt)
      ~gran:res.gran ~checkpoint:(Some res.out) ~checkpoint_every
      ~resume_from:(Some res.ckpt) ~jobs ~repro_dir ~seed:res.seed ~no_cache
      ()
  end
  else begin
    (* Checkpoints written by `icb explore --checkpoint` carry the
       strategy in the file itself, not a preemption bound; resume them
       with explore's reporting. *)
    if jobs < 1 then die "--jobs must be at least 1";
    let rt =
      make_runtime ?max_execs:res.max_execs ~trace ~metrics ~metrics_every
        ~quiet ~progress ~timeout ()
    in
    let options =
      {
        (options_of ~no_deadlock:res.no_deadlock ~timeout rt) with
        Icb_search.Collector.max_executions = res.max_execs;
        stop_at_first_bug = res.first_bug;
      }
    in
    let r =
      try
        Icb.resume ~config:(config_of_granularity res.gran) ~options
          ~checkpoint_out:res.out ~checkpoint_every
          ?telemetry:rt.rt_telemetry ~domains:jobs ~cache:(not no_cache)
          res.prog res.ckpt
      with Invalid_argument msg -> die msg
    in
    rt.rt_finish r;
    drop_bundles ~repro_dir ~prog:res.prog ~no_deadlock:res.no_deadlock
      ~gran:res.gran
      ~kind:(Option.value (meta "kind") ~default:"file")
      ~target:(Option.value (meta "target") ~default:"?")
      ~strategy:(Option.value (meta "strategy") ~default:"?")
      ~seed:res.seed ~quiet r;
    print_summary r;
    exit (if r.bugs <> [] then 1 else 0)
  end

let resume_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CHECKPOINT"
          ~doc:"Checkpoint file written by $(b,icb check --checkpoint).")
  in
  let doc = "continue an interrupted check from a checkpoint" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads a checkpoint written by $(b,icb check --checkpoint FILE) or \
         $(b,icb check-model --checkpoint FILE), rebuilds the program it \
         records, and continues the search exactly where it stopped: same \
         work queue, context bound, coverage counters and bug list.  By \
         default new checkpoints overwrite the same file, so a run can be \
         interrupted and resumed any number of times.  Truncated or \
         corrupted checkpoints, and checkpoints whose strategy parameters \
         do not decode, are rejected with a clear error.  See \
         docs/RESILIENCE.md.";
    ]
  in
  Cmd.v
    (Cmd.info "resume" ~doc ~man)
    Term.(
      const resume_run $ file $ timeout_arg $ checkpoint_arg
      $ checkpoint_every_arg $ jobs_arg $ progress_arg $ trace_arg
      $ metrics_arg $ metrics_every_arg $ quiet_arg $ repro_dir_arg
      $ first_bug_arg $ no_cache_arg)

(* --- explore ------------------------------------------------------------------ *)

(* The one list every accepted --strategy spelling comes from
   ([Explore.strategy_forms]); the help text and the parse error both
   render it so they cannot drift apart. *)
let strategy_arg =
  let doc =
    "Search strategy: "
    ^ String.concat ", "
        (List.map
           (fun (form, what, range) ->
             match range with
             | None -> Printf.sprintf "$(b,%s) (%s)" form what
             | Some r -> Printf.sprintf "$(b,%s) (%s; %s)" form what r)
           Icb_search.Explore.strategy_forms)
    ^ "."
  in
  Arg.(value & opt string "icb" & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

let max_execs_arg =
  let doc = "Stop after N executions." in
  Arg.(
    value & opt (some int) None & info [ "max-executions" ] ~docv:"N" ~doc)

let parse_strategy ~seed s =
  match Icb_search.Explore.parse_strategy ~seed s with
  | Ok strategy -> strategy
  | Error msg -> die msg

(* FILE or --model NAME, the program a fresh explore or serve run starts
   from; [none] is the error when neither is given. *)
let explore_target ~none path model =
  match (path, model) with
  | Some _, Some _ -> die "FILE and --model are mutually exclusive"
  | None, None -> die none
  | Some path, None -> load_target (`File path)
  | None, Some name -> load_target (`Model name)

(* The checkpoint meta of a fresh explore or serve run.  mode=explore
   tells `icb resume` to resume it with explore's reporting. *)
let explore_meta ~kind ~target ~strategy ~seed ~gran ~no_deadlock ~first_bug
    ~max_execs =
  [
    ("mode", "explore");
    ("kind", kind);
    ("target", target);
    ("strategy", strategy);
    ("seed", Int64.to_string seed);
    ("granularity", granularity_name gran);
    ("no-deadlock", string_of_bool no_deadlock);
  ]
  @ (if first_bug then [ ("first-bug", "true") ] else [])
  @
  match max_execs with
  | Some n -> [ ("max-executions", string_of_int n) ]
  | None -> []

let explore_run path model strategy_str seed no_deadlock gran max_execs
    timeout checkpoint checkpoint_every jobs progress trace metrics
    metrics_every quiet repro_dir first_bug no_cache =
  let kind, target, prog =
    explore_target ~none:"one of FILE or --model NAME is required" path model
  in
  let strategy = parse_strategy ~seed strategy_str in
  validate_checkpoint_path checkpoint;
  if jobs < 1 then die "--jobs must be at least 1";
  let rt =
    make_runtime ?max_execs ~trace ~metrics ~metrics_every ~quiet ~progress
      ~timeout ()
  in
  let options =
    {
      (options_of ~no_deadlock ~timeout rt) with
      Icb_search.Collector.max_executions = max_execs;
      stop_at_first_bug = first_bug;
    }
  in
  let meta =
    explore_meta ~kind ~target ~strategy:strategy_str ~seed ~gran
      ~no_deadlock ~first_bug ~max_execs
  in
  (* A strategy whose frontier does not shard rejects --jobs > 1 in
     [Driver.run], and one whose frontier does not serialize rejects
     --checkpoint the same way. *)
  let r =
    try
      Icb.run ~config:(config_of_granularity gran) ~options
        ?checkpoint_out:checkpoint ~checkpoint_every ~checkpoint_meta:meta
        ?telemetry:rt.rt_telemetry ~domains:jobs ~cache:(not no_cache)
        ~strategy prog
    with Invalid_argument msg -> die msg
  in
  rt.rt_finish r;
  drop_bundles ~repro_dir ~prog ~no_deadlock ~gran ~kind ~target
    ~strategy:strategy_str ~seed ~quiet r;
  print_summary r;
  (match (r.Icb_search.Sresult.stop_reason, checkpoint) with
  | Some _, Some f when not quiet ->
    Format.eprintf "continue with `icb resume %s`@." f
  | _ -> ());
  if r.bugs <> [] then exit 1

let explore_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Model source file (or use $(b,--model) for a bundled one).")
  in
  let model =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Explore a bundled model (a name printed by $(b,icb models)) \
             instead of a source FILE.")
  in
  let doc = "explore a model's state space with a chosen strategy" in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      const explore_run $ path $ model $ strategy_arg $ seed_arg
      $ no_deadlock_arg $ granularity_arg $ max_execs_arg $ timeout_arg
      $ checkpoint_arg $ checkpoint_every_arg $ jobs_arg $ progress_arg
      $ trace_arg $ metrics_arg $ metrics_every_arg $ quiet_arg
      $ repro_dir_arg $ first_bug_arg $ no_cache_arg)

(* --- serve / worker (distributed search) -------------------------------------- *)

let host_arg =
  let doc = "Interface to listen on (an IP or resolvable name)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "TCP port to listen on (default 0 = ephemeral; the bound port \
             is printed at startup)." in
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)

let lease_timeout_arg =
  let doc =
    "Seconds a leased batch may stay unreported before it is re-issued to \
     another worker (default 30)."
  in
  Arg.(value & opt float 30.0 & info [ "lease-timeout" ] ~docv:"SECS" ~doc)

let batch_size_arg =
  let doc = "Maximum work items per leased batch (default 32)." in
  Arg.(value & opt int 32 & info [ "batch-size" ] ~docv:"N" ~doc)

let serve_resume_arg =
  let doc =
    "Resume a checkpoint written by a previous $(b,icb serve --checkpoint) \
     (or $(b,icb explore --checkpoint)) instead of starting fresh; FILE / \
     $(b,--model) / $(b,--strategy) are then taken from the checkpoint."
  in
  Arg.(
    value & opt (some file) None & info [ "resume" ] ~docv:"CHECKPOINT" ~doc)

let serve_run path model strategy_str seed no_deadlock gran max_execs timeout
    checkpoint checkpoint_every resume host port lease_timeout batch_size
    trace metrics metrics_every quiet first_bug no_cache =
  validate_out_path "the event trace" trace;
  validate_out_path "metrics" metrics;
  let serve ~prog ~strategy ~meta ~gran ~no_deadlock ~max_execs ~first_bug
      ?resume_from ?checkpoint_out () =
    let telemetry = Obs.Telemetry.create () in
    Option.iter (Obs.Telemetry.add_trace telemetry) trace;
    Option.iter
      (Obs.Telemetry.add_metrics_dump telemetry ~every:metrics_every)
      metrics;
    let options =
      {
        Icb_search.Collector.default_options with
        deadlock_is_error = not no_deadlock;
        deadline = Option.map Icb_search.Collector.deadline_in timeout;
        max_executions = max_execs;
        stop_at_first_bug = first_bug;
      }
    in
    let r =
      try
        Icb.serve ~config:(config_of_granularity gran) ~options
          ?checkpoint_out ~checkpoint_every ~checkpoint_meta:meta ?resume_from
          ~host ~port ~lease_timeout ~batch_size ~telemetry
          ~cache:(not no_cache)
          ~on_coordinator:(fun c ->
            Format.printf "coordinator listening on %s:%d@." host
              (Icb.Dist.Coord.port c))
          ~strategy prog
      with Invalid_argument msg -> die msg
    in
    Obs.Telemetry.close telemetry;
    print_summary r;
    (match (r.Icb_search.Sresult.stop_reason, checkpoint_out) with
    | Some _, Some f when not quiet ->
      Format.eprintf "continue with `icb serve --resume %s`@." f
    | _ -> ());
    if r.Icb_search.Sresult.bugs <> [] then exit 1
  in
  match resume with
  | Some file ->
    let res = load_resume ~quiet ~checkpoint ~first_bug ?max_execs file in
    let strategy =
      match Icb_search.Explore.strategy_of_checkpoint res.ckpt with
      | Ok s -> s
      | Error msg -> die msg
    in
    serve ~prog:res.prog ~strategy ~meta:res.ckpt.Icb_search.Checkpoint.meta
      ~gran:res.gran ~no_deadlock:res.no_deadlock ~max_execs:res.max_execs
      ~first_bug:res.first_bug ~resume_from:res.ckpt ~checkpoint_out:res.out ()
  | None ->
    (* Everything a worker needs to rebuild the engine travels in the
       checkpoint meta (= the job's provenance): kind/target like every
       checkpoint, plus granularity. *)
    let kind, target, prog =
      explore_target ~none:"one of FILE, --model NAME or --resume is required"
        path model
    in
    let strategy = parse_strategy ~seed strategy_str in
    validate_checkpoint_path checkpoint;
    serve ~prog ~strategy
      ~meta:
        (explore_meta ~kind ~target ~strategy:strategy_str ~seed ~gran
           ~no_deadlock ~first_bug ~max_execs)
      ~gran ~no_deadlock ~max_execs ~first_bug ?checkpoint_out:checkpoint ()

let serve_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Model source file (or use $(b,--model) for a bundled one).")
  in
  let model =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Serve a bundled model (a name printed by $(b,icb models)) \
             instead of a source FILE.")
  in
  let doc = "coordinate a distributed search served to icb workers" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens on $(b,--host):$(b,--port) and hands lease-stamped \
         batches of the current round's work items to $(b,icb worker) \
         processes, merging their reports at the same deterministic \
         per-bound barrier the in-process parallel driver uses: the bug \
         set and per-bound execution counts equal a serial run of the \
         same search.  A killed worker loses nothing — its leases expire \
         and the batches are re-issued — and with $(b,--checkpoint) the \
         coordinator itself can be killed and continued with \
         $(b,--resume).  The same port serves $(b,GET /metrics) \
         (Prometheus text) and $(b,GET /status) (JSON) over plain HTTP.  \
         See docs/DISTRIBUTED.md.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_run $ path $ model $ strategy_arg $ seed_arg
      $ no_deadlock_arg $ granularity_arg $ max_execs_arg $ timeout_arg
      $ checkpoint_arg $ checkpoint_every_arg $ serve_resume_arg $ host_arg
      $ port_arg $ lease_timeout_arg $ batch_size_arg $ trace_arg
      $ metrics_arg $ metrics_every_arg $ quiet_arg $ first_bug_arg
      $ no_cache_arg)

let worker_run addr connect_timeout quiet =
  let host, port =
    match String.rindex_opt addr ':' with
    | Some i -> (
      match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
      | Some p -> (String.sub addr 0 i, p)
      | None ->
        Format.eprintf "bad address %S (expected HOST:PORT)@." addr;
        exit 2)
    | None ->
      Format.eprintf "bad address %S (expected HOST:PORT)@." addr;
      exit 2
  in
  (* rebuild the engine from the job's provenance: bundled models by
     registry name, files by path, with the recorded granularity *)
  let resolve meta =
    match recorded_program meta with
    | Ok (p, gran) ->
      Ok
        (Icb.Dist.Worker.Packed
           (Icb.engine ~config:(config_of_granularity gran) p))
    | Error (`Msg msg | `Unreadable msg) -> Error msg
    | Error `Unrecorded ->
      Error "the job's provenance metadata names no model or file"
  in
  (* the coordinator may still be starting; retry connection refusals
     until --connect-timeout expires *)
  let deadline = Unix.gettimeofday () +. connect_timeout in
  let rec attempt () =
    match Icb.worker ~resolve ~host ~port () with
    | Ok batches ->
      if not quiet then
        Format.eprintf "[icb] worker done after %d batches@." batches
    | Error msg
      when String.length msg >= 14
           && String.sub msg 0 14 = "cannot connect"
           && Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.2;
      attempt ()
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  attempt ()

let worker_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOST:PORT"
          ~doc:"Coordinator address, as printed by $(b,icb serve).")
  in
  let connect_timeout =
    let doc =
      "Seconds to keep retrying the initial connection while the \
       coordinator starts up (default 10)."
    in
    Arg.(value & opt float 10.0 & info [ "connect-timeout" ] ~docv:"SECS" ~doc)
  in
  let doc = "run leased work batches for an icb serve coordinator" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to a coordinator started with $(b,icb serve), rebuilds \
         the program from the job's provenance (bundled model name or \
         source path — the file must exist on this machine too), then \
         leases work-item batches and streams back bugs, counters and \
         buffered telemetry until the coordinator reports the search \
         done.  Workers keep a local prefix-snapshot replay cache, \
         which the coordinator's $(b,--no-cache) switches off; killing \
         a worker at any point loses nothing.  See docs/DISTRIBUTED.md.";
    ]
  in
  Cmd.v
    (Cmd.info "worker" ~doc ~man)
    Term.(
      const worker_run $ addr $ connect_timeout $ quiet_arg)

(* --- report ------------------------------------------------------------------- *)

let report_run file json =
  match Obs.Trace.read file with
  | exception Sys_error msg ->
    Format.eprintf "%s@." msg;
    exit 2
  | exception Failure msg ->
    Format.eprintf "%s@." msg;
    exit 2
  | events ->
    let s = Obs.Trace.summarize events in
    if json then print_endline (Obs.Json.to_string (Obs.Trace.to_json s))
    else Format.printf "%a@." Obs.Trace.pp_report s

let report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL event trace written by $(b,--trace).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the summary as a JSON object instead of the table.")
  in
  let doc = "summarize a JSONL event trace" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a trace written by $(b,icb check --trace) (or check-model/\
         resume/explore) into a per-bound coverage table — executions per \
         context bound, cumulative counts, and the bugs found at each \
         bound, the shape of the paper's Table 2 — plus run totals and \
         outcome.  The per-bound cumulative counts reproduce the \
         collector's own curve exactly, serial or parallel.  Corrupt or \
         truncated traces are rejected with the offending line.  See \
         docs/OBSERVABILITY.md.";
    ]
  in
  Cmd.v (Cmd.info "report" ~doc ~man) Term.(const report_run $ file $ json)

(* --- compile ------------------------------------------------------------------ *)

let compile_run path =
  match load_program path with
  | exception Icb.Compile_error msg ->
    Format.eprintf "%s@." msg;
    exit 2
  | prog -> Format.printf "%a@." Icb.Machine.Prog.pp prog

let compile_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Model source file.")
  in
  let doc = "type-check a model and dump the compiled instructions" in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const compile_run $ path)

(* --- models ------------------------------------------------------------------- *)

let models_run () =
  Format.printf
    "bundled models (exact addressable names, use with check-model):@.";
  List.iter
    (fun (name, _) -> Format.printf "  %s@." name)
    (Icb_models.Registry.addressable ())

let models_cmd =
  let doc = "list the bundled benchmark models" in
  Cmd.v (Cmd.info "models" ~doc) Term.(const models_run $ const ())

(* --- repro -------------------------------------------------------------------- *)

let load_bundle path =
  match Icb_repro.Bundle.load path with
  | t -> t
  | exception Icb_repro.Bundle.Corrupt msg -> die msg

(* Rebuild the program a bundle records (checkpoint provenance
   conventions) and its engine at the recorded granularity. *)
let engine_of_bundle (t : Icb_repro.Bundle.t) =
  match
    recorded_program (("kind", t.kind) :: ("target", t.target) :: t.meta)
  with
  | Ok (prog, gran) ->
    (Icb.engine ~config:(config_of_granularity gran) prog, prog)
  | Error (`Msg msg) -> die msg
  | Error (`Unreadable msg) ->
    die
      (Printf.sprintf
         "cannot reload the bundled program: %s (the bundle records the \
          model by path)"
         msg)
  | Error `Unrecorded ->
    die (Printf.sprintf "bundle records unknown program kind %S" t.kind)

let bundle_pos =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BUNDLE"
        ~doc:"Repro bundle written by $(b,--repro-dir) or $(b,icb repro min).")

let repro_verify_run path quiet =
  let t = load_bundle path in
  let engine, _ = engine_of_bundle t in
  let module E = (val engine) in
  match Icb_repro.Bundle.verify (module E) t with
  | Ok w ->
    if not quiet then
      Format.printf "verified: %s (%d step%s, %d preemption%s)@."
        (Icb_repro.Bundle.describe t) w.Icb_repro.Sched.depth
        (if w.Icb_repro.Sched.depth = 1 then "" else "s")
        w.Icb_repro.Sched.preemptions
        (if w.Icb_repro.Sched.preemptions = 1 then "" else "s")
  | Error msg ->
    Format.eprintf "verification failed: %s@." msg;
    exit 4

let repro_verify_cmd =
  let doc = "replay a bundle and check it still reproduces its bug" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Rebuilds the bundle's program, replays the recorded schedule and \
         demands full agreement: the same bug key exactly at the end of \
         the schedule (not earlier, not later) and the recorded \
         preemption, context-switch and depth counts.  Exit code 4 on any \
         disagreement — the program changed, the wrong variant was \
         rebuilt, or the bundle predates a behavioural change.";
    ]
  in
  Cmd.v
    (Cmd.info "verify" ~doc ~man)
    Term.(const repro_verify_run $ bundle_pos $ quiet_arg)

let repro_run_run path =
  let t = load_bundle path in
  let engine, prog = engine_of_bundle t in
  let module E = (val engine) in
  match Icb_repro.Bundle.verify (module E) t with
  | Error msg ->
    Format.eprintf "bundle does not reproduce: %s@." msg;
    exit 4
  | Ok w ->
    report_bug prog
      {
        Icb_search.Sresult.key = t.bug_key;
        msg = t.bug_msg;
        schedule = t.schedule;
        preemptions = w.Icb_repro.Sched.preemptions;
        context_switches = w.Icb_repro.Sched.context_switches;
        depth = w.Icb_repro.Sched.depth;
        execution = 0;
      }

let repro_run_cmd =
  let doc = "replay a bundle and print the full bug report" in
  Cmd.v (Cmd.info "run" ~doc) Term.(const repro_run_run $ bundle_pos)

let repro_min_run path out max_steps trace quiet =
  validate_out_path "the event trace" trace;
  Option.iter (fun o -> validate_out_path "the minimized bundle" (Some o)) out;
  let t = load_bundle path in
  let engine, _ = engine_of_bundle t in
  let module E = (val engine) in
  let telemetry =
    Option.map
      (fun f ->
        let h = Obs.Telemetry.create () in
        Obs.Telemetry.add_trace h f;
        h)
      trace
  in
  let emit =
    match telemetry with
    | Some h -> Obs.Telemetry.emitter h ~worker:0
    | None -> Obs.Emit.null
  in
  let budget =
    {
      Icb_repro.Minimize.default_budget with
      max_engine_steps =
        Option.value max_steps
          ~default:Icb_repro.Minimize.default_budget.max_engine_steps;
    }
  in
  let result =
    Icb_repro.Minimize.run
      (module E)
      ~budget
      ~deadlock_is_error:t.deadlocks_are_errors ~emit ~key:t.bug_key
      t.schedule
  in
  Option.iter Obs.Telemetry.close telemetry;
  match result with
  | Error msg ->
    Format.eprintf "cannot minimize: %s@." msg;
    exit 4
  | Ok s ->
    let m = s.Icb_repro.Minimize.minimized in
    let t' =
      {
        t with
        Icb_repro.Bundle.schedule = m.Icb_repro.Sched.schedule;
        preemptions = m.Icb_repro.Sched.preemptions;
        context_switches = m.Icb_repro.Sched.context_switches;
        depth = m.Icb_repro.Sched.depth;
        minimized = true;
        proven_minimal = s.Icb_repro.Minimize.proven_minimal;
        fingerprint =
          Icb_repro.Triage.fingerprint
            (module E)
            ~key:t.bug_key m.Icb_repro.Sched.schedule;
      }
    in
    let dest = Option.value out ~default:path in
    Icb_repro.Bundle.save ~path:dest t';
    if not quiet then begin
      let o = s.Icb_repro.Minimize.original in
      Format.printf
        "minimized %s:@.  %d step%s, %d preemption%s  ->  %d step%s, %d \
         preemption%s (%s, %d candidate replays)@."
        t.bug_key o.Icb_repro.Sched.depth
        (if o.Icb_repro.Sched.depth = 1 then "" else "s")
        o.Icb_repro.Sched.preemptions
        (if o.Icb_repro.Sched.preemptions = 1 then "" else "s")
        m.Icb_repro.Sched.depth
        (if m.Icb_repro.Sched.depth = 1 then "" else "s")
        m.Icb_repro.Sched.preemptions
        (if m.Icb_repro.Sched.preemptions = 1 then "" else "s")
        (if s.Icb_repro.Minimize.proven_minimal then "proven minimal"
         else "budget exhausted, local minimum")
        s.Icb_repro.Minimize.candidates;
      Format.printf "wrote %s@." dest
    end

let repro_min_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the minimized bundle to $(docv) instead of rewriting \
             BUNDLE in place.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Engine-step budget across all minimization phases; when it \
             runs out the best witness so far is kept with \
             proven_minimal = false.")
  in
  let doc = "shrink a bundle's witness to a locally-minimal schedule" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Minimizes the bundle's schedule in three replay-validated phases \
         — tail truncation, delta debugging over preemption points, and \
         an exhaustive bounded search one preemption below the current \
         witness — then canonicalizes, so the same bug minimized from \
         different findings yields the same schedule and $(b,icb triage) \
         clusters them under one fingerprint.  The bundle is rewritten \
         in place (atomic) unless $(b,--out) is given; the original \
         witness stays recorded in its found_* fields.  $(b,--trace) \
         streams minimize-started/improved/finished telemetry events.  \
         See docs/REPRO.md.";
    ]
  in
  Cmd.v
    (Cmd.info "min" ~doc ~man)
    Term.(
      const repro_min_run $ bundle_pos $ out $ max_steps $ trace_arg
      $ quiet_arg)

let repro_cmd =
  let doc = "minimize, replay and verify repro bundles" in
  Cmd.group (Cmd.info "repro" ~doc)
    [ repro_min_cmd; repro_run_cmd; repro_verify_cmd ]

(* --- triage ------------------------------------------------------------------- *)

let triage_run dir json known =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Format.eprintf "%s is not a directory@." dir;
    exit 2
  end;
  let known_fps =
    match known with
    | None -> []
    | Some file -> (
      let read () =
        let ic = open_in file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Icb_repro.Triage.known_fingerprints (Obs.Json.parse (read ())) with
      | fps -> fps
      | exception Sys_error msg ->
        Format.eprintf "%s@." msg;
        exit 2
      | exception Obs.Json.Parse_error msg ->
        Format.eprintf "%s: %s@." file msg;
        exit 2)
  in
  let r = Icb_repro.Triage.scan ~known:known_fps dir in
  if json then
    print_endline (Obs.Json.to_string (Icb_repro.Triage.to_json r))
  else Format.printf "%a@." Icb_repro.Triage.pp r;
  (* only a baseline makes "new" meaningful as a gate *)
  if
    known <> None
    && List.exists
         (fun c -> c.Icb_repro.Triage.cl_new)
         r.Icb_repro.Triage.clusters
  then exit 1

let triage_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Directory of $(b,.repro) bundles (see $(b,--repro-dir)).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as a JSON object instead of the table.")
  in
  let known =
    Arg.(
      value
      & opt (some file) None
      & info [ "known" ] ~docv:"FILE"
          ~doc:
            "A previous $(b,icb triage --json) output; clusters whose \
             fingerprints all miss it are flagged new, and their presence \
             makes the exit code 1 (a CI gate for regressions).")
  in
  let doc = "cluster a directory of repro bundles by bug" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads every bundle in the directory and groups them by bug key: \
         per cluster the distinct witness fingerprints, the models and \
         strategies that found it, and the smallest witness seen.  \
         Minimized bundles ($(b,icb repro min)) carry canonical \
         witnesses, so the same bug found by different strategies lands \
         on one fingerprint.  Corrupt files are listed, never fatal.  \
         With $(b,--known BASELINE) the exit code is 1 iff a new \
         cluster appeared.  See docs/REPRO.md.";
    ]
  in
  Cmd.v
    (Cmd.info "triage" ~doc ~man)
    Term.(const triage_run $ dir $ json $ known)

let () =
  let doc =
    "systematic testing of multithreaded models with iterative context \
     bounding (Musuvathi & Qadeer, PLDI 2007)"
  in
  let info = Cmd.info "icb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd;
            check_model_cmd;
            resume_cmd;
            explore_cmd;
            serve_cmd;
            worker_cmd;
            report_cmd;
            compile_cmd;
            models_cmd;
            repro_cmd;
            triage_cmd;
          ]))
