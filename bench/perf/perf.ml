(* perf.exe — the committed performance benchmark.

     perf.exe run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                  [--out FILE]
     perf.exe trace [--seed N] [--out FILE]  (one untraced, one traced rep)
     perf.exe compare BASE.json NEW.json [--bench BENCHMARK.json]
     perf.exe selftest [--ref FILE] [--bench BENCHMARK.json]

   [run] issues repetitions ("reps") of each chosen workload, round-robin
   across workloads so transient noise on a shared host hits all of them.
   Every rep is a fresh child process (a re-exec of this program, [rep]
   subcommand) reporting one JSON line, so each starts from a clean heap
   and has its own peak RSS.  Untraced reps give the end-to-end metrics,
   their times divided by the host-speed factor measured around each rep
   ([Calib]); with --trace 1, untraced and traced reps alternate and the
   traced ones give the per-layer metrics.  Every verdict is checked
   against the pinned reference outcomes (bench/perf/reference.json).
   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics by name with their units.  See
   bench/perf/README.md. *)

module Json = Icb_obs.Json
module W = Workloads

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* --- the metric catalogue -------------------------------------------------- *)

(* name, unit, better; bounds live in BENCHMARK.json *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("wall_s", "s", "lower");
    ("cpu_s", "s", "lower");
    ("execs_per_s", "1/s", "higher");
    ("steps_per_s", "1/s", "higher");
    ("verdict_ms_p50", "ms", "lower");
    ("verdict_ms_p95", "ms", "lower");
    ("peak_rss_mb", "MB", "lower");
  ]

let per_layer =
  let calls_s prefix =
    [ (prefix ^ ".calls", "count", "lower"); (prefix ^ ".s", "s", "lower") ]
  in
  calls_s "zlang.compile"
  @ List.concat_map (fun op -> calls_s ("engine." ^ op)) (Array.to_list Layers.engine_ops)
  @ [
      ("chess.replays", "count", "lower");
      ("strategy.expand.calls", "count", "lower");
      ("strategy.expand.self_s", "s", "lower");
    ]
  @ calls_s "strategy.after_round"
  @ calls_s "strategy.to_prefixes"
  @ [
      ("replay_cache.hits", "count", "higher");
      ("replay_cache.misses", "count", "lower");
      ("replay_cache.steps_saved", "count", "higher");
      ("replay_cache.steps_replayed", "count", "lower");
      ("replay_cache.hit_ratio", "ratio", "higher");
      ("driver.busy_s.w0", "s", "lower");
      ("driver.busy_s.w1", "s", "lower");
      ("driver.idle_ratio", "ratio", "lower");
      ("driver.imbalance", "ratio", "lower");
      ("checkpoint.saves", "count", "lower");
      ("checkpoint.bytes", "bytes", "lower");
      ("checkpoint.save.s", "s", "lower");
      ("checkpoint.load.s", "s", "lower");
      ("dist.msgs", "count", "lower");
      ("dist.bytes.c2s", "bytes", "lower");
      ("dist.bytes.s2c", "bytes", "lower");
      ("dist.result_rtt_ms.p50", "ms", "lower");
      ("dist.result_rtt_ms.p90", "ms", "lower");
      ("dist.request_wait_ms.p50", "ms", "lower");
      ("dist.request_wait_ms.p90", "ms", "lower");
      ("dist.wait_replies", "count", "lower");
      ("dist.leases_reissued", "count", "lower");
      ("gc.minor_words_per_exec", "words", "lower");
      ("gc.major_collections", "count", "lower");
      ("gc.heap_top_mb", "MB", "lower");
      ("machine.interp_step.ns", "ns", "lower");
      ("race.vclock_observe.ns", "ns", "lower");
      ("race.hbsig_observe.ns", "ns", "lower");
      ("machine.state_signature.ns", "ns", "lower");
      ("trace.overhead_ratio", "ratio", "lower");
      ("unattributed_s", "s", "lower");
    ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) (end_to_end @ per_layer) with
  | Some (_, u, _) -> u
  | None -> invalid_arg name

(* End-to-end values of one untraced rep.  A verdict is one request's
   answer: one Icb.check on hunt, the whole search elsewhere.  Times are
   divided by the host factor measured around the rep ([Calib]); pass
   [~factor:1.] for raw seconds. *)
let e2e_of_rep ~factor (r : W.rep) =
  let ms = List.map (fun (o : W.op) -> o.ms /. factor) r.ops in
  let wall = r.wall_s /. factor in
  let total f = float_of_int (List.fold_left (fun n o -> n + f o) 0 r.ops) in
  [
    ("setup_s", r.setup_s /. factor);
    ("wall_s", wall);
    ("cpu_s", r.cpu_s /. factor);
    ("execs_per_s", total (fun (o : W.op) -> o.executions) /. wall);
    ("steps_per_s", total (fun (o : W.op) -> o.steps) /. wall);
    ("verdict_ms_p50", Stats.median ms);
    ("verdict_ms_p95", Stats.percentile 95. ms);
    ("peak_rss_mb", r.rss_mb);
  ]

(* --- reference outcomes ---------------------------------------------------- *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> ( try Json.parse s with Json.Parse_error m -> fail "%s: %s" path m)
  | exception Sys_error m -> fail "%s" m

let field j k =
  match Json.find j k with Some v -> v | None -> fail "missing field %S" k

(* The Table 2 bound of every hunt bug must add up, model by model, to
   the paper's per-bound counts; a typo in either is caught here rather
   than shipped as a "reference". *)
let check_table2 reference =
  let hunt = field (field reference "full") "hunt" in
  let rows = match field reference "table2" with Json.Obj l -> l | _ -> fail "table2" in
  List.iter
    (fun (model, row) ->
      let counts =
        match row with
        | Json.List l -> List.map (fun v -> Option.value ~default:(-1) (Json.to_int v)) l
        | _ -> fail "table2 row %s" model
      in
      let ours =
        List.init (List.length counts) (fun b ->
            match hunt with
            | Json.Obj reqs ->
              List.length
                (List.filter
                   (fun (id, v) ->
                     String.starts_with ~prefix:(model ^ "/") id && Json.to_int v = Some b)
                   reqs)
            | _ -> 0)
      in
      if ours <> counts then fail "reference.json: %s bounds disagree with Table 2" model)
    rows

let load_reference path =
  let r = read_json path in
  check_table2 r;
  r

let rec json_matches expected actual =
  match (expected, actual) with
  | Json.Obj fields, Json.Obj _ ->
    List.for_all
      (fun (k, e) ->
        match Json.find actual k with Some a -> json_matches e a | None -> false)
      fields
  | Json.List es, Json.List acts ->
    List.length es = List.length acts && List.for_all2 json_matches es acts
  | e, a -> e = a

(* Whether an op's verdict is the pinned one: a hunt bug found with its
   Table 2 number of preemptions, a correct model with no bug, a search
   with its exact executions, states, steps and bug keys. *)
let matches_reference table (o : W.op) =
  match Json.find table o.id with
  | None -> false
  | Some (Json.Int bound) ->
    Json.find o.outcome "preemptions" = Some (Json.Int bound)
  | Some Json.Null -> Json.find o.outcome "bug" = Some Json.Null
  | Some expected -> json_matches expected o.outcome

(* Every rep of a run must agree op by op — this is also what makes
   traced and untraced outcomes identical. *)
type checker = {
  table : Json.t;
  seen : (string, int * int * Json.t) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let checker table = { table; seen = Hashtbl.create 32; attempted = 0; failed = 0 }

let check_op c (o : W.op) =
  c.attempted <- c.attempted + 1;
  let key = (o.executions, o.steps, o.outcome) in
  let consistent =
    match Hashtbl.find_opt c.seen o.id with
    | None -> Hashtbl.add c.seen o.id key; true
    | Some k -> k = key
  in
  if not (consistent && matches_reference c.table o) then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perf: MISMATCH %s: %s (%d executions, %d steps)%s\n%!" o.id
      (Json.to_string o.outcome) o.executions o.steps
      (if consistent then "" else " differs from an earlier rep")
  end

(* --- reps in child processes ----------------------------------------------- *)

let tmpdir = "_perf"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let expected_ops w = match w with W.Hunt -> List.length (W.hunt_requests W.Full) | _ -> 1

let spawn_rep w ~seed ~index ~traced ~chrome =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; "--workload"; W.name w; "--seed"; string_of_int seed;
      "--index"; string_of_int index; "--trace"; (if traced then "1" else "0") ]
    @ (match chrome with Some f -> [ "--chrome"; f ] | None -> [])
  in
  let spawned = Layers.now () in
  let ic =
    Unix.open_process_args_in exe
      (Array.of_list (args @ [ "--spawned"; string_of_int spawned ]))
  in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (String.split_on_char '\n' out)
  in
  match (status, last) with
  | Unix.WEXITED 0, Some line -> (
    match W.rep_of_json (Json.parse line) with
    | Some r -> Ok r
    | None -> Error "malformed rep report"
    | exception Json.Parse_error m -> Error m)
  | Unix.WEXITED n, _ -> Error (Printf.sprintf "rep exited with %d" n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
    Error (Printf.sprintf "rep killed by signal %d" n)

(* reps are kept with the host factor measured around them *)
type progress = {
  w : W.t;
  c : checker;
  mutable untraced : (W.rep * float) list;
  mutable traced : (W.rep * float) list;
  mutable index : int;
  mutable spent : float;
}

type budget = Reps of int | Seconds of float

let finished ~trace budget p =
  let n = p.index in
  match budget p.w with
  | Reps k -> n >= k
  | Seconds s -> p.spent >= s && n >= (if trace then 2 else 3)

(* [host] holds the last calibration: the one after a rep is the one
   before the next. *)
let run_one ~seed ~trace ~host p =
  let traced = trace && p.index mod 2 = 1 in
  let chrome =
    if traced && p.traced = [] then begin
      ensure_dir tmpdir;
      Some (Filename.concat tmpdir (Printf.sprintf "trace-%s.json" (W.name p.w)))
    end
    else None
  in
  let t0 = Unix.gettimeofday () in
  let before = match !host with Some f -> f | None -> Calib.factor () in
  let r = spawn_rep p.w ~seed ~index:p.index ~traced ~chrome in
  let after = Calib.factor () in
  host := Some after;
  let factor = (before +. after) /. 2. in
  p.spent <- p.spent +. (Unix.gettimeofday () -. t0);
  p.index <- p.index + 1;
  match r with
  | Ok r ->
    List.iter (check_op p.c) r.ops;
    if traced then p.traced <- (r, factor) :: p.traced
    else p.untraced <- (r, factor) :: p.untraced;
    Printf.eprintf "perf: %s rep %d%s: %.3f s, host factor %.3f\n%!" (W.name p.w)
      (p.index - 1) (if traced then " (traced)" else "") r.wall_s factor
  | Error m ->
    let n = expected_ops p.w in
    p.c.attempted <- p.c.attempted + n;
    p.c.failed <- p.c.failed + n;
    Printf.eprintf "perf: %s rep %d failed: %s\n%!" (W.name p.w) (p.index - 1) m

(* --- aggregation ----------------------------------------------------------- *)

type summary = { median : float; q1 : float; q3 : float; values : float list }

let summarize values =
  let q1, median, q3 = Stats.quartiles values in
  { median; q1; q3; values }

let collect names rows =
  List.map
    (fun name -> (name, summarize (List.filter_map (List.assoc_opt name) rows)))
    names

let e2e_summary ?(raw = false) p =
  collect
    (List.map (fun (n, _, _) -> n) end_to_end)
    (List.map
       (fun (r, f) -> e2e_of_rep ~factor:(if raw then 1. else f) r)
       p.untraced)

let layer_summary p =
  let median_wall reps =
    Stats.median (List.map (fun ((r : W.rep), f) -> r.wall_s /. f) reps)
  in
  let rows =
    List.map (fun ((r : W.rep), _) -> r.layers) p.traced
    @ List.map (fun ((r : W.rep), _) -> r.gc) p.untraced
  in
  collect
    (List.map (fun (n, _, _) -> n) per_layer)
    ([ ("trace.overhead_ratio", median_wall p.traced /. median_wall p.untraced) ] :: rows)

let summary_json (name, s) =
  ( name,
    Json.Obj
      [
        ("median", Json.Float s.median);
        ("q1", Json.Float s.q1);
        ("q3", Json.Float s.q3);
        ("n", Json.Int (List.length s.values));
        ("unit", Json.String (unit_of name));
        ("values", Json.List (List.map (fun v -> Json.Float v) s.values));
      ] )

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-30s %14.6g  [%.6g, %.6g]  n=%d %s\n" name s.median s.q1 s.q3
        (List.length s.values) (unit_of name))
    rows

let run_cmd ~workloads ~seed ~budget ~trace ~out ~ref_path =
  let reference = load_reference ref_path in
  let table = field reference "full" in
  let progress =
    List.map
      (fun w ->
        let t = if w = W.Hunt then field table "hunt" else table in
        { w; c = checker t; untraced = []; traced = []; index = 0; spent = 0. })
      workloads
  in
  let host = ref None in
  let rec loop () =
    match List.filter (fun p -> not (finished ~trace budget p)) progress with
    | [] -> ()
    | pending ->
      List.iter (run_one ~seed ~trace ~host) pending;
      loop ()
  in
  loop ();
  let results =
    List.map
      (fun p ->
        let e2e = e2e_summary p in
        let layers = if trace then layer_summary p else [] in
        print_table (Printf.sprintf "%s: end to end" (W.name p.w)) e2e;
        if trace then print_table (Printf.sprintf "%s: per layer" (W.name p.w)) layers;
        (p, e2e, layers))
      progress
  in
  let usable =
    List.for_all
      (fun (p, _, _) -> p.untraced <> [] && ((not trace) || p.traced <> []))
      results
  in
  (match out with
  | None -> ()
  | Some path ->
    let doc =
      Json.Obj
        [
          ("seed", Json.Int seed);
          ( "host",
            Json.Obj
              [
                ("nproc", Json.Int (Domain.recommended_domain_count ()));
                ("ocaml", Json.String Sys.ocaml_version);
                ("seed", Json.Int seed);
              ] );
          ("trace", Json.Bool trace);
          ( "workloads",
            Json.Obj
              (List.map
                 (fun (p, e2e, layers) ->
                   ( W.name p.w,
                     Json.Obj
                       [
                         ("reps", Json.Int (List.length p.untraced));
                         ("traced_reps", Json.Int (List.length p.traced));
                         ("attempted", Json.Int p.c.attempted);
                         ("failed", Json.Int p.c.failed);
                         ("end_to_end", Json.Obj (List.map summary_json e2e));
                         ( "raw_end_to_end",
                           Json.Obj (List.map summary_json (e2e_summary ~raw:true p)) );
                         ( "host_factor",
                           Json.List
                             (List.map (fun (_, f) -> Json.Float f) (p.untraced @ p.traced)) );
                         ("per_layer", Json.Obj (List.map summary_json layers));
                       ] ))
                 results) );
        ]
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n'));
  let attempted = List.fold_left (fun n (p, _, _) -> n + p.c.attempted) 0 results in
  let failed = List.fold_left (fun n (p, _, _) -> n + p.c.failed) 0 results in
  let single = match results with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun (p, e2e, layers) ->
        List.map
          (fun (name, s) ->
            ( (if single then name else W.name p.w ^ "." ^ name),
              Json.Obj [ ("value", Json.Float s.median); ("unit", Json.String (unit_of name)) ] ))
          (if trace then layers else e2e))
      results
  in
  if not usable then fail "a workload has no successful rep to report";
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

(* --- compare --------------------------------------------------------------- *)

let bounds_of_benchmark path =
  match Json.find (read_json path) "end_to_end" with
  | Some (Json.List l) ->
    List.filter_map
      (fun m ->
        match
          ( Option.bind (Json.find m "name") Json.to_str,
            Option.bind (Json.find m "bound") Json.to_float,
            Option.bind (Json.find m "better") Json.to_str )
        with
        | Some n, Some b, Some d -> Some (n, (b, d))
        | _ -> None)
      l
  | _ -> fail "%s: no end_to_end list" path

let summary_of_json j =
  let num k = Option.value ~default:nan (Option.bind (Json.find j k) Json.to_float) in
  let values =
    match Json.find j "values" with
    | Some (Json.List l) -> List.filter_map Json.to_float l
    | _ -> []
  in
  { median = num "median"; q1 = num "q1"; q3 = num "q3"; values }

(* A row is unresolved when either side's quartile spread exceeds the
   bound, unless every rep of one side beats every rep of the other. *)
let verdict ~bound ~better (b : summary) (n : summary) =
  let worse_by = (n.median -. b.median) /. b.median in
  let worse_by = if better = "higher" then -.worse_by else worse_by in
  let spread s = (s.q3 -. s.q1) /. s.median in
  let beats x y = if better = "higher" then x > y else x < y in
  let all_beat xs ys = xs <> [] && ys <> [] && List.for_all (fun x -> List.for_all (beats x) ys) xs in
  if spread b > bound || spread n > bound then
    if all_beat n.values b.values then "better"
    else if all_beat b.values n.values then "worse"
    else "unresolved"
  else if worse_by > bound then "worse"
  else if worse_by < -.bound then "better"
  else "unchanged"

let compare_cmd ~base ~next ~bench =
  let bounds = bounds_of_benchmark bench in
  let wl path = match Json.find (read_json path) "workloads" with Some (Json.Obj l) -> l | _ -> fail "%s: no workloads" path in
  let base_w = wl base and next_w = wl next in
  let regressions = ref 0 in
  Printf.printf "%-8s %-16s %28s %28s %8s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun (w, bj) ->
      match List.assoc_opt w next_w with
      | None -> Printf.printf "%-8s missing from %s\n" w next
      | Some nj ->
        let rate j =
          let get k = Option.value ~default:0 (Option.bind (Json.find j k) Json.to_int) in
          float_of_int (get "failed") /. float_of_int (max 1 (get "attempted"))
        in
        if rate nj > rate bj then begin
          incr regressions;
          Printf.printf "%-8s %-16s %28.4f %28.4f %8s  worse\n" w "error_rate" (rate bj) (rate nj) ""
        end;
        List.iter
          (fun (metric, (bound, better)) ->
            let get j =
              Option.map summary_of_json
                (Option.bind (Json.find j "end_to_end") (fun e -> Json.find e metric))
            in
            match (get bj, get nj) with
            | Some b, Some n ->
              let v = verdict ~bound ~better b n in
              if v = "worse" then incr regressions;
              let cell s = Printf.sprintf "%.5g [%.5g, %.5g]" s.median s.q1 s.q3 in
              Printf.printf "%-8s %-16s %28s %28s %+7.1f%%  %s\n" w metric (cell b) (cell n)
                (100. *. (n.median -. b.median) /. b.median) v
            | _ -> Printf.printf "%-8s %-16s missing\n" w metric)
          bounds)
    base_w;
  if !regressions > 0 then exit 1

(* --- selftest -------------------------------------------------------------- *)

(* Small-scale, in process: every workload untraced and traced, every
   outcome against the pinned small-scale reference, traced equal to
   untraced; plus the metric catalogue against BENCHMARK.json and the
   quartile method against Python's. *)
let selftest ~ref_path ~bench =
  let reference = load_reference ref_path in
  let small = field reference "small" in
  let problems = ref 0 in
  let expect what ok =
    if not ok then begin
      incr problems;
      Printf.printf "FAIL %s\n%!" what
    end
  in
  expect "quartiles match statistics.quantiles"
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = (2.75, 5.5, 8.25));
  let declared section =
    match Json.find (read_json bench) section with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          let s k = Option.value ~default:"" (Option.bind (Json.find m k) Json.to_str) in
          (s "name", s "unit", s "better"))
        l
    | _ -> []
  in
  expect "BENCHMARK.json end_to_end matches perf.exe" (declared "end_to_end" = end_to_end);
  expect "BENCHMARK.json per_layer matches perf.exe" (declared "per_layer" = per_layer);
  expect "BENCHMARK.json workloads match perf.exe"
    (List.map
       (fun m ->
         let s k = Option.bind (Json.find m k) Json.to_str in
         (s "name", s "why"))
       (match Json.find (read_json bench) "workloads" with Some (Json.List l) -> l | _ -> [])
    = List.map (fun w -> (Some (W.name w), Some (W.why w))) W.all);
  ensure_dir tmpdir;
  List.iter
    (fun w ->
      let c = checker (if w = W.Hunt then field small "hunt" else small) in
      List.iter
        (fun traced ->
          let r =
            W.run_rep w ~scale:W.Small ~seed:1 ~index:0 ~traced ~spawned:(Layers.now ())
              ~tmpdir
          in
          List.iter (check_op c) r.ops;
          if traced then
            expect
              (Printf.sprintf "%s traced rep reports every per-layer metric" (W.name w))
              (List.for_all
                 (fun (n, _, _) ->
                   List.mem_assoc n r.layers || List.mem_assoc n r.gc
                   || n = "trace.overhead_ratio")
                 per_layer))
        [ false; true ];
      expect
        (Printf.sprintf "%s: %d/%d ops match the reference, traced = untraced" (W.name w)
           (c.attempted - c.failed) c.attempted)
        (c.failed = 0 && c.attempted > 0))
    W.all;
  if !problems > 0 then exit 1 else print_endline "perf selftest: OK"

(* --- command line ---------------------------------------------------------- *)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
    | [ k ] when String.starts_with ~prefix:"--" k -> fail "%s needs a value" k
    | x :: rest -> flags (("", x) :: acc) rest
    | [] -> List.rev acc
  in
  let cmd, args =
    match argv with
    | c :: rest when not (String.starts_with ~prefix:"--" c) -> (c, flags [] rest)
    | rest -> ("run", flags [] rest)
  in
  let get k = List.assoc_opt k args in
  let all k = List.filter_map (fun (k', v) -> if k' = k then Some v else None) args in
  let int k ~default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> fail "%s: not an integer: %s" k v)
  in
  let seed = int "--seed" ~default:1 in
  let trace = int "--trace" ~default:0 = 1 in
  let ref_path = Option.value (get "--ref") ~default:"bench/perf/reference.json" in
  let bench = Option.value (get "--bench") ~default:"BENCHMARK.json" in
  let workload_arg () =
    match all "--workload" with
    | [] -> W.all
    | names ->
      List.map
        (fun n -> match W.of_name n with Some w -> w | None -> fail "unknown workload %s" n)
        names
  in
  match cmd with
  | "run" | "trace" ->
    let trace = trace || cmd = "trace" in
    let budget =
      match get "--seconds" with
      | Some s -> (
        match float_of_string_opt s with
        | Some s when s > 0. -> fun _ -> Seconds s
        | _ -> fail "--seconds: not a positive number: %s" s)
      | None when cmd = "trace" -> fun _ -> Reps 2
      | None -> fun w -> Reps (W.default_reps w)
    in
    run_cmd ~workloads:(workload_arg ()) ~seed ~budget ~trace ~out:(get "--out")
      ~ref_path
  | "rep" ->
    let w =
      match get "--workload" with
      | Some n -> ( match W.of_name n with Some w -> w | None -> fail "unknown workload %s" n)
      | None -> fail "rep needs --workload"
    in
    let spawned = int "--spawned" ~default:(Layers.now ()) in
    ensure_dir tmpdir;
    let r =
      W.run_rep w ~scale:W.Full ~seed ~index:(int "--index" ~default:0) ~traced:trace
        ~spawned ~tmpdir
    in
    (match get "--chrome" with
    | Some path when trace ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (Layers.chrome_json ())))
    | _ -> ());
    print_endline (Json.to_string (W.rep_to_json w r))
  | "compare" -> (
    match List.filter_map (fun (k, v) -> if k = "" then Some v else None) args with
    | [ base; next ] -> compare_cmd ~base ~next ~bench
    | _ -> fail "usage: perf.exe compare BASE.json NEW.json [--bench BENCHMARK.json]")
  | "selftest" -> selftest ~ref_path ~bench
  | c -> fail "unknown command %s (run, trace, compare, selftest)" c
