(* The strategy catalogue and the public search entry points: each
   strategy variant selects a {!Strategies} instance (a first-class
   module of type {!Strategy.S}) and [Driver.run] executes it. *)

type strategy =
  | Icb of { max_bound : int option; cache : bool }
  | Dfs of { cache : bool }
  | Bounded_dfs of { depth : int; cache : bool }
  | Iterative_dfs of { start : int; incr : int; max_depth : int; cache : bool }
  | Random_walk of { seed : int64 }
  | Sleep_dfs
  | Pct of { change_points : int; seed : int64 }
  | Most_enabled of { cache : bool }
  | Variable_bound of { n : int; cache : bool }
  | Thread_bound of { n : int; cache : bool }
  | Icb_vb of { n : int; max_bound : int option; cache : bool }

let strategy_name = function
  | Icb { max_bound; _ } -> Search_core.icb_strategy_name ~max_bound
  | Dfs _ -> "dfs"
  | Bounded_dfs { depth; _ } -> Printf.sprintf "db:%d" depth
  | Iterative_dfs { max_depth; _ } -> Printf.sprintf "idfs:%d" max_depth
  | Random_walk _ -> "random"
  | Sleep_dfs -> "sleep-dfs"
  | Pct { change_points; _ } -> Printf.sprintf "pct:%d" change_points
  | Most_enabled _ -> "most-enabled"
  | Variable_bound { n; _ } -> Printf.sprintf "vb:%d" n
  | Thread_bound { n; _ } -> Printf.sprintf "tb:%d" n
  | Icb_vb { n; _ } -> Printf.sprintf "icb-vb:%d" n

(* The variable-bounding strategies rank shared variables; everything else
   runs env-free.  Callers that must pay to build an env (the CHESS engine
   profiles an execution) gate on this. *)
let needs_env = function
  | Variable_bound _ | Icb_vb _ -> true
  | Icb _ | Dfs _ | Bounded_dfs _ | Iterative_dfs _ | Random_walk _
  | Sleep_dfs | Pct _ | Most_enabled _ | Thread_bound _ -> false

(* Strategy instances are single-use (they hold the run's round state), so
   one is built per [run] call. *)
let instantiate (type s) ?(env = Strategy.empty_env)
    (module E : Engine.S with type state = s) strategy :
    (module Strategy.S with type state = s) =
  match strategy with
  | Icb { max_bound; cache } -> Strategies.icb (module E) ~max_bound ~cache
  | Dfs { cache } -> Strategies.dfs (module E) ~cache
  | Bounded_dfs { depth; cache } ->
    Strategies.bounded_dfs (module E) ~depth ~cache
  | Iterative_dfs { start; incr; max_depth; cache } ->
    Strategies.iterative_dfs (module E) ~start ~incr ~max_depth ~cache
  | Random_walk { seed } -> Strategies.random_walk (module E) ~seed
  | Sleep_dfs -> Strategies.sleep_dfs (module E)
  | Pct { change_points; seed } ->
    Strategies.pct (module E) ~change_points ~seed
  | Most_enabled { cache } -> Strategies.most_enabled (module E) ~cache
  | Variable_bound { n; cache } ->
    Strategies.variable_bound (module E) ~n ~cache ~env
  | Thread_bound { n; cache } -> Strategies.thread_bound (module E) ~n ~cache
  | Icb_vb { n; max_bound; cache } ->
    Strategies.icb_vb (module E) ~n ~max_bound ~cache ~env

(* --- the strategy catalogue ---------------------------------------------- *)

(* One row per strategy family.  Every textual route to a [strategy] — a
   [--strategy] spelling, a checkpoint's params, a distributed batch —
   ends in its row's one decoder, so they accept and reject exactly the
   same values.  The capability flags are not here: they live on the
   {!Strategy.S} instance. *)

type form = {
  f_form : string;  (* as listed, e.g. "db:N" *)
  f_help : string;
  f_n : string option;  (* the param a ":N" form's N spells *)
}

type row = {
  r_tag : string option;  (* the checkpoint tag; [None]: never serialized *)
  r_forms : form list;
  r_decode : (string * string) list -> (strategy, string) result;
  r_example : seed:int64 -> strategy;  (* the registry representative *)
  r_capped : bool;  (* no natural termination: needs an execution cap *)
}

(* The least value of each integer param; a ":N" form's range is its
   param's. *)
let least = function "max_bound" | "truncated" | "sealed" | "k" -> 0 | _ -> 1

let ( let* ) = Result.bind

(* Param readers; each error names the key.  Unknown keys are never
   looked at: [Driver] stamps its own (fingerprint, timings) beside the
   strategy's. *)
let read conv what p key =
  match List.assoc_opt key p with
  | None -> Error (key ^ " is missing")
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%s=%S is not %s" key v what))

let bool_p = read bool_of_string_opt "true or false"
let seed_p p = read Int64.of_string_opt "a 64-bit integer" p "seed"

let int_p p key =
  let* n = read int_of_string_opt "an integer" p key in
  if n < least key then
    Error (Printf.sprintf "%s=%d is below %d" key n (least key))
  else Ok n

(* A key written only sometimes (max_bound), or round-local progress an
   instance persists beside its params (truncated, sealed, k): absent is
   fine, present must be valid. *)
let opt_int p key =
  if List.mem_assoc key p then Result.map Option.some (int_p p key)
  else Ok None

let form ?n f_form f_help = { f_form; f_help; f_n = n }

let row ?tag ?(capped = false) r_forms r_decode r_example =
  { r_tag = tag; r_forms; r_decode; r_example; r_capped = capped }

let catalogue =
  [
    row ~tag:"icb"
      [
        form "icb" "iterative context bounding, unbounded";
        form "icb:N" ~n:"max_bound"
          "iterative context bounding up to N preemptions";
      ]
      (fun p ->
        let* max_bound = opt_int p "max_bound" in
        let* cache = bool_p p "cache" in
        Ok (Icb { max_bound; cache }))
      (fun ~seed:_ -> Icb { max_bound = None; cache = false });
    row ~tag:"dfs"
      [ form "dfs" "plain depth-first search" ]
      (fun p ->
        let* cache = bool_p p "cache" in
        let* _ = opt_int p "truncated" in
        Ok (Dfs { cache }))
      (fun ~seed:_ -> Dfs { cache = false });
    row ~tag:"db"
      [ form "db:N" ~n:"depth" "depth-bounded DFS" ]
      (fun p ->
        let* depth = int_p p "depth" in
        let* cache = bool_p p "cache" in
        let* _ = opt_int p "truncated" in
        Ok (Bounded_dfs { depth; cache }))
      (fun ~seed:_ -> Bounded_dfs { depth = 40; cache = false });
    row ~tag:"idfs"
      [ form "idfs:N" ~n:"max_depth" "iterative deepening DFS to depth N" ]
      (fun p ->
        let* start = int_p p "start" in
        let* incr = int_p p "incr" in
        let* max_depth = int_p p "max_depth" in
        let* cache = bool_p p "cache" in
        let* _ = opt_int p "truncated" in
        Ok (Iterative_dfs { start; incr; max_depth; cache }))
      (fun ~seed:_ ->
        Iterative_dfs { start = 16; incr = 16; max_depth = 48; cache = false });
    row ~tag:"random" ~capped:true
      [ form "random" "random walks (see --seed)" ]
      (fun p ->
        let* seed = seed_p p in
        Ok (Random_walk { seed }))
      (fun ~seed -> Random_walk { seed });
    row
      [ form "sleep" "DFS with sleep-set partial-order reduction" ]
      (fun _ -> Ok Sleep_dfs)
      (fun ~seed:_ -> Sleep_dfs);
    row ~tag:"pct" ~capped:true
      [
        form "pct:N" ~n:"change_points"
          "probabilistic concurrency testing, N change points (see --seed)";
      ]
      (fun p ->
        let* change_points = int_p p "change_points" in
        let* seed = seed_p p in
        let* _ = opt_int p "k" in
        Ok (Pct { change_points; seed }))
      (fun ~seed -> Pct { change_points = 3; seed });
    row ~tag:"most-enabled"
      [ form "most-enabled" "best-first by enabled-thread count" ]
      (fun p ->
        let* cache = bool_p p "cache" in
        Ok (Most_enabled { cache }))
      (fun ~seed:_ -> Most_enabled { cache = false });
    row ~tag:"vb"
      [
        form "vb:N" ~n:"n"
          "variable bounding: preemptions only around the N hottest shared \
           variables";
      ]
      (fun p ->
        let* n = int_p p "n" in
        let* cache = bool_p p "cache" in
        let* _ = opt_int p "sealed" in
        Ok (Variable_bound { n; cache }))
      (fun ~seed:_ -> Variable_bound { n = 2; cache = false });
    row ~tag:"tb"
      [
        form "tb:N" ~n:"n"
          "thread bounding: only the N lowest-numbered threads get preempted";
      ]
      (fun p ->
        let* n = int_p p "n" in
        let* cache = bool_p p "cache" in
        let* _ = opt_int p "sealed" in
        Ok (Thread_bound { n; cache }))
      (fun ~seed:_ -> Thread_bound { n = 2; cache = false });
    row ~tag:"icb-vb"
      [
        form "icb-vb:N" ~n:"n"
          "iterated preemption bound with non-bounded variables sealed";
      ]
      (fun p ->
        let* n = int_p p "n" in
        let* max_bound = opt_int p "max_bound" in
        let* cache = bool_p p "cache" in
        let* _ = opt_int p "sealed" in
        Ok (Icb_vb { n; max_bound; cache }))
      (fun ~seed:_ -> Icb_vb { n = 2; max_bound = None; cache = false });
  ]

let forms =
  List.concat_map (fun r -> List.map (fun f -> (r, f)) r.r_forms) catalogue

let strategy_forms =
  List.map
    (fun (_, f) ->
      ( f.f_form,
        f.f_help,
        Option.map (fun key -> Printf.sprintf "N>=%d" (least key)) f.f_n ))
    forms

let parse_strategy ~seed s =
  let bad () =
    let listed (form, _, range) =
      match range with
      | None -> form
      | Some r -> Printf.sprintf "%s (%s)" form r
    in
    Error
      (Printf.sprintf "bad strategy: %s (accepted: %s)" s
         (String.concat ", " (List.map listed strategy_forms)))
  in
  (* [Some] once [s] is this form: the param its N spells, or why a
     well-formed number is outside the form's range — never just "bad
     strategy" for that *)
  let spelled (r, f) =
    match f.f_n with
    | None -> if s = f.f_form then Some (r, Ok []) else None
    | Some key ->
      let prefix = String.sub f.f_form 0 (String.length f.f_form - 1) in
      let i = String.length prefix in
      if not (String.starts_with ~prefix s) then None
      else
        Some
          ( r,
            match int_of_string_opt (String.sub s i (String.length s - i)) with
            | Some n when n >= least key -> Ok [ (key, string_of_int n) ]
            | Some n ->
              Error
                (Printf.sprintf "bad strategy: %s — %s takes N>=%d, got %d" s
                   f.f_form (least key) n)
            | None -> bad () )
  in
  match List.find_map spelled forms with
  | None -> bad ()
  | Some (r, n) ->
    let* n = n in
    (* what every spelling leaves implicit; a family's decoder ignores
       the keys it does not read *)
    let defaults =
      [ ("cache", "true"); ("seed", Int64.to_string seed);
        ("start", "10"); ("incr", "10") ]
    in
    Result.map_error
      (Printf.sprintf "bad strategy: %s — %s" s)
      (r.r_decode (n @ defaults))

let strategy_of_v3 (f : Checkpoint.v3) =
  let tag = f.Checkpoint.v3_tag in
  match List.find_opt (fun r -> r.r_tag = Some tag) catalogue with
  | None -> Error (Printf.sprintf "unknown checkpoint strategy tag %S" tag)
  | Some r ->
    Result.map_error
      (Printf.sprintf "checkpoint strategy %s: %s" tag)
      (r.r_decode f.Checkpoint.v3_params)

let strategy_of_checkpoint (c : Checkpoint.t) =
  strategy_of_v3 (Checkpoint.to_v3 c)

(* --- the strategy registry ---------------------------------------------- *)

(* Each row's representative, for the cross-strategy property suites: a
   family added to the catalogue is covered by them automatically. *)
type registered = {
  reg_name : string;
  reg_strategy : strategy;
  reg_bounded : bool;  (* no natural termination: needs an execution cap *)
}

let registry ?(seed = 2007L) () =
  List.map
    (fun r ->
      let s = r.r_example ~seed in
      {
        reg_name = strategy_name s;
        reg_strategy = s;
        reg_bounded = r.r_capped;
      })
    catalogue

(* --- running ------------------------------------------------------------- *)

let default_checkpoint_every = Search_core.default_checkpoint_every

(* The single engine module is shared by every worker when [domains > 1],
   which is safe for modules whose module-level mutable state is
   domain-safe (the machine engine has none; the CHESS engine keeps an
   atomic run counter, and each domain's active run in domain-local
   storage).  States cross domains only when the engine has the snapshot
   capability, which certifies them restorable anywhere
   ([Search_core.materializer]).  An engine without it, whose states may
   be bound to a domain, hands its items over as bare schedule prefixes,
   and each worker replays them on its own states. *)
let run (type s) (module E : Engine.S with type state = s) ?options
    ?checkpoint_out ?checkpoint_every ?checkpoint_meta ?resume_from
    ?telemetry ?(domains = 1) ?env ?cache ?on_cache_stats strategy =
  Driver.run
    (fun _ -> (module E : Engine.S with type state = s))
    ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta ?resume_from
    ?telemetry ?replay_cache:cache ?on_cache_stats ~domains
    (instantiate ?env (module E) strategy)

let resume (type s) (module E : Engine.S with type state = s) ?options
    ?checkpoint_out ?checkpoint_every ?checkpoint_meta ?telemetry ?domains
    ?env ?cache (c : Checkpoint.t) =
  let strategy =
    match strategy_of_checkpoint c with
    | Ok s -> s
    | Error msg -> invalid_arg msg
  in
  let checkpoint_meta =
    match checkpoint_meta with Some m -> m | None -> c.meta
  in
  run
    (module E)
    ?options ?checkpoint_out ?checkpoint_every ~checkpoint_meta
    ~resume_from:c ?telemetry ?domains ?env ?cache strategy

let check (type s) (module E : Engine.S with type state = s)
    ?(options = Collector.default_options) ?max_bound ?telemetry ?domains
    ?cache () =
  let options = { options with Collector.stop_at_first_bug = true } in
  let r =
    run (module E) ~options ?telemetry ?domains ?cache
      (Icb { max_bound; cache = false })
  in
  match r.Sresult.bugs with
  | bug :: _ -> Some bug
  | [] -> None

let replay_prefix (type s) (module E : Engine.S with type state = s) schedule
    =
  let rec go st = function
    | [] -> (st, [])
    | rest when Engine.is_terminal (E.status st) -> (st, rest)
    | tid :: rest ->
      if not (List.mem tid (E.enabled st)) then
        invalid_arg
          (Printf.sprintf
             "Explore.replay_prefix: thread %d not enabled at step %d" tid
             (E.depth st))
      else go (E.step st tid) rest
  in
  go (E.initial ()) schedule

let replay (type s) (module E : Engine.S with type state = s) schedule =
  List.fold_left
    (fun st tid ->
      if not (List.mem tid (E.enabled st)) then
        invalid_arg
          (Printf.sprintf "Explore.replay: thread %d not enabled at step %d"
             tid (E.depth st))
      else E.step st tid)
    (E.initial ()) schedule
