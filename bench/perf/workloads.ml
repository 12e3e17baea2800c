(* The benchmark's workloads and what one repetition ("rep") of each
   does, untraced or traced.

   Every rep is one closed-loop client issuing requests through the
   public facade and timing each from issue to verdict.  A traced rep
   makes the same calls through the outside-in wrappers of [Layers]
   instead: the engine and strategy go to [Driver.run] exactly as
   [Explore.run] / [Icb.run_parallel] would pass them, workers reach the
   coordinator through a [Relay], and checkpoint files are timed
   directly.  Traced and untraced reps must reach identical outcomes. *)

module Json = Icb_obs.Json
module Search = Icb.Search
module Explore = Search.Explore
module Collector = Search.Collector
module Driver = Search.Driver
module Sresult = Search.Sresult
module Registry = Icb_models.Registry
module Chess = Icb_chess.Chess_engine

type t = Hunt | Exhaust | Jobs2 | Dist2 | Chess

let all = [ Hunt; Exhaust; Jobs2; Dist2; Chess ]

let name = function
  | Hunt -> "hunt"
  | Exhaust -> "exhaust"
  | Jobs2 -> "jobs2"
  | Dist2 -> "dist2"
  | Chess -> "chess"

let of_name s = List.find_opt (fun w -> name w = s) all

(* one line each; BENCHMARK.json carries the same text *)
let why = function
  | Hunt ->
    "22 short Icb.check verdicts (16 Table 2 bugs, 6 correct models): \
     compiling and per-execution fixed costs dominate"
  | Exhaust ->
    "serial ICB to bound 5 on the transaction manager: deep prefixes, tiny \
     visited set, replay cache hot, engine signature and step dominate"
  | Jobs2 ->
    "the exhaust search on 2 domains: same layer work as exhaust, so a \
     difference is the domain pool and round barrier"
  | Dist2 ->
    "the exhaust search via a coordinator, 2 loopback workers and periodic \
     checkpoints: wire protocol, merge and checkpoint writes"
  | Chess ->
    "CHESS engine on a 3-enqueuer Michael-Scott queue to bound 3: no \
     snapshots, one replay per execution, large visited set"

(* reps of a fixed-count run ([perf.exe run] without --seconds) *)
let default_reps = function
  | Hunt -> 12
  | Exhaust -> 9
  | Jobs2 -> 5
  | Dist2 -> 3
  | Chess -> 5

let workers = function Jobs2 | Dist2 -> 2 | Hunt | Exhaust | Chess -> 1

(* [Small] is the selftest's scale: the same code paths, seconds in
   total. *)
type scale = Full | Small

(* --- inputs ---------------------------------------------------------------- *)

type request = {
  r_id : string;
  r_prog : unit -> Icb.prog;  (* the registry constructor: compiles zlang *)
  r_bound : int;
}

(* The 16 Table 2 bugs at Icb.check's default bound 3 and every correct
   model at the largest bound that stays short (Dryad's bound 2 alone
   takes seconds). *)
let hunt_requests scale =
  let full =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.map
          (fun (b : Registry.bug_spec) ->
            { r_id = e.model_name ^ "/" ^ b.bug_name; r_prog = b.bug_program;
              r_bound = 3 })
          e.bugs
        @
        match e.correct_program with
        | None -> []
        | Some p ->
          [ { r_id = e.model_name ^ "/correct"; r_prog = p;
              r_bound = (if e.model_name = "Dryad Channels" then 1 else 2) } ])
      Registry.all
  in
  match scale with
  | Full -> full
  | Small ->
    List.filter
      (fun r ->
        List.mem r.r_id
          [ "Bluetooth/check-then-add-reference"; "APE/missing-join";
            "Bluetooth/correct" ])
      full

(* A pass issues every request once, in an order drawn from the seed and
   the pass index. *)
let shuffle ~seed ~index xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed; index |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let tm_prog () =
  Option.get (Registry.find "Transaction Manager").Registry.correct_program ()

let search_bound scale = match scale with Full -> 5 | Small -> 2

let icb_strategy bound = Explore.Icb { max_bound = Some bound; cache = false }

(* [n] producers each enqueue one value; the main thread waits for all
   of them, drains the queue and checks every value came out once. *)
let msqueue_body n () =
  let module Api = Icb_chess.Api in
  let module Q = Icb_lockfree.Msqueue in
  let q = Q.create () in
  let d = Api.Semaphore.create 0 in
  for v = 1 to n do
    Api.spawn (fun () ->
        Q.enqueue q v;
        Api.Semaphore.release d)
  done;
  for _ = 1 to n do
    Api.Semaphore.acquire d
  done;
  let rec drain acc = match Q.dequeue q with Some v -> drain (v :: acc) | None -> acc in
  if List.sort compare (drain []) <> List.init n (fun i -> i + 1) then
    failwith "queue lost or duplicated a value"

let chess_size = function Full -> (3, 3) | Small -> (2, 2)  (* enqueuers, bound *)

(* --- outcomes -------------------------------------------------------------- *)

type op = {
  id : string;
  ms : float;
  executions : int;
  steps : int;
  outcome : Json.t;  (* what the reference pins *)
}

let search_outcome (r : Sresult.t) =
  Json.Obj
    [
      ("executions", Json.Int r.executions);
      ("states", Json.Int r.distinct_states);
      ("steps", Json.Int r.total_steps);
      ( "bugs",
        Json.List
          (List.map (fun (b : Sresult.bug) -> Json.String b.key)
             (List.sort compare r.bugs)) );
    ]

let verdict_outcome (r : Sresult.t) =
  match r.bugs with
  | b :: _ ->
    Json.Obj [ ("bug", Json.String b.key); ("preemptions", Json.Int b.preemptions) ]
  | [] -> Json.Obj [ ("bug", Json.Null); ("preemptions", Json.Null) ]

let op_json o =
  Json.Obj
    [
      ("id", Json.String o.id);
      ("ms", Json.Float o.ms);
      ("executions", Json.Int o.executions);
      ("steps", Json.Int o.steps);
      ("outcome", o.outcome);
    ]

let op_of_json j =
  let ( let* ) = Option.bind in
  let* id = Option.bind (Json.find j "id") Json.to_str in
  let* ms = Option.bind (Json.find j "ms") Json.to_float in
  let* executions = Option.bind (Json.find j "executions") Json.to_int in
  let* steps = Option.bind (Json.find j "steps") Json.to_int in
  let* outcome = Json.find j "outcome" in
  Some { id; ms; executions; steps; outcome }

(* --- searches, untraced and traced ---------------------------------------- *)

type probes = {
  mutable cache : Search.Replay_cache.stats;
  mutable ckpt_saves : int;
  mutable ckpt_bytes : int;
  mutable ckpt_save_ns : int;
  mutable ckpt_load_ns : int;
  mutable relay : Relay.stats option;
  mutable leases_reissued : int;
}

let fresh_probes () =
  {
    cache = Search.Replay_cache.zero ();
    ckpt_saves = 0;
    ckpt_bytes = 0;
    ckpt_save_ns = 0;
    ckpt_load_ns = 0;
    relay = None;
    leases_reissued = 0;
  }

let on_cache_stats p s = Search.Replay_cache.accum ~into:p.cache s

(* [Explore.run]'s serial call of [Driver.run], through the wrappers. *)
let traced_serial (type s) p ?env ?options
    (e : (module Search.Engine.S with type state = s)) strategy =
  let e = Layers.engine ~worker:0 e in
  Driver.run (fun _ -> e) ?options ~on_cache_stats:(on_cache_stats p) ~domains:1
    (Layers.strategy (Explore.instantiate ?env e strategy))

(* One verdict on Icb.check's path (ICB without the seen-state cache,
   stopping at the first bug), keeping the result Icb.check discards. *)
let verdict ~traced p prog bound =
  let options = { Collector.default_options with stop_at_first_bug = true } in
  if traced then traced_serial p ~options (Icb.engine prog) (icb_strategy bound)
  else Explore.run (Icb.engine prog) ~options (icb_strategy bound)

let exhaust ~traced p prog bound =
  if traced then
    traced_serial p ~env:(Search.Strategy.env_of_prog prog) (Icb.engine prog)
      (icb_strategy bound)
  else Icb.run ~strategy:(icb_strategy bound) prog

(* [Icb.run_parallel]'s call of [Driver.run]: one engine per domain,
   states shared across the barrier. *)
let jobs2 ~traced p prog bound =
  if traced then
    let es = Array.init 2 (fun w -> Layers.engine ~worker:w (Icb.engine prog)) in
    Driver.run (fun i -> es.(i)) ~share_states:true
      ~on_cache_stats:(on_cache_stats p) ~domains:2
      (Layers.strategy
         (Search.Strategies.icb es.(0) ~max_bound:(Some bound) ~cache:false))
  else Icb.run_parallel ~domains:2 ~max_bound:bound prog

let chess ~traced p (enqueuers, bound) =
  let body = msqueue_body enqueuers in
  if traced then traced_serial p (Chess.engine body) (icb_strategy bound)
  else Chess.run ~strategy:(icb_strategy bound) body

(* A coordinator on an ephemeral loopback port with two worker domains,
   checkpointing to [ckpt].  Traced: workers reach it through a relay and
   run wrapped engines, and the coordinator's checkpoint events are
   counted. *)
let dist2 ~traced p ~ckpt ~mark_setup prog bound =
  let telemetry =
    if not traced then None
    else begin
      let tel = Icb.Obs.Telemetry.create () in
      Icb.Obs.Telemetry.add_consumer tel (fun env ->
          match env.Icb.Obs.Event.ev with
          | Icb.Obs.Event.Checkpoint_written { path; _ } ->
            p.ckpt_saves <- p.ckpt_saves + 1;
            p.ckpt_bytes <- p.ckpt_bytes + (Unix.stat path).Unix.st_size
          | _ -> ());
      Some tel
    end
  in
  let domains = ref [] and relay = ref None and coord = ref None in
  let on_coordinator c =
    coord := Some c;
    let port =
      if traced then begin
        let r = Relay.create ~upstream_port:(Icb.Dist.Coord.port c) ~conns:2 in
        relay := Some r;
        Relay.port r
      end
      else Icb.Dist.Coord.port c
    in
    domains :=
      List.init 2 (fun w ->
          Domain.spawn (fun () ->
              let engine = Icb.engine prog in
              let engine = if traced then Layers.engine ~worker:w engine else engine in
              Icb.worker ~host:"127.0.0.1" ~port
                ~resolve:(fun _ -> Ok (Icb.Dist.Worker.Packed engine))
                ()));
    mark_setup ()
  in
  let errors = ref [] in
  let finish () =
    errors :=
      List.filter_map
        (fun d -> match Domain.join d with Ok _ -> None | Error m -> Some m)
        !domains;
    Option.iter (fun r -> p.relay <- Some (Relay.finish r)) !relay
  in
  let r =
    Fun.protect ~finally:finish (fun () ->
        Icb.serve ?telemetry ~batch_size:32 ~checkpoint_out:ckpt
          ~checkpoint_every:10_000
          ~checkpoint_meta:[ ("kind", "perf"); ("target", "transaction-manager") ]
          ~on_coordinator ~strategy:(icb_strategy bound) prog)
  in
  if !errors <> [] then failwith ("dist2 worker: " ^ String.concat "; " !errors);
  if traced then
    Option.iter
      (fun c ->
        p.leases_reissued <-
          Option.fold ~none:0 ~some:int_of_float
            (Icb.Obs.Metrics.find
               (Icb.Obs.Telemetry.metrics (Icb.Dist.Coord.telemetry c))
               "icb_dist_leases_reissued"))
      !coord;
  r

(* The coordinator's last checkpoint, loaded and written again. *)
let time_checkpoint_files p ckpt =
  let t0 = Layers.now () in
  let c = Search.Checkpoint.load ckpt in
  let t1 = Layers.now () in
  Search.Checkpoint.save ~path:(ckpt ^ ".copy") c;
  p.ckpt_load_ns <- t1 - t0;
  p.ckpt_save_ns <- Layers.now () - t1;
  Sys.remove (ckpt ^ ".copy")

(* --- one rep --------------------------------------------------------------- *)

type rep = {
  setup_s : float;
  wall_s : float;  (* time in requests *)
  cpu_s : float;
  rss_mb : float;
  ops : op list;
  gc : (string * float) list;
  layers : (string * float) list;  (* traced reps only *)
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let gc_stats ~executions =
  let s = Gc.quick_stat () in
  [
    ("gc.minor_words_per_exec", s.Gc.minor_words /. float_of_int (max 1 executions));
    ("gc.major_collections", float_of_int s.Gc.major_collections);
    ( "gc.heap_top_mb",
      float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* --- the machine split ----------------------------------------------------- *)

(* [n] schedules from a seeded random walk of the exhaust model, replayed
   through the machine's public pieces one at a time: the interpreter
   step, the two race/coverage observers, the canonical state hash.
   Each is timed over a whole schedule, never per call. *)
let machine_split ~seed ~n =
  let module Interp = Icb.Machine.Interp in
  let prog = tm_prog () in
  let gran = Interp.Sync_only in
  let rng = Random.State.make [| seed; n |] in
  let walk () =
    let rec go st acc =
      match (Interp.status st, Interp.enabled st) with
      | Interp.Running, (_ :: _ as en) ->
        let tid = List.nth en (Random.State.int rng (List.length en)) in
        go (Interp.step gran st tid).Interp.state (tid :: acc)
      | _ -> Array.of_list (List.rev acc)
    in
    go (Interp.start gran prog).Interp.state []
  in
  let step_ns = ref 0 and vc_ns = ref 0 and hb_ns = ref 0 and sig_ns = ref 0 in
  let steps = ref 0 and observes = ref 0 in
  for _ = 1 to n do
    let sched = walk () in
    let k = Array.length sched in
    let r0 = Interp.start gran prog in
    let states = Array.make (k + 1) r0.Interp.state in
    let events = Array.make (k + 1) r0.Interp.events in
    let t0 = Layers.now () in
    for i = 0 to k - 1 do
      let r = Interp.step gran states.(i) sched.(i) in
      states.(i + 1) <- r.Interp.state;
      events.(i + 1) <- r.Interp.events
    done;
    let t1 = Layers.now () in
    ignore
      (Array.fold_left
         (fun d evs ->
           match Icb.Race.Vcdetect.observe d evs with Ok d -> d | Error _ -> d)
         Icb.Race.Vcdetect.empty events);
    let t2 = Layers.now () in
    ignore (Array.fold_left Icb.Race.Hbsig.observe Icb.Race.Hbsig.empty events);
    let t3 = Layers.now () in
    Array.iter (fun st -> ignore (Icb.Machine.State.signature st)) states;
    let t4 = Layers.now () in
    step_ns := !step_ns + (t1 - t0);
    vc_ns := !vc_ns + (t2 - t1);
    hb_ns := !hb_ns + (t3 - t2);
    sig_ns := !sig_ns + (t4 - t3);
    steps := !steps + k;
    observes := !observes + k + 1
  done;
  let per total calls = float_of_int total /. float_of_int (max 1 calls) in
  [
    ("machine.interp_step.ns", per !step_ns !steps);
    ("race.vclock_observe.ns", per !vc_ns !observes);
    ("race.hbsig_observe.ns", per !hb_ns !observes);
    ("machine.state_signature.ns", per !sig_ns !observes);
  ]

(* --- per-layer metrics of a traced rep ------------------------------------- *)

let pctl p xs = if xs = [] then 0. else Stats.percentile p xs

let layer_metrics w p ~wall_ns ~compile_ns_in_wall ~replays ~split =
  let nw = workers w in
  let e op name =
    [
      (Printf.sprintf "engine.%s.calls" name, float_of_int (Layers.engine_calls op));
      (Printf.sprintf "engine.%s.s" name, Layers.secs (Layers.engine_ns op));
    ]
  in
  let busy = Layers.busy_ns ~workers:2 in
  let busy_w = Array.sub busy 0 nw in
  let total_busy = Array.fold_left ( + ) 0 busy_w in
  let mean_busy = float_of_int total_busy /. float_of_int nw in
  let max_busy = Array.fold_left max 0 busy_w in
  let c = p.cache in
  let materializations = c.Search.Replay_cache.hits + c.Search.Replay_cache.misses in
  let relay =
    match p.relay with
    | Some r -> r
    | None ->
      { Relay.msgs = 0; c2s_bytes = 0; s2c_bytes = 0; wait_replies = 0;
        request_wait_ms = []; result_rtt_ms = [] }
  in
  let attributed =
    compile_ns_in_wall + (Layers.wrapped_ns () / nw)
  in
  [ ("zlang.compile.calls", float_of_int (Layers.compile_calls ()));
    ("zlang.compile.s", Layers.secs (Layers.compile_ns ())) ]
  @ List.concat (List.mapi e (Array.to_list Layers.engine_ops))
  @ [
      ("chess.replays", float_of_int replays);
      ("strategy.expand.calls", float_of_int (Layers.strategy_calls Layers.op_expand));
      ("strategy.expand.self_s", Layers.secs (Layers.expand_self_ns ()));
      ( "strategy.after_round.calls",
        float_of_int (Layers.strategy_calls Layers.op_after_round) );
      ("strategy.after_round.s", Layers.secs (Layers.strategy_ns Layers.op_after_round));
      ( "strategy.to_prefixes.calls",
        float_of_int (Layers.strategy_calls Layers.op_to_prefixes) );
      ("strategy.to_prefixes.s", Layers.secs (Layers.strategy_ns Layers.op_to_prefixes));
      ("replay_cache.hits", float_of_int c.Search.Replay_cache.hits);
      ("replay_cache.misses", float_of_int c.Search.Replay_cache.misses);
      ("replay_cache.steps_saved", float_of_int c.Search.Replay_cache.steps_saved);
      ("replay_cache.steps_replayed", float_of_int c.Search.Replay_cache.steps_replayed);
      ( "replay_cache.hit_ratio",
        if materializations = 0 then 0.
        else float_of_int c.Search.Replay_cache.hits /. float_of_int materializations );
      ("driver.busy_s.w0", Layers.secs busy.(0));
      ("driver.busy_s.w1", Layers.secs busy.(1));
      ( "driver.idle_ratio",
        1. -. (float_of_int total_busy /. (float_of_int nw *. float_of_int wall_ns)) );
      ( "driver.imbalance",
        if total_busy = 0 then 0. else (float_of_int max_busy /. mean_busy) -. 1. );
      ("checkpoint.saves", float_of_int p.ckpt_saves);
      ("checkpoint.bytes", float_of_int p.ckpt_bytes);
      ("checkpoint.save.s", Layers.secs p.ckpt_save_ns);
      ("checkpoint.load.s", Layers.secs p.ckpt_load_ns);
      ("dist.msgs", float_of_int relay.msgs);
      ("dist.bytes.c2s", float_of_int relay.c2s_bytes);
      ("dist.bytes.s2c", float_of_int relay.s2c_bytes);
      ("dist.result_rtt_ms.p50", pctl 50. relay.result_rtt_ms);
      ("dist.result_rtt_ms.p90", pctl 90. relay.result_rtt_ms);
      ("dist.request_wait_ms.p50", pctl 50. relay.request_wait_ms);
      ("dist.request_wait_ms.p90", pctl 90. relay.request_wait_ms);
      ("dist.wait_replies", float_of_int relay.wait_replies);
      ("dist.leases_reissued", float_of_int p.leases_reissued);
    ]
  @ split
  @ [ ("unattributed_s", Layers.secs (wall_ns - attributed)) ]

(* --- running a rep --------------------------------------------------------- *)

(* [spawned] is when the rep's process was asked for (monotonic ns), so
   set-up covers process start, compiling and building the engine,
   coordinator and workers: everything before the first request.  A
   rep's wall time is its time in requests, issue to verdict. *)
let run_rep w ~scale ~seed ~index ~traced ~spawned ~tmpdir =
  if traced then Layers.reset ();
  let p = fresh_probes () in
  let setup_end = ref 0 and compile_at_setup = ref 0 in
  let mark_setup () =
    setup_end := Layers.now ();
    compile_at_setup := Layers.compile_ns ()
  in
  let compile f = if traced then Layers.compile f else f () in
  let replays0 = Chess.replays () in
  let ckpt = Filename.concat tmpdir (Printf.sprintf "dist2-%d.ckpt" (Unix.getpid ())) in
  (* the request issued at [t0] has just returned [r] *)
  let op id t0 outcome (r : Sresult.t) =
    { id; ms = float_of_int (Layers.now () - t0) /. 1e6;
      executions = r.executions; steps = r.total_steps; outcome = outcome r }
  in
  let search id f =
    let t0 = Layers.now () in
    [ op id t0 search_outcome (f ()) ]
  in
  let body () =
    match w with
    | Hunt ->
      let reqs = shuffle ~seed ~index (hunt_requests scale) in
      mark_setup ();
      List.map
        (fun r ->
          let go () =
            let t0 = Layers.now () in
            let prog = compile r.r_prog in
            op r.r_id t0 verdict_outcome (verdict ~traced p prog r.r_bound)
          in
          let o = if traced then Layers.with_span ("verdict " ^ r.r_id) go else go () in
          (* untimed: every verdict starts from a collected heap, as a
             fresh [icb check-model] process would, so neither its
             latency nor the pass's peak RSS depends on the seed-drawn
             order of the requests before it *)
          Gc.full_major ();
          o)
        reqs
    | Exhaust ->
      let prog = compile tm_prog in
      mark_setup ();
      search "exhaust" (fun () -> exhaust ~traced p prog (search_bound scale))
    | Jobs2 ->
      let prog = compile tm_prog in
      mark_setup ();
      search "jobs2" (fun () -> jobs2 ~traced p prog (search_bound scale))
    | Dist2 ->
      let prog = compile tm_prog in
      (* set-up ends inside, once the workers are launched *)
      let r = dist2 ~traced p ~ckpt ~mark_setup prog (search_bound scale) in
      [ op "dist2" !setup_end search_outcome r ]
    | Chess ->
      mark_setup ();
      search "chess" (fun () -> chess ~traced p (chess_size scale))
  in
  let ops = if traced then Layers.rep_span ("rep " ^ name w) body else body () in
  if traced && w = Dist2 then time_checkpoint_files p ckpt;
  if Sys.file_exists ckpt then Sys.remove ckpt;
  let wall_ns = int_of_float (List.fold_left (fun s o -> s +. o.ms) 0. ops *. 1e6) in
  let times = Unix.times () in
  let executions = List.fold_left (fun n o -> n + o.executions) 0 ops in
  let layers =
    if not traced then []
    else
      layer_metrics w p ~wall_ns
        ~compile_ns_in_wall:(Layers.compile_ns () - !compile_at_setup)
        ~replays:(Chess.replays () - replays0)
        ~split:(machine_split ~seed ~n:(match scale with Full -> 2000 | Small -> 50))
  in
  {
    setup_s = Layers.secs (!setup_end - spawned);
    wall_s = Layers.secs wall_ns;
    cpu_s = times.Unix.tms_utime +. times.Unix.tms_stime;
    rss_mb = peak_rss_mb ();
    ops;
    gc = gc_stats ~executions;
    layers;
  }

let rep_to_json w r =
  let floats l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Json.Obj
    [
      ("workload", Json.String (name w));
      ("setup_s", Json.Float r.setup_s);
      ("wall_s", Json.Float r.wall_s);
      ("cpu_s", Json.Float r.cpu_s);
      ("rss_mb", Json.Float r.rss_mb);
      ("ops", Json.List (List.map op_json r.ops));
      ("gc", floats r.gc);
      ("layers", floats r.layers);
    ]

let rep_of_json j =
  let ( let* ) = Option.bind in
  let num k = Option.bind (Json.find j k) Json.to_float in
  let floats k =
    match Json.find j k with
    | Some (Json.Obj l) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) l
    | _ -> []
  in
  let* setup_s = num "setup_s" in
  let* wall_s = num "wall_s" in
  let* cpu_s = num "cpu_s" in
  let* rss_mb = num "rss_mb" in
  let* ops =
    match Json.find j "ops" with
    | Some (Json.List l) ->
      let ops = List.filter_map op_of_json l in
      if List.length ops = List.length l then Some ops else None
    | _ -> None
  in
  Some { setup_s; wall_s; cpu_s; rss_mb; ops; gc = floats "gc"; layers = floats "layers" }
