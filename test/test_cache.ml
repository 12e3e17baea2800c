(* The prefix-snapshot replay cache (docs/REPLAY_CACHE.md) must be
   invisible: a cached run explores exactly what the stateless run
   explores, for every strategy in the registry, serially and sharded
   across domains, fresh or resumed from a checkpoint of any format
   version.  These suites pin that contract, plus the engine capability
   it rests on — snapshot/restore round-tripping the machine engine's
   states exactly. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Replay_cache = Icb_search.Replay_cache

let check = Alcotest.check

let bug_keys (r : Sresult.t) =
  List.sort_uniq String.compare
    (List.map (fun (b : Sresult.bug) -> b.Sresult.key) r.Sresult.bugs)

let fixture name =
  let candidates =
    [ Filename.concat "fixtures" name;
      Filename.concat (Filename.concat "test" "fixtures") name ]
  in
  try List.find Sys.file_exists candidates
  with Not_found -> List.hd candidates

(* --- snapshot/restore round-trips engine state ---------------------------- *)

(* Walk each registry model's engine along a deterministic schedule,
   capturing a snapshot at every step; then restore each snapshot and
   re-run the recorded suffix, checking the replay lands on the same
   terminal signature, depth and schedule as the original walk.  This is
   the exact property the replay cache relies on: a restored snapshot is
   indistinguishable from the state it captured. *)
let snapshot_round_trip prog () =
  let module E = (val Icb.engine prog) in
  let capture =
    match E.snapshot with
    | Some c -> c
    | None ->
      Alcotest.fail "the machine engine must advertise the snapshot capability"
  in
  (* deterministic walk: at depth d, run the (d mod n)-th enabled thread *)
  let snaps = ref [] in
  let choices = ref [] in
  let rec walk st d =
    match E.enabled st with
    | [] -> st
    | en when d >= 60 -> ignore en; st
    | en ->
      let tid = List.nth en (d mod List.length en) in
      snaps := (capture st, List.length !choices) :: !snaps;
      choices := tid :: !choices;
      walk (E.step st tid) (d + 1)
  in
  let final = walk (E.initial ()) 0 in
  let choices = Array.of_list (List.rev !choices) in
  check Alcotest.bool "the walk took at least one step" true
    (Array.length choices > 0);
  List.iter
    (fun (snap, taken) ->
      let st = ref (E.restore snap) in
      for i = taken to Array.length choices - 1 do
        st := E.step !st choices.(i)
      done;
      check Alcotest.int64 "same terminal signature" (E.signature final)
        (E.signature !st);
      check Alcotest.int "same depth" (E.depth final) (E.depth !st);
      check (Alcotest.list Alcotest.int) "same schedule" (E.schedule final)
        (E.schedule !st);
      check (Alcotest.list Alcotest.int) "same enabled set" (E.enabled final)
        (E.enabled !st))
    !snaps

let registry_programs () =
  List.concat_map
    (fun (e : Icb_models.Registry.entry) ->
      let correct =
        match e.Icb_models.Registry.correct_program with
        | Some p -> [ (e.Icb_models.Registry.model_name, p ()) ]
        | None -> []
      in
      let bug =
        match e.Icb_models.Registry.bugs with
        | b :: _ ->
          [ ( e.Icb_models.Registry.model_name ^ ":"
              ^ b.Icb_models.Registry.bug_name,
              b.Icb_models.Registry.bug_program () )
          ]
        | [] -> []
      in
      correct @ bug)
    Icb_models.Registry.all

let snapshot_tests =
  List.map
    (fun (name, prog) ->
      Alcotest.test_case
        (Printf.sprintf "snapshot/restore round-trips (%s)" name)
        `Quick (snapshot_round_trip prog))
    (registry_programs ())
  @ [
      Alcotest.test_case "the stateless CHESS engine opts out" `Quick
        (fun () ->
          let module C = Icb_chess.Chess_engine.Make (struct
            let test () = ()
          end) in
          check Alcotest.bool "no snapshot capability" true
            (Option.is_none C.snapshot));
    ]

(* --- cached vs uncached equivalence across the strategy registry ---------- *)

(* One model rich enough to exercise every strategy (a real bug, several
   context bounds); the cache must not change a single observable.  The
   randomized strategies are deterministic given the registry's fixed
   seed, so even their equality is exact. *)
let equivalence_prog () =
  Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set

let equivalence_case (reg : Explore.registered) () =
  let prog = equivalence_prog () in
  let options =
    if reg.Explore.reg_bounded then
      { Collector.default_options with Collector.max_executions = Some 200 }
    else Collector.default_options
  in
  let run ~cache ~domains =
    Icb.run ~options ~domains ~cache ~strategy:reg.Explore.reg_strategy prog
  in
  (* Bounded strategies only terminate via the execution cap, and
     parallel stopping is cooperative (workers finish their current item
     before honouring the flag), so two capped parallel runs — cache or
     no cache — can legitimately differ by a few executions.  Compare
     them serially only; naturally-terminating strategies are compared
     sharded too. *)
  let domains_to_try =
    if reg.Explore.reg_shardable && not reg.Explore.reg_bounded then [ 1; 2 ]
    else [ 1 ]
  in
  List.iter
    (fun domains ->
      let rc = run ~cache:true ~domains in
      let ru = run ~cache:false ~domains in
      let tag = Printf.sprintf "%s, domains=%d" reg.Explore.reg_name domains in
      check (Alcotest.list Alcotest.string)
        (tag ^ ": same bug set") (bug_keys ru) (bug_keys rc);
      check Alcotest.int (tag ^ ": same executions") ru.Sresult.executions
        rc.Sresult.executions;
      check Alcotest.int (tag ^ ": same states") ru.Sresult.distinct_states
        rc.Sresult.distinct_states;
      check Alcotest.int (tag ^ ": same expansion steps")
        ru.Sresult.total_steps rc.Sresult.total_steps;
      check Alcotest.bool (tag ^ ": same completion") ru.Sresult.complete
        rc.Sresult.complete)
    domains_to_try

let equivalence_tests =
  List.map
    (fun (reg : Explore.registered) ->
      Alcotest.test_case
        (Printf.sprintf "cached = uncached (%s)" reg.Explore.reg_name)
        `Quick (equivalence_case reg))
    (Explore.registry ())

(* --- the cache saves work without changing it ----------------------------- *)

let stats_tests =
  [
    Alcotest.test_case "a cached ICB run reports replay work saved" `Quick
      (fun () ->
        let prog = equivalence_prog () in
        let stats = ref (Replay_cache.zero ()) in
        let r =
          Icb.run ~cache:true
            ~on_cache_stats:(fun s -> stats := s)
            ~strategy:(Explore.Icb { max_bound = Some 3; cache = false })
            prog
        in
        check Alcotest.bool "explored something" true (r.Sresult.executions > 0);
        check Alcotest.bool "saved replay steps" true
          (!stats.Replay_cache.steps_saved > 0));
    Alcotest.test_case "an uncached run replays every prefix step" `Quick
      (fun () ->
        let prog = equivalence_prog () in
        let stats = ref (Replay_cache.zero ()) in
        ignore
          (Icb.run ~cache:false
             ~on_cache_stats:(fun s -> stats := s)
             ~strategy:(Explore.Icb { max_bound = Some 3; cache = false })
             prog);
        check Alcotest.int "no snapshot hits" 0 !stats.Replay_cache.hits;
        check Alcotest.bool "replayed prefixes from the root" true
          (!stats.Replay_cache.steps_replayed > 0));
    Alcotest.test_case "a CHESS-engine run reports no snapshot hits" `Quick
      (fun () ->
        (* deferred items keep their CHESS states, but stepping one again
           replays its prefix inside the engine: nothing was saved *)
        let module Api = Icb_chess.Api in
        let test () =
          let m = Api.Mutex.create () in
          let d = Api.Semaphore.create 0 in
          for _ = 1 to 2 do
            Api.spawn (fun () ->
                Api.Mutex.with_lock m (fun () -> ());
                Api.Semaphore.release d)
          done;
          Api.Semaphore.acquire d;
          Api.Semaphore.acquire d
        in
        let stats = ref (Replay_cache.zero ()) in
        let r =
          Explore.run
            (Icb_chess.Chess_engine.engine test)
            ~on_cache_stats:(fun s -> stats := s)
            (Explore.Icb { max_bound = Some 2; cache = false })
        in
        check Alcotest.bool "explored past bound 0" true
          (r.Sresult.executions > 1);
        check Alcotest.int "no snapshot hits" 0 !stats.Replay_cache.hits;
        check Alcotest.int "no steps saved" 0 !stats.Replay_cache.steps_saved);
  ]

(* --- checkpoints are identical modulo timing ------------------------------ *)

(* A cached run interrupted mid-search must checkpoint the very same
   frontier as the stateless run interrupted at the same point: the
   snapshot slot never serializes, and the timing params are the only
   permitted difference. *)
let normalized_params ps =
  List.filter
    (fun (k, _) ->
      k <> Checkpoint.elapsed_key && k <> Checkpoint.bound_times_key)
    ps

let checkpoint_tests =
  [
    Alcotest.test_case
      "cached and uncached runs write the same normalized checkpoint" `Quick
      (fun () ->
        let prog = equivalence_prog () in
        let write cache =
          let path = Filename.temp_file "icb-cache" ".ckpt" in
          let options =
            { Collector.default_options with
              Collector.max_executions = Some 5
            }
          in
          ignore
            (Icb.run ~options ~cache ~checkpoint_out:path
               ~strategy:(Explore.Icb { max_bound = Some 4; cache = false })
               prog);
          let ck = Checkpoint.load path in
          Sys.remove path;
          ck
        in
        let cc = write true and cu = write false in
        let vc = Checkpoint.to_v3 cc and vu = Checkpoint.to_v3 cu in
        check Alcotest.string "same tag" vu.Checkpoint.v3_tag
          vc.Checkpoint.v3_tag;
        check Alcotest.int "same round" vu.Checkpoint.v3_round
          vc.Checkpoint.v3_round;
        let prefixes =
          Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.int) Alcotest.int)
        in
        check prefixes "same pending work" vu.Checkpoint.v3_work
          vc.Checkpoint.v3_work;
        check prefixes "same deferred work" vu.Checkpoint.v3_next
          vc.Checkpoint.v3_next;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "same normalized params"
          (normalized_params vu.Checkpoint.v3_params)
          (normalized_params vc.Checkpoint.v3_params))
    ;
  ]

(* --- resuming committed fixtures with caching ----------------------------- *)

(* The committed v2/v3 fixtures were written long before the cache
   existed; resuming them cached must re-explore exactly what the
   stateless resume explores — nothing extra, nothing missing. *)
let resume_case name ?options () =
  let prog = equivalence_prog () in
  let resume cache =
    Icb.resume ?options ~cache prog (Checkpoint.load (fixture name))
  in
  let rc = resume true and ru = resume false in
  check (Alcotest.list Alcotest.string) "same bug set" (bug_keys ru)
    (bug_keys rc);
  check Alcotest.int "same executions" ru.Sresult.executions
    rc.Sresult.executions;
  check Alcotest.int "same states" ru.Sresult.distinct_states
    rc.Sresult.distinct_states;
  check Alcotest.int "same expansion steps" ru.Sresult.total_steps
    rc.Sresult.total_steps;
  check Alcotest.bool "same completion" ru.Sresult.complete
    rc.Sresult.complete

let fixture_tests =
  [
    Alcotest.test_case "resuming the v2 ICB fixture cached explores no more"
      `Quick (resume_case "v2-icb.ckpt");
    Alcotest.test_case
      "resuming the v2 random-walk fixture cached explores no more" `Quick
      (resume_case "v2-random.ckpt"
         ~options:
           { Collector.default_options with
             Collector.max_executions = Some 60
           });
    Alcotest.test_case "resuming the v3 vb fixture cached explores no more"
      `Quick (resume_case "v3-vb.ckpt");
  ]

let () =
  Alcotest.run "cache"
    [
      ("snapshot", snapshot_tests);
      ("equivalence", equivalence_tests);
      ("stats", stats_tests);
      ("checkpoint", checkpoint_tests);
      ("fixtures", fixture_tests);
    ]
