(* The prefix-snapshot replay cache (docs/REPLAY_CACHE.md) must be
   invisible: a cached run explores exactly what the stateless run
   explores, fresh or resumed from a checkpoint of any format version
   (test_conformance compares every strategy cached and uncached on
   every runner).  These suites pin what that rests on: the engine
   capability (snapshot/restore round-tripping the machine engine's
   states exactly), the path memo, which must materialize every
   schedule exactly as a replay from the root does, and the exact
   replay work each run saves. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Replay_cache = Icb_search.Replay_cache

open Harness

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

(* One model rich enough to exercise every strategy: a real bug and
   several context bounds. *)
let equivalence_prog () =
  Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set

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
    Alcotest.test_case "an uncached 2-domain run replays what serial does"
      `Quick (fun () ->
        (* the DFS family hands its own follow-ups to the same domain:
           with the cache off they must travel stateless there too *)
        let prog = equivalence_prog () in
        let run domains =
          let stats = ref (Replay_cache.zero ()) in
          ignore
            (Icb.run ~cache:false ~domains
               ~on_cache_stats:(fun s -> stats := s)
               ~strategy:(Explore.Dfs { cache = false })
               prog);
          !stats
        in
        let serial = run 1 and pool = run 2 in
        check Alcotest.int "serial steps replayed" 233_811
          serial.Replay_cache.steps_replayed;
        check Alcotest.int "no snapshot hits" 0 pool.Replay_cache.hits;
        check Alcotest.int "no steps saved" 0 pool.Replay_cache.steps_saved;
        check Alcotest.int "the serial run's steps replayed"
          serial.Replay_cache.steps_replayed pool.Replay_cache.steps_replayed);
    Alcotest.test_case "an uncached ranked run reports no snapshot hits"
      `Quick (fun () ->
        (* most-enabled materializes an item to rank it; with the cache off
           that replay is a miss, and expanding the item saves nothing *)
        let stats = ref (Replay_cache.zero ()) in
        ignore
          (Icb.run ~cache:false
             ~on_cache_stats:(fun s -> stats := s)
             ~strategy:(Explore.Most_enabled { cache = false })
             (equivalence_prog ()));
        check Alcotest.int "no snapshot hits" 0 !stats.Replay_cache.hits;
        check Alcotest.int "no steps saved" 0 !stats.Replay_cache.steps_saved);
    Alcotest.test_case "a CHESS-engine run reports no snapshot hits" `Quick
      (fun () ->
        (* a deferred item leaves its CHESS state behind, whose one-shot
           run is spent by then: the next round rebuilds it from the
           root, a miss, cache or no cache, and nothing is saved *)
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
        let run cache =
          let stats = ref (Replay_cache.zero ()) in
          let r =
            Explore.run
              (Icb_chess.Chess_engine.engine test)
              ~cache
              ~on_cache_stats:(fun s -> stats := s)
              (Explore.Icb { max_bound = Some 2; cache = false })
          in
          (r, !stats)
        in
        let r, stats = run true and ru, _ = run false in
        check Alcotest.bool "explored past bound 0" true
          (r.Sresult.executions > 1);
        check (Alcotest.list Alcotest.string) "same bug set" (bug_keys ru)
          (bug_keys r);
        check Alcotest.int "same executions" ru.Sresult.executions
          r.Sresult.executions;
        check Alcotest.int "same states" ru.Sresult.distinct_states
          r.Sresult.distinct_states;
        check Alcotest.int "same total steps" ru.Sresult.total_steps
          r.Sresult.total_steps;
        check Alcotest.int "no snapshot hits" 0 stats.Replay_cache.hits;
        check Alcotest.int "no steps saved" 0 stats.Replay_cache.steps_saved;
        check Alcotest.int "a miss per deferred item explored" 37
          stats.Replay_cache.misses;
        check Alcotest.int "steps replayed" 267
          stats.Replay_cache.steps_replayed);
  ]

(* --- exact replay work, cached vs uncached -------------------------------- *)

(* Serial ICB with the seen-state cache off, run once with the replay
   cache and once without.  The counts are deterministic, so each row pins
   them exactly.  A fresh run materializes every item from the state its
   parent retained and never asks the path memo; only items that carry no
   state, such as a resumed frontier's, reach it.  So the fresh rows pin
   state retention and the resumed row pins what the memo saves. *)
type replay_row = {
  name : string;
  prog : unit -> Icb.prog;
  bound : int;
  resume_at : int option;
      (* resume from a checkpoint taken after this many executions *)
  deep : bool;  (* the uncached run executes at least 3x the steps *)
  executions : int;
  total_steps : int;
  hits : int;
  misses : int;
  saved : int;
  replayed : int;
}

let transaction () =
  Icb_models.Transaction.program Icb_models.Transaction.Correct

let replay_rows =
  [
    { name = "replay counts (peterson, icb:7)";
      prog = (fun () -> Icb_models.Peterson.program Icb_models.Peterson.Correct);
      bound = 7; resume_at = None; deep = true;
      executions = 120_197; total_steps = 921_962;
      hits = 91_536; misses = 0; saved = 1_936_597; replayed = 0 };
    { name = "replay counts (transaction, icb:5)"; prog = transaction;
      bound = 5; resume_at = None; deep = true;
      executions = 40_839; total_steps = 287_352;
      hits = 30_754; misses = 0; saved = 640_457; replayed = 0 };
    { name = "replay counts (work-stealing, icb:3)";
      prog =
        (fun () ->
          Icb_models.Workstealing.program Icb_models.Workstealing.Correct);
      bound = 3; resume_at = None; deep = false;
      executions = 10_673; total_steps = 178_947;
      hits = 7_877; misses = 0; saved = 196_210; replayed = 0 };
    { name = "replay counts (bluetooth, icb:3)";
      prog = (fun () -> Icb_models.Bluetooth.program ~bug:false);
      bound = 3; resume_at = None; deep = false;
      executions = 56; total_steps = 400;
      hits = 49; misses = 0; saved = 301; replayed = 0 };
    { name = "replay counts (file system, icb:2)";
      prog = (fun () -> Icb_models.Filesystem.program ~threads:3);
      bound = 2; resume_at = None; deep = false;
      executions = 187; total_steps = 1_071;
      hits = 113; misses = 0; saved = 806; replayed = 0 };
    { name = "replay counts (transaction, resumed)"; prog = transaction;
      bound = 5; resume_at = Some 20_000; deep = false;
      executions = 40_840; total_steps = 287_355;
      hits = 15_710; misses = 1; saved = 305_912; replayed = 22_200 };
  ]

let replay_case row () =
  let prog = row.prog () in
  let strategy = Explore.Icb { max_bound = Some row.bound; cache = false } in
  let resume_from =
    Option.map
      (fun n ->
        let path = Filename.temp_file "icb-cache" ".ckpt" in
        ignore
          (Icb.run ~checkpoint_out:path ~strategy
             ~options:
               { Collector.default_options with
                 Collector.max_executions = Some n
               }
             prog);
        let ck = Checkpoint.load path in
        Sys.remove path;
        ck)
      row.resume_at
  in
  let run cache =
    let stats = ref (Replay_cache.zero ()) in
    let r =
      Icb.run ?resume_from ~cache
        ~on_cache_stats:(fun s -> stats := s)
        ~strategy prog
    in
    (r, !stats)
  in
  let rc, sc = run true and ru, su = run false in
  check (Alcotest.list Alcotest.string) "same bug set" (bug_keys ru)
    (bug_keys rc);
  check Alcotest.int "same states" ru.Sresult.distinct_states
    rc.Sresult.distinct_states;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "same executions per bound"
    (Array.to_list ru.Sresult.bound_executions)
    (Array.to_list rc.Sresult.bound_executions);
  List.iter
    (fun (r : Sresult.t) ->
      check Alcotest.int "executions" row.executions r.Sresult.executions;
      check Alcotest.int "total steps" row.total_steps r.Sresult.total_steps)
    [ rc; ru ];
  check Alcotest.int "cached hits" row.hits sc.Replay_cache.hits;
  check Alcotest.int "cached misses" row.misses sc.Replay_cache.misses;
  check Alcotest.int "cached steps saved" row.saved sc.Replay_cache.steps_saved;
  check Alcotest.int "cached steps replayed" row.replayed
    sc.Replay_cache.steps_replayed;
  (* the cache moves replay work; it never adds or drops any *)
  check Alcotest.int "uncached hits" 0 su.Replay_cache.hits;
  check Alcotest.int "uncached misses" (row.hits + row.misses)
    su.Replay_cache.misses;
  check Alcotest.int "uncached steps replayed" (row.saved + row.replayed)
    su.Replay_cache.steps_replayed;
  if row.deep then
    check Alcotest.bool "the uncached run executes >= 3x the steps" true
      (row.total_steps + su.Replay_cache.steps_replayed
      >= 3 * (row.total_steps + sc.Replay_cache.steps_replayed))

let replay_tests =
  List.map
    (fun row -> Alcotest.test_case row.name `Quick (replay_case row))
    replay_rows

(* --- the path memo against from-the-root replay --------------------------- *)

(* Random schedule sets on the transaction manager, fed to one memo.  A
   schedule is a random walk — choice [c] runs the state's [(c mod n)]-th
   enabled thread — and choices below 3 make the walks share prefixes.
   Every materialized state must be the one its schedule reaches from the
   root, and the counters must account for every prefix step. *)
let memo_tests =
  let module E = (val Icb.engine (transaction ())) in
  let capture = Option.get E.snapshot in
  let walk choices =
    let rec go st acc = function
      | c :: cs when E.status st = Engine.Running && E.enabled st <> [] ->
        let en = E.enabled st in
        let t = List.nth en (c mod List.length en) in
        go (E.step st t) (t :: acc) cs
      | _ -> List.rev acc
    in
    go (E.initial ()) [] choices
  in
  let schedules =
    QCheck.make
      ~print:QCheck.Print.(list (list int))
      QCheck.Gen.(
        map (List.map walk)
          (list_size (int_range 1 24) (list_size (int_bound 30) (int_bound 2))))
  in
  let rec lcp a b =
    match (a, b) with x :: a, y :: b when x = y -> 1 + lcp a b | _ -> 0
  in
  let show s = String.concat " " (List.map string_of_int s) in
  let expect what want got =
    if want <> got then
      QCheck.Test.fail_reportf "%s: expected %d, got %d" what want got
  in
  let same_as_root s st =
    let r = List.fold_left E.step (E.initial ()) s in
    if
      E.signature st <> E.signature r
      || E.schedule st <> E.schedule r
      || E.enabled st <> E.enabled r
    then QCheck.Test.fail_reportf "[%s] differs from its root replay" (show s)
  in
  let materialize memo stats ?(step = E.step) s =
    Replay_cache.replay (Some memo) ~stats ~init:E.initial ~step s
  in
  let stream ~sorted =
    QCheck.Test.make ~count:100
      ~name:
        (if sorted then "a sorted stream materializes every schedule"
         else "a stream in random order materializes every schedule")
      schedules
      (fun scheds ->
        let scheds = if sorted then List.sort compare scheds else scheds in
        let memo = Replay_cache.memo ~capture ~restore:E.restore in
        let stats = Replay_cache.zero () in
        List.iter
          (fun s ->
            match materialize memo stats s with
            | Ok st -> same_as_root s st
            | Error (_, _, e) ->
              QCheck.Test.fail_reportf "[%s] raised %s" (show s)
                (Printexc.to_string e))
          scheds;
        let sum f = List.fold_left (fun acc s -> acc + f s) 0 scheds in
        expect "hits + misses"
          (sum (fun s -> if s = [] then 0 else 1))
          (stats.Replay_cache.hits + stats.Replay_cache.misses);
        expect "steps saved + replayed" (sum List.length)
          (stats.Replay_cache.steps_saved + stats.Replay_cache.steps_replayed);
        if sorted then
          expect "steps replayed"
            (fst
               (List.fold_left
                  (fun (acc, prev) s -> (acc + List.length s - lcp s prev, s))
                  (0, []) scheds))
            stats.Replay_cache.steps_replayed;
        true)
  in
  (* One materialization runs a step that raises at every depth >= [p]:
     its first replayed step at or past [p] must come back as [Error] with
     the state before it, and the path then ends there — every later
     materialization restores exactly its common prefix with that shorter
     path and still reaches the right state. *)
  let raising =
    QCheck.Test.make ~count:100
      ~name:"a raising step is reported and the memo recovers"
      QCheck.(pair schedules (pair small_nat (int_bound 30)))
      (fun (scheds, (i, p)) ->
        let poisoned = i mod List.length scheds in
        let memo = Replay_cache.memo ~capture ~restore:E.restore in
        let stats = Replay_cache.zero () in
        let path = ref [] in
        List.iteri
          (fun j s ->
            let k = lcp s !path in
            let saved = stats.Replay_cache.steps_saved in
            if j <> poisoned then begin
              (match materialize memo stats s with
              | Ok st -> same_as_root s st
              | Error _ -> QCheck.Test.fail_reportf "[%s] raised" (show s));
              expect "steps saved" k (stats.Replay_cache.steps_saved - saved);
              if s <> [] then path := s
            end
            else
              let q = max p k in
              let step st t =
                if E.depth st >= p then raise Exit else E.step st t
              in
              match materialize memo stats ~step s with
              | Error (st, t, Exit) when q < List.length s ->
                let upto = List.filteri (fun n _ -> n < q) s in
                if E.schedule st <> upto || t <> List.nth s q then
                  QCheck.Test.fail_reportf "[%s] failed at the wrong step"
                    (show s);
                path := upto
              | Ok st when q >= List.length s ->
                same_as_root s st;
                if s <> [] then path := s
              | Ok _ | Error _ ->
                QCheck.Test.fail_reportf "[%s] poisoned at %d: wrong outcome"
                  (show s) p)
          scheds;
        true)
  in
  List.map QCheck_alcotest.to_alcotest
    [ stream ~sorted:true; stream ~sorted:false; raising ]

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
      (* empty: the widest group name this suite had, which sets the
         width Alcotest prints every test name in *)
      ("equivalence", []);
      ("snapshot", snapshot_tests);
      ("stats", stats_tests @ replay_tests);
      ("memo", memo_tests);
      ("checkpoint", checkpoint_tests);
      ("fixtures", fixture_tests);
    ]
