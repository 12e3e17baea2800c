(* The resilience layer: wall-clock budgets, checkpoint/resume, crash
   containment and divergence detection. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Registry = Icb_models.Registry
module Api = Icb_chess.Api
module CE = Icb_chess.Chess_engine

let check = Alcotest.check

let icb_unbounded = Explore.Icb { max_bound = None; cache = false }

let tmp_ckpt () = Filename.temp_file "icb-test" ".ckpt"

let bug_keys (r : Sresult.t) =
  List.sort_uniq String.compare
    (List.map (fun (b : Sresult.bug) -> b.Sresult.key) r.Sresult.bugs)

(* --- wall-clock budgets -------------------------------------------------- *)

let deadline_tests =
  [
    Alcotest.test_case "an expired deadline stops the search with coverage"
      `Quick (fun () ->
        (* huge space, deadline already in the past: the search must stop
           almost immediately yet still report the states it did reach *)
        let r =
          Icb.run
            ~options:
              {
                Collector.default_options with
                deadline = Some (Unix.gettimeofday () -. 1.0);
              }
            ~strategy:icb_unbounded
            (Icb_models.Dryad.program Icb_models.Dryad.Correct)
        in
        check Alcotest.bool "not complete" false r.Sresult.complete;
        check Alcotest.bool "deadline reason" true
          (r.stop_reason = Some Sresult.Deadline_exceeded);
        check Alcotest.bool "non-empty coverage" true (r.distinct_states > 0));
    Alcotest.test_case "a short deadline yields a partial result" `Quick
      (fun () ->
        let r =
          Icb.run
            ~options:
              {
                Collector.default_options with
                deadline = Some (Collector.deadline_in 0.2);
              }
            ~strategy:icb_unbounded
            (Icb_models.Dryad.program Icb_models.Dryad.Correct)
        in
        check Alcotest.bool "not complete" false r.Sresult.complete;
        check Alcotest.bool "made progress" true (r.executions > 0);
        check Alcotest.bool "deadline reason" true
          (r.stop_reason = Some Sresult.Deadline_exceeded));
    Alcotest.test_case "other limits report their own stop reason" `Quick
      (fun () ->
        let r =
          Icb.run
            ~options:
              { Collector.default_options with max_states = Some 10 }
            ~strategy:(Explore.Dfs { cache = false })
            (Icb_models.Workstealing.program Icb_models.Workstealing.Correct)
        in
        check Alcotest.bool "state-limit reason" true
          (r.Sresult.stop_reason = Some Sresult.State_limit);
        let r =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 3 }
            ~strategy:icb_unbounded
            (Icb_models.Peterson.program Icb_models.Peterson.Correct)
        in
        check Alcotest.bool "execution-limit reason" true
          (r.Sresult.stop_reason = Some Sresult.Execution_limit));
    Alcotest.test_case "on_progress fires once per execution" `Quick
      (fun () ->
        let calls = ref 0 in
        let last = ref 0 in
        let r =
          Icb.run
            ~options:
              {
                Collector.default_options with
                on_progress =
                  Some
                    (fun p ->
                      incr calls;
                      check Alcotest.bool "executions increase" true
                        (p.Collector.p_executions > !last);
                      last := p.Collector.p_executions);
              }
            ~strategy:icb_unbounded
            (Icb_models.Bluetooth.program ~bug:false)
        in
        check Alcotest.int "one call per execution" r.Sresult.executions
          !calls);
  ]

(* --- checkpoint / resume -------------------------------------------------- *)

(* Interrupt the search every [chunk] executions (a deterministic stand-in
   for kill -9: the checkpoint written when the limit fires is exactly what
   a killed process leaves behind, thanks to atomic write-rename), then
   resume from disk until the search runs to its natural end. *)
let run_in_chunks ?max_bound ~chunk prog =
  let path = tmp_ckpt () in
  let options lim =
    { Collector.default_options with max_executions = Some lim }
  in
  let strategy = Explore.Icb { max_bound; cache = false } in
  let r =
    ref
      (Icb.run ~options:(options chunk) ~checkpoint_out:path
         ~checkpoint_every:max_int ~strategy prog)
  in
  let rounds = ref 1 in
  while !r.Sresult.stop_reason = Some Sresult.Execution_limit do
    incr rounds;
    if !rounds > 500 then Alcotest.fail "resume loop did not converge";
    let ckpt = Checkpoint.load path in
    r :=
      Icb.resume
        ~options:(options (!r.Sresult.executions + chunk))
        ~checkpoint_out:path prog ckpt
  done;
  Sys.remove path;
  (!r, !rounds)

let same_outcome_as_uninterrupted ?max_bound ~chunk prog () =
  let full = Icb.run ~strategy:(Explore.Icb { max_bound; cache = false }) prog in
  let resumed, rounds = run_in_chunks ?max_bound ~chunk prog in
  check Alcotest.bool "was actually interrupted" true (rounds > 1);
  check (Alcotest.list Alcotest.string) "same bug set" (bug_keys full)
    (bug_keys resumed);
  check Alcotest.int "same states" full.Sresult.distinct_states
    resumed.Sresult.distinct_states;
  check Alcotest.bool "same completion" full.Sresult.complete
    resumed.Sresult.complete;
  (* the ICB guarantee survives interruption: the minimal preemption
     count over all bugs is unchanged *)
  let min_preemptions (r : Sresult.t) =
    List.fold_left
      (fun m (b : Sresult.bug) -> min m b.Sresult.preemptions)
      max_int r.Sresult.bugs
  in
  check Alcotest.int "same minimal preemptions" (min_preemptions full)
    (min_preemptions resumed)

let checkpoint_tests =
  [
    Alcotest.test_case "interrupt/resume matches an uninterrupted run (peterson)"
      `Quick
      (same_outcome_as_uninterrupted ~chunk:200
         (Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set));
    Alcotest.test_case
      "interrupt/resume matches an uninterrupted run (workstealing bug)"
      `Quick
      (same_outcome_as_uninterrupted ~max_bound:2 ~chunk:50
         (Icb_models.Workstealing.program
            Icb_models.Workstealing.Bug_unlocked_steal));
    Alcotest.test_case "random walk resumes its RNG stream" `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        let options lim =
          { Collector.default_options with max_executions = Some lim }
        in
        let strategy = Explore.Random_walk { seed = 42L } in
        let full = Icb.run ~options:(options 40) ~strategy prog in
        let path = tmp_ckpt () in
        let half =
          Icb.run ~options:(options 20) ~checkpoint_out:path
            ~checkpoint_every:max_int ~strategy prog
        in
        check Alcotest.int "stopped halfway" 20 half.Sresult.executions;
        let resumed =
          Icb.resume ~options:(options 40) prog (Checkpoint.load path)
        in
        Sys.remove path;
        (* the resumed walk continues the very same random stream, so the
           two-phase run covers exactly what the one-shot run covers *)
        check Alcotest.int "same executions" full.Sresult.executions
          resumed.Sresult.executions;
        check Alcotest.int "same states" full.Sresult.distinct_states
          resumed.Sresult.distinct_states);
    Alcotest.test_case "checkpointing a chess-engine search resumes too"
      `Quick (fun () ->
        (* the stateless engine rebuilds frontier states by replaying
           schedule prefixes — exactly the checkpoint representation *)
        let body () =
          let m = Api.Mutex.create () in
          let c = Api.Data.make 0 in
          for _ = 1 to 2 do
            Api.spawn (fun () ->
                Api.Mutex.lock m;
                Api.Data.set c (Api.Data.get c + 1);
                Api.Mutex.unlock m)
          done
        in
        let e = CE.engine body in
        let full = Explore.run e icb_unbounded in
        let path = tmp_ckpt () in
        let options lim =
          { Collector.default_options with max_executions = Some lim }
        in
        let r =
          ref
            (Explore.run e ~options:(options 3) ~checkpoint_out:path
               ~checkpoint_every:max_int icb_unbounded)
        in
        let rounds = ref 1 in
        while !r.Sresult.stop_reason = Some Sresult.Execution_limit do
          incr rounds;
          if !rounds > 200 then Alcotest.fail "resume loop did not converge";
          r :=
            Explore.resume e
              ~options:(options (!r.Sresult.executions + 3))
              ~checkpoint_out:path (Checkpoint.load path)
        done;
        Sys.remove path;
        check Alcotest.bool "was interrupted" true (!rounds > 1);
        check Alcotest.bool "complete" true !r.Sresult.complete;
        check Alcotest.int "same states" full.Sresult.distinct_states
          !r.Sresult.distinct_states);
    Alcotest.test_case "strategies without checkpoint support say so" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        match
          Icb.run ~checkpoint_out:"/tmp/never-written.ckpt"
            ~strategy:Explore.Sleep_dfs prog
        with
        | exception Invalid_argument msg ->
          check Alcotest.bool "non-empty diagnostic" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* --- checkpoint file robustness ------------------------------------------ *)

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let expect_corrupt path =
  match Checkpoint.load path with
  | exception Checkpoint.Corrupt msg ->
    check Alcotest.bool "message names the file" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected Checkpoint.Corrupt"

let format_tests =
  [
    Alcotest.test_case "round trip preserves strategy and metadata" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 10 }
            ~checkpoint_out:path
            ~checkpoint_meta:[ ("kind", "model"); ("target", "peterson") ]
            ~strategy:icb_unbounded prog
        in
        let ckpt = Checkpoint.load path in
        check Alcotest.string "strategy" "icb" ckpt.Checkpoint.strategy;
        check
          (Alcotest.option Alcotest.string)
          "meta" (Some "peterson")
          (Checkpoint.meta_find ckpt "target");
        check Alcotest.bool "describes itself" true
          (String.length (Checkpoint.describe ckpt) > 0);
        Sys.remove path);
    Alcotest.test_case "a truncated checkpoint is rejected, never resumed"
      `Quick (fun () ->
        let path = tmp_ckpt () in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 10 }
            ~checkpoint_out:path ~strategy:icb_unbounded
            (Icb_models.Peterson.program
               Icb_models.Peterson.Bug_check_before_set)
        in
        let whole = read_file path in
        (* a mid-write kill can leave any prefix: try several cut points *)
        List.iter
          (fun frac ->
            let cut = String.length whole * frac / 100 in
            write_file path (String.sub whole 0 cut);
            expect_corrupt path)
          [ 3; 20; 50; 99 ];
        Sys.remove path);
    Alcotest.test_case "garbage and future versions are rejected" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        write_file path "this is not a checkpoint at all";
        expect_corrupt path;
        (* right magic, future version *)
        write_file path "ICBCKPT\x01\x00\x00\x00\x63then-anything";
        expect_corrupt path;
        (* flipped payload byte: checksum must catch it *)
        let good = tmp_ckpt () in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 5 }
            ~checkpoint_out:good ~strategy:icb_unbounded
            (Icb_models.Peterson.program Icb_models.Peterson.Correct)
        in
        let whole = Bytes.of_string (read_file good) in
        let last = Bytes.length whole - 1 in
        Bytes.set whole last
          (Char.chr (Char.code (Bytes.get whole last) lxor 0xff));
        write_file path (Bytes.to_string whole);
        expect_corrupt path;
        Sys.remove path;
        Sys.remove good);
    Alcotest.test_case "a checkpoint never resumes the wrong program" `Quick
      (fun () ->
        let path = tmp_ckpt () in
        let _ =
          Icb.run
            ~options:
              { Collector.default_options with max_executions = Some 50 }
            ~checkpoint_out:path ~strategy:icb_unbounded
            (Icb_models.Dryad.program Icb_models.Dryad.Correct)
        in
        let ckpt = Checkpoint.load path in
        (match
           Icb.resume (Icb_models.Bluetooth.program ~bug:false) ckpt
         with
        | exception Invalid_argument _ -> ()
        | _ ->
          (* a tiny program can legitimately replay a prefix of a bigger
             one only if every scheduled thread exists and is enabled;
             reaching here silently would be the dangerous outcome *)
          Alcotest.fail "resume against the wrong program must not succeed");
        Sys.remove path);
    (* The domain pool shares the serial path's resume validation:
       another program's checkpoint, or another strategy's, is refused
       before anything runs. *)
    Alcotest.test_case "the domain pool refuses a foreign checkpoint" `Quick
      (fun () ->
        let stopped strategy prog =
          let path = tmp_ckpt () in
          ignore
            (Icb.run
               ~options:
                 { Collector.default_options with max_executions = Some 50 }
               ~checkpoint_out:path ~strategy prog);
          let c = Checkpoint.load path in
          Sys.remove path;
          c
        in
        let bluetooth = Icb_models.Bluetooth.program ~bug:false in
        let refused what ckpt =
          match
            Icb_search.Driver.run
              (fun _ -> Icb.engine bluetooth)
              ~resume_from:ckpt ~domains:2
              (Icb_search.Strategies.icb (Icb.engine bluetooth)
                 ~max_bound:None ~cache:false)
          with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: the pool resumed it" what
        in
        refused "another program's checkpoint"
          (stopped icb_unbounded
             (Icb_models.Dryad.program Icb_models.Dryad.Correct));
        refused "another strategy's checkpoint"
          (stopped (Explore.Dfs { cache = false }) bluetooth));
  ]

(* --- crash containment ---------------------------------------------------- *)

(* A real engine wrapped so that stepping thread [tid] at depth [at]
   explodes — simulating an interpreter bug or resource blow-up. *)
let crashy prog ~at ~tid:crash_tid exn =
  let module Base = (val Icb.engine prog) in
  (module struct
    include Base

    let step st t =
      if Base.depth st = at && t = crash_tid then raise exn
      else Base.step st t
  end : Engine.S
    with type state = Icb_search.Mach_engine.state)

let crash_tests =
  [
    Alcotest.test_case "an engine crash becomes a replayable bug" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        let e = crashy prog ~at:2 ~tid:0 (Failure "injected engine crash") in
        let r = Explore.run e icb_unbounded in
        let crash =
          List.find_opt
            (fun (b : Sresult.bug) ->
              String.length b.key >= 12
              && String.sub b.key 0 12 = "engine-crash")
            r.Sresult.bugs
        in
        match crash with
        | None -> Alcotest.fail "expected a contained engine-crash bug"
        | Some b ->
          check Alcotest.string "keyed by the exception" "engine-crash:Failure"
            b.Sresult.key;
          check Alcotest.bool "search went on past the crash" true
            (r.Sresult.executions > 1);
          (* the recorded schedule replays straight into the crash *)
          (match Explore.replay e b.Sresult.schedule with
          | exception Failure msg ->
            check Alcotest.string "same crash" "injected engine crash" msg
          | _ -> Alcotest.fail "replay should reproduce the crash"));
    Alcotest.test_case "Stack_overflow in a step is contained too" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        let e = crashy prog ~at:3 ~tid:0 Stack_overflow in
        let r = Explore.run e icb_unbounded in
        check Alcotest.bool "contained" true
          (List.exists
             (fun (b : Sresult.bug) ->
               b.Sresult.key = "engine-crash:Stack_overflow")
             r.Sresult.bugs));
    Alcotest.test_case "crashes do not abort dfs, sleep-dfs or random" `Quick
      (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        List.iter
          (fun strategy ->
            let e = crashy prog ~at:2 ~tid:0 (Failure "boom") in
            let r =
              Explore.run e
                ~options:
                  {
                    Collector.default_options with
                    max_executions = Some 200;
                  }
                strategy
            in
            check Alcotest.bool
              (Explore.strategy_name strategy ^ " contained the crash")
              true
              (List.exists
                 (fun (b : Sresult.bug) ->
                   b.Sresult.key = "engine-crash:Failure")
                 r.Sresult.bugs))
          [
            Explore.Dfs { cache = false };
            Explore.Sleep_dfs;
            Explore.Random_walk { seed = 1L };
            Explore.Most_enabled { cache = false };
          ]);
  ]

(* --- divergence detection -------------------------------------------------- *)

let divergence_tests =
  [
    Alcotest.test_case
      "a nondeterministic chess body is reported, not a crash" `Quick
      (fun () ->
        (* state leaks across executions through [flip], so the body takes
           a different number of synchronization steps on every run — the
           classic nondeterminism CHESS must call out *)
        let flip = ref false in
        let body () =
          flip := not !flip;
          let c = Api.Shared.make 0 in
          Api.spawn (fun () -> Api.Shared.set c 1);
          ignore (Api.Shared.get c);
          if !flip then ignore (Api.Shared.get c)
        in
        let r =
          CE.run
            ~options:
              { Collector.default_options with max_executions = Some 2000 }
            ~strategy:icb_unbounded body
        in
        match
          List.find_opt
            (fun (b : Sresult.bug) ->
              b.Sresult.key = "nondeterministic-program")
            r.Sresult.bugs
        with
        | None ->
          Alcotest.fail "expected a nondeterministic-program diagnostic"
        | Some b ->
          check Alcotest.bool "actionable message" true
            (String.length b.Sresult.msg > 40));
    Alcotest.test_case "deterministic bodies never trigger the detector"
      `Quick (fun () ->
        let body () =
          let m = Api.Mutex.create () in
          for _ = 1 to 2 do
            Api.spawn (fun () ->
                Api.Mutex.lock m;
                Api.Mutex.unlock m)
          done
        in
        let r = CE.run ~strategy:icb_unbounded body in
        check Alcotest.bool "no false positive" false
          (List.exists
             (fun (b : Sresult.bug) ->
               b.Sresult.key = "nondeterministic-program")
             r.Sresult.bugs);
        check Alcotest.bool "complete" true r.Sresult.complete);
  ]

(* --- CLI model addressing -------------------------------------------------- *)

let addressing_tests =
  [
    Alcotest.test_case "addressable names are collision-free" `Quick
      (fun () ->
        let names = List.map fst (Registry.addressable ()) in
        let sorted = List.sort String.compare names in
        let dedup = List.sort_uniq String.compare names in
        check Alcotest.int "no duplicates" (List.length dedup)
          (List.length sorted));
    Alcotest.test_case "single-bug models answer to the :bug alias" `Quick
      (fun () ->
        check Alcotest.bool "bluetooth:bug" true
          (List.mem_assoc "bluetooth:bug" (Registry.addressable ())));
    Alcotest.test_case "disambiguation suffixes colliding names" `Quick
      (fun () ->
        check
          (Alcotest.list Alcotest.string)
          "suffixed in order"
          [ "a-1"; "b"; "a-2" ]
          (Registry.disambiguate [ "a"; "b"; "a" ]);
        check
          (Alcotest.list Alcotest.string)
          "unique names untouched" [ "x"; "y" ]
          (Registry.disambiguate [ "x"; "y" ]));
  ]

let () =
  Alcotest.run "resilience"
    [
      ("deadline", deadline_tests);
      ("checkpoint", checkpoint_tests);
      ("format", format_tests);
      ("crash", crash_tests);
      ("divergence", divergence_tests);
      ("addressing", addressing_tests);
    ]
