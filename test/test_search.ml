module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Combin = Icb_util.Combin
module Bignat = Icb_util.Bignat

let check = Alcotest.check

let compile = Icb.compile

(* Two threads, each one lock-protected increment: the archetypal tiny
   state space. *)
let tiny =
  {|
var g: int;
mutex m;
proc w() { lock(m); g = g + 1; unlock(m); }
main { spawn w(); spawn w(); }
|}

let run ?config ?options src strategy =
  Icb.run ?config ?options ~strategy (compile src)

let strategy_tests =
  [
    Alcotest.test_case "icb explores the tiny space completely" `Quick
      (fun () ->
        let r = run tiny (Explore.Icb { max_bound = None; cache = false }) in
        check Alcotest.bool "complete" true r.Sresult.complete;
        check Alcotest.int "no bugs" 0 (List.length r.bugs);
        check Alcotest.bool "several executions" true (r.executions > 1));
    Alcotest.test_case "icb and dfs agree on the reachable states" `Quick
      (fun () ->
        let a = run tiny (Explore.Icb { max_bound = None; cache = false }) in
        let b = run tiny (Explore.Dfs { cache = true }) in
        let c = run tiny (Explore.Dfs { cache = false }) in
        check Alcotest.int "icb = cached dfs" a.Sresult.distinct_states
          b.Sresult.distinct_states;
        check Alcotest.int "icb = uncached dfs" a.Sresult.distinct_states
          c.Sresult.distinct_states);
    Alcotest.test_case "icb with caching also agrees" `Quick (fun () ->
        let a = run tiny (Explore.Icb { max_bound = None; cache = true }) in
        let b = run tiny (Explore.Dfs { cache = true }) in
        check Alcotest.int "states" a.Sresult.distinct_states
          b.Sresult.distinct_states);
    Alcotest.test_case "models: icb, dfs and idfs converge on state counts"
      `Quick (fun () ->
        List.iter
          (fun prog ->
            let e = Icb.engine prog in
            let a =
              Explore.run e (Explore.Icb { max_bound = None; cache = true })
            in
            let b = Explore.run e (Explore.Dfs { cache = true }) in
            let c =
              Explore.run e
                (Explore.Iterative_dfs
                   { start = 5; incr = 5; max_depth = 1000; cache = true })
            in
            check Alcotest.int "icb = dfs" a.Sresult.distinct_states
              b.Sresult.distinct_states;
            check Alcotest.int "idfs = dfs" c.Sresult.distinct_states
              b.Sresult.distinct_states;
            check Alcotest.bool "all complete" true
              (a.complete && b.complete && c.complete))
          [
            Icb_models.Bluetooth.program ~bug:false;
            Icb_models.Filesystem.program ~threads:2;
          ]);
    Alcotest.test_case "bound coverage is monotone and saturates" `Quick
      (fun () ->
        let r =
          Icb.run
            ~strategy:(Explore.Icb { max_bound = None; cache = true })
            (Icb_models.Bluetooth.program ~bug:false)
        in
        let cov = r.Sresult.bound_coverage in
        Array.iteri
          (fun i (_, n) ->
            if i > 0 then
              check Alcotest.bool "non-decreasing" true (n >= snd cov.(i - 1)))
          cov;
        check Alcotest.int "last bound covers everything"
          r.Sresult.distinct_states
          (snd cov.(Array.length cov - 1)));
    Alcotest.test_case "bounded dfs visits no deeper than its bound" `Quick
      (fun () ->
        let r = run tiny (Explore.Bounded_dfs { depth = 3; cache = false }) in
        check Alcotest.bool "not complete (truncated)" true
          ((not r.Sresult.complete) || r.max_steps <= 3);
        check Alcotest.bool "depth respected" true (r.max_steps <= 3));
    Alcotest.test_case "random walk respects the execution limit" `Quick
      (fun () ->
        let options =
          { Collector.default_options with max_executions = Some 17 }
        in
        let r = run ~options tiny (Explore.Random_walk { seed = 5L }) in
        check Alcotest.int "executions" 17 r.Sresult.executions);
    Alcotest.test_case "random walk is deterministic per seed" `Quick
      (fun () ->
        let options =
          { Collector.default_options with max_executions = Some 20 }
        in
        let a = run ~options tiny (Explore.Random_walk { seed = 9L }) in
        let b = run ~options tiny (Explore.Random_walk { seed = 9L }) in
        check Alcotest.int "same states" a.Sresult.distinct_states
          b.Sresult.distinct_states;
        check
          (Alcotest.array (Alcotest.pair Alcotest.int Alcotest.int))
          "same growth" a.Sresult.growth b.Sresult.growth);
    Alcotest.test_case "random walk states are a subset of dfs's" `Quick
      (fun () ->
        let options =
          { Collector.default_options with max_executions = Some 50 }
        in
        let rw = run ~options tiny (Explore.Random_walk { seed = 3L }) in
        let dfs = run tiny (Explore.Dfs { cache = true }) in
        check Alcotest.bool "subset cardinality" true
          (rw.Sresult.distinct_states <= dfs.Sresult.distinct_states));
  ]

(* --- ICB guarantees ---------------------------------------------------- *)

let icb_tests =
  [
    Alcotest.test_case "first bug has minimal preemptions" `Quick (fun () ->
        (* exhaustively enumerate all executions and find the true minimum
           preemption count over buggy executions; ICB's first bug must
           match it *)
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let module E = (val Icb.engine prog) in
        let min_preempt = ref max_int in
        let rec dfs st =
          match E.status st with
          | Engine.Running ->
            List.iter (fun t -> dfs (E.step st t)) (E.enabled st)
          | Engine.Failed _ ->
            min_preempt := min !min_preempt (E.preemptions st)
          | Engine.Terminated | Engine.Deadlock _ -> ()
        in
        dfs (E.initial ());
        match Icb.check prog with
        | Some bug ->
          check Alcotest.int "minimal" !min_preempt
            bug.Sresult.preemptions
        | None -> Alcotest.fail "expected a bug");
    Alcotest.test_case "icb bounded at c-1 misses a c-preemption bug" `Quick
      (fun () ->
        let prog = Icb_models.Workstealing.program
            Icb_models.Workstealing.Bug_unlocked_steal in
        check Alcotest.bool "not at bound 1" true
          (Icb.check prog ~max_bound:1 = None);
        match Icb.check prog ~max_bound:2 with
        | Some b -> check Alcotest.int "found at 2" 2 b.Sresult.preemptions
        | None -> Alcotest.fail "expected the bug at bound 2");
    Alcotest.test_case "executions with c preemptions obey Theorem 1" `Quick
      (fun () ->
        let prog = compile tiny in
        let module E = (val Icb.engine prog) in
        (* count executions per preemption count, and measure n, k, b *)
        let counts = Hashtbl.create 8 in
        let max_k = ref 0 and max_b = ref 0 and max_n = ref 0 in
        let execs = ref 0 in
        let rec dfs st =
          match E.status st with
          | Engine.Running ->
            List.iter (fun t -> dfs (E.step st t)) (E.enabled st)
          | Engine.Terminated | Engine.Deadlock _ | Engine.Failed _ ->
            incr execs;
            max_k := max !max_k (E.depth st);
            max_b := max !max_b (E.blocking_ops st);
            max_n := max !max_n (E.thread_count st);
            let c = E.preemptions st in
            Hashtbl.replace counts c
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
        in
        dfs (E.initial ());
        check Alcotest.bool "searched something" true (!execs > 1);
        Hashtbl.iter
          (fun c observed ->
            let bound =
              Combin.theorem1_bound ~n:!max_n ~k:!max_k ~b:!max_b ~c
            in
            check Alcotest.bool
              (Printf.sprintf "count(%d)=%d within bound %s" c observed
                 (Bignat.to_string bound))
              true
              (Bignat.compare (Bignat.of_int observed) bound <= 0))
          counts);
    Alcotest.test_case "icb without cache enumerates each execution once"
      `Quick (fun () ->
        (* on a two-step two-thread program the executions are exactly the
           interleavings: count them against the closed form *)
        let prog =
          compile
            {|
volatile var a: int; volatile var b: int;
proc w1() { a = 1; a = 2; }
proc w2() { b = 1; b = 2; }
main { spawn w1(); spawn w2(); }
|}
        in
        let r =
          Icb.run ~strategy:(Explore.Icb { max_bound = None; cache = false })
            prog
        in
        check Alcotest.bool "complete" true r.Sresult.complete;
        (* main: 2 spawn steps then halt-step; workers 2 steps each.
           every maximal execution is counted exactly once; just sanity
           bound it by the total interleaving count of the 2x2 core *)
        check Alcotest.bool "at least the 6 core interleavings" true
          (r.executions >= 6));
  ]

(* --- collector, limits, replay ------------------------------------------ *)

let infra_tests =
  [
    Alcotest.test_case "stop at first bug" `Quick (fun () ->
        let options =
          { Collector.default_options with stop_at_first_bug = true }
        in
        let r =
          Icb.run ~options
            ~strategy:(Explore.Icb { max_bound = None; cache = false })
            (Icb_models.Bluetooth.program ~bug:true)
        in
        check Alcotest.int "one bug" 1 (List.length r.Sresult.bugs);
        check Alcotest.bool "not complete" true (not r.complete));
    Alcotest.test_case "max_states stops the search" `Quick (fun () ->
        let options =
          { Collector.default_options with max_states = Some 10 }
        in
        let r =
          Icb.run ~options ~strategy:(Explore.Dfs { cache = false })
            (Icb_models.Workstealing.program Icb_models.Workstealing.Correct)
        in
        check Alcotest.bool "stopped early" true (not r.Sresult.complete);
        check Alcotest.bool "around the limit" true (r.distinct_states <= 11));
    Alcotest.test_case "deadlock_is_error can be disabled" `Quick (fun () ->
        let prog =
          compile {|
event e;
main { wait(e); }
|}
        in
        let options =
          { Collector.default_options with deadlock_is_error = false }
        in
        let r =
          Icb.run ~options
            ~strategy:(Explore.Icb { max_bound = None; cache = false })
            prog
        in
        check Alcotest.int "no bug" 0 (List.length r.Sresult.bugs);
        let r2 =
          Icb.run ~strategy:(Explore.Icb { max_bound = None; cache = false })
            prog
        in
        check Alcotest.int "bug by default" 1 (List.length r2.Sresult.bugs));
    Alcotest.test_case "replay reproduces the bug" `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        match Icb.check prog with
        | None -> Alcotest.fail "expected a bug"
        | Some bug ->
          let module E = (val Icb.engine prog) in
          let final = Explore.replay (module E) bug.Sresult.schedule in
          (match E.status final with
          | Engine.Failed { key; _ } ->
            check Alcotest.string "same bug" bug.key key
          | _ -> Alcotest.fail "replay did not fail");
          check Alcotest.int "same preemption count" bug.preemptions
            (E.preemptions final));
    Alcotest.test_case "replay rejects bogus schedules" `Quick (fun () ->
        let prog = compile tiny in
        let module E = (val Icb.engine prog) in
        match Explore.replay (module E) [ 7 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "growth curve is consistent" `Quick (fun () ->
        let r =
          Icb.run ~strategy:(Explore.Dfs { cache = false })
            (Icb_models.Bluetooth.program ~bug:false)
        in
        let g = r.Sresult.growth in
        check Alcotest.int "one point per execution" r.executions
          (Array.length g);
        Array.iteri
          (fun i (e, n) ->
            check Alcotest.int "execution index" (i + 1) e;
            if i > 0 then
              check Alcotest.bool "states non-decreasing" true
                (n >= snd g.(i - 1)))
          g);
  ]

(* --- configurations ------------------------------------------------------- *)

let config_tests =
  [
    Alcotest.test_case "zing and chess configs find the same bluetooth bug"
      `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:true in
        let find config =
          match Icb.check ~config prog with
          | Some b -> (b.Sresult.key, b.preemptions)
          | None -> ("none", -1)
        in
        let k1, c1 = find Icb_search.Mach_engine.zing_config in
        let k2, c2 = find Icb_search.Mach_engine.chess_config in
        check Alcotest.string "same key" k1 k2;
        check Alcotest.int "same bound" c1 c2);
    Alcotest.test_case "sync-only explores far fewer states than every-access"
      `Quick (fun () ->
        let prog = Icb_models.Bluetooth.program ~bug:false in
        let states config =
          (Icb.run ~config ~strategy:(Explore.Dfs { cache = true }) prog)
            .Sresult.distinct_states
        in
        let fine = states Icb_search.Mach_engine.zing_config in
        let coarse = states Icb_search.Mach_engine.default_config in
        check Alcotest.bool
          (Printf.sprintf "reduction works (%d < %d)" coarse fine)
          true (coarse < fine));
    Alcotest.test_case "hb signatures never exceed canonical states" `Quick
      (fun () ->
        let prog = Icb_models.Filesystem.program ~threads:2 in
        let states signature_mode =
          let config =
            { Icb_search.Mach_engine.default_config with signature_mode }
          in
          (Icb.run ~config ~strategy:(Explore.Dfs { cache = false }) prog)
            .Sresult.distinct_states
        in
        check Alcotest.bool "hb <= canonical" true
          (states Icb_search.Mach_engine.Hb_signature
          <= states Icb_search.Mach_engine.Canonical_state));
    Alcotest.test_case "each engine config's exact coverage" `Quick
      (fun () ->
        (* pinned at bound 2 on the correct Bluetooth model: a change to
           what a config fingerprints or how it steps shows here *)
        let prog = Icb_models.Bluetooth.program ~bug:false in
        List.iter
          (fun (name, config, states, executions, steps) ->
            let r =
              Icb.run ~config
                ~strategy:(Explore.Icb { max_bound = Some 2; cache = false })
                prog
            in
            check Alcotest.int (name ^ " states") states
              r.Sresult.distinct_states;
            check Alcotest.int (name ^ " executions") executions r.executions;
            check Alcotest.int (name ^ " steps") steps r.total_steps)
          [
            ("default", Icb_search.Mach_engine.default_config, 56, 33, 252);
            ("chess", Icb_search.Mach_engine.chess_config, 60, 33, 252);
            ("zing", Icb_search.Mach_engine.zing_config, 89, 55, 686);
          ]);
  ]

(* --- partial-order reduction and the extension strategies ---------------- *)

let extension_tests =
  [
    Alcotest.test_case "sleep sets preserve the reachable state set" `Quick
      (fun () ->
        List.iter
          (fun prog ->
            let dfs = Icb.run prog ~strategy:(Explore.Dfs { cache = false }) in
            let sleep = Icb.run prog ~strategy:Explore.Sleep_dfs in
            check Alcotest.int "same states" dfs.Sresult.distinct_states
              sleep.Sresult.distinct_states;
            check Alcotest.bool
              (Printf.sprintf "fewer executions (%d <= %d)" sleep.executions
                 dfs.executions)
              true
              (sleep.executions <= dfs.executions))
          [
            Icb.compile tiny;
            Icb_models.Bluetooth.program ~bug:false;
            Icb_models.Filesystem.program ~threads:2;
          ]);
    Alcotest.test_case "sleep sets keep finding every model bug" `Slow
      (fun () ->
        List.iter
          (fun (e : Icb_models.Registry.entry) ->
            List.iter
              (fun (b : Icb_models.Registry.bug_spec) ->
                let r =
                  Icb.run (b.bug_program ()) ~strategy:Explore.Sleep_dfs
                    ~options:
                      {
                        Collector.default_options with
                        stop_at_first_bug = true;
                      }
                in
                check Alcotest.bool
                  (e.model_name ^ "/" ^ b.bug_name ^ " found")
                  true
                  (r.Sresult.bugs <> []))
              e.bugs)
          Icb_models.Registry.all);
    Alcotest.test_case "sleep sets on yield-heavy programs stay exact" `Quick
      (fun () ->
        (* yields pin steps in the footprint; this program interleaves
           yields with independent work, a natural trap for unsound
           commutation *)
        let prog =
          Icb.compile
            {|
var a: int; var b: int;
proc w1() { a = 1; yield; a = 2; }
proc w2() { b = 1; yield; b = 2; }
main { spawn w1(); spawn w2(); }
|}
        in
        let dfs = Icb.run prog ~strategy:(Explore.Dfs { cache = false }) in
        let sleep = Icb.run prog ~strategy:Explore.Sleep_dfs in
        check Alcotest.int "same states" dfs.Sresult.distinct_states
          sleep.Sresult.distinct_states);
    Alcotest.test_case "pct finds the bluetooth bug" `Quick (fun () ->
        let options =
          {
            Collector.default_options with
            max_executions = Some 5000;
            stop_at_first_bug = true;
          }
        in
        let r =
          Icb.run ~options
            ~strategy:(Explore.Pct { change_points = 2; seed = 7L })
            (Icb_models.Bluetooth.program ~bug:true)
        in
        check Alcotest.bool "found" true (r.Sresult.bugs <> []));
    Alcotest.test_case "pct is deterministic per seed" `Quick (fun () ->
        let options =
          { Collector.default_options with max_executions = Some 50 }
        in
        let run () =
          (Icb.run ~options
             ~strategy:(Explore.Pct { change_points = 3; seed = 11L })
             (Icb_models.Bluetooth.program ~bug:false))
            .Sresult.distinct_states
        in
        check Alcotest.int "same" (run ()) (run ()));
    Alcotest.test_case "most-enabled completes and agrees with dfs" `Quick
      (fun () ->
        List.iter
          (fun prog ->
            let dfs = Icb.run prog ~strategy:(Explore.Dfs { cache = true }) in
            let me =
              Icb.run prog ~strategy:(Explore.Most_enabled { cache = true })
            in
            check Alcotest.int "same states" dfs.Sresult.distinct_states
              me.Sresult.distinct_states;
            check Alcotest.bool "complete" true me.complete)
          [
            Icb.compile tiny;
            Icb_models.Bluetooth.program ~bug:false;
          ]);
    Alcotest.test_case "footprints: independent steps commute" `Quick
      (fun () ->
        let prog =
          Icb.compile
            {|
mutex m1; mutex m2;
proc w1() { lock(m1); unlock(m1); }
proc w2() { lock(m2); unlock(m2); }
main { spawn w1(); spawn w2(); }
|}
        in
        let module E = (val Icb.engine prog) in
        (* drive past the spawns so both workers are parked at their locks *)
        let st = E.step (E.step (E.initial ()) 0) 0 in
        let fp1 = E.step_footprint st 1 in
        let fp2 = E.step_footprint st 2 in
        check Alcotest.bool "locks on distinct mutexes are independent" true
          (Icb_search.Engine.Footprint.independent fp1 fp2);
        (* and the states actually commute *)
        let a = E.step (E.step st 1) 2 in
        let b = E.step (E.step st 2) 1 in
        check Alcotest.int64 "commuting square" (E.signature a) (E.signature b));
    Alcotest.test_case "footprints: conflicting steps are dependent" `Quick
      (fun () ->
        let prog =
          Icb.compile
            {|
mutex m;
proc w1() { lock(m); unlock(m); }
proc w2() { lock(m); unlock(m); }
main { spawn w1(); spawn w2(); }
|}
        in
        let module E = (val Icb.engine prog) in
        let st = E.step (E.step (E.initial ()) 0) 0 in
        let fp1 = E.step_footprint st 1 in
        let fp2 = E.step_footprint st 2 in
        check Alcotest.bool "same mutex is dependent" false
          (Icb_search.Engine.Footprint.independent fp1 fp2));
  ]

(* --- every known bug, across strategies ---------------------------------- *)

(* The property behind the paper's Table 2, generalized: every bug in the
   registry is found by ICB within its expected bound, by plain DFS, and
   by a seeded random walk — and ICB's witness schedule replays straight
   into the same failure. *)
let cross_strategy_tests =
  [
    Alcotest.test_case "every registry bug: icb, dfs and random walk find it"
      `Slow (fun () ->
        List.iter
          (fun (e : Icb_models.Registry.entry) ->
            List.iter
              (fun (b : Icb_models.Registry.bug_spec) ->
                let name = e.model_name ^ "/" ^ b.bug_name in
                let prog = b.bug_program () in
                let first =
                  {
                    Collector.default_options with
                    stop_at_first_bug = true;
                  }
                in
                let bound = max 3 b.expected_bound in
                let icb =
                  Icb.run ~options:first
                    ~strategy:
                      (Explore.Icb { max_bound = Some bound; cache = false })
                    prog
                in
                check Alcotest.bool
                  (Printf.sprintf "%s: icb finds a bug within bound %d" name
                     bound)
                  true (icb.Sresult.bugs <> []);
                let dfs =
                  Icb.run
                    ~options:{ first with max_executions = Some 200_000 }
                    ~strategy:(Explore.Dfs { cache = true })
                    prog
                in
                check Alcotest.bool (name ^ ": dfs finds a bug") true
                  (dfs.Sresult.bugs <> []);
                let rw =
                  Icb.run
                    ~options:{ first with max_executions = Some 50_000 }
                    ~strategy:(Explore.Random_walk { seed = 2007L })
                    prog
                in
                check Alcotest.bool (name ^ ": random walk finds a bug") true
                  (rw.Sresult.bugs <> []);
                (* the ICB witness is not just a claim: replaying its
                   schedule reproduces the very same failure *)
                let bug = List.hd icb.Sresult.bugs in
                let module E = (val Icb.engine prog) in
                let final = Explore.replay (module E) bug.Sresult.schedule in
                let replayed =
                  match E.status final with
                  | Engine.Failed { key; _ } -> key
                  | Engine.Deadlock _ -> "deadlock"
                  | Engine.Terminated | Engine.Running -> "no-failure"
                in
                check Alcotest.string
                  (name ^ ": witness replays to the same failure")
                  bug.Sresult.key replayed)
              e.bugs)
          Icb_models.Registry.all);
    Alcotest.test_case
      "replay determinism: every witness replays with identical measurements"
      `Slow (fun () ->
        (* The repro subsystem (minimization, bundle verification, triage
           fingerprints) rests on this property: a bug's recorded schedule
           replayed on a fresh engine ends exactly at the failure and the
           engine's own counters agree with what the collector recorded —
           for every registry model and every strategy that found it. *)
        List.iter
          (fun (e : Icb_models.Registry.entry) ->
            List.iter
              (fun (b : Icb_models.Registry.bug_spec) ->
                let name = e.model_name ^ "/" ^ b.bug_name in
                let prog = b.bug_program () in
                (* Every registered strategy family, not a hand list: a
                   new strategy registered in [Explore.registry] is held
                   to this property automatically.  No bug found under
                   the caps is fine — the property quantifies over found
                   bugs.  The total-steps cap is what actually bounds
                   the sweep: best-first strategies can grow a frontier
                   of millions of internal states while completing few
                   executions, so an execution cap alone bounds neither
                   time nor memory. *)
                let options =
                  {
                    Collector.default_options with
                    stop_at_first_bug = true;
                    max_executions = Some 20_000;
                    max_total_steps = Some 200_000;
                  }
                in
                List.iter
                  (fun (reg : Explore.registered) ->
                    let sname = reg.Explore.reg_name in
                    let strategy = reg.Explore.reg_strategy in
                    let r = Icb.run ~options ~strategy prog in
                    List.iter
                      (fun (bug : Sresult.bug) ->
                        let here what =
                          Printf.sprintf "%s/%s/%s: %s" name sname
                            bug.Sresult.key what
                        in
                        let module E = (val Icb.engine prog) in
                        let final, rest =
                          Explore.replay_prefix (module E) bug.schedule
                        in
                        check
                          (Alcotest.list Alcotest.int)
                          (here "schedule ends at the failure") [] rest;
                        let replayed =
                          match E.status final with
                          | Engine.Failed { key; _ } -> key
                          | Engine.Deadlock _ -> "deadlock"
                          | Engine.Terminated | Engine.Running -> "no-failure"
                        in
                        check Alcotest.string (here "key") bug.key replayed;
                        check Alcotest.int (here "preemptions")
                          bug.preemptions (E.preemptions final);
                        check Alcotest.int (here "depth") bug.depth
                          (E.depth final);
                        check Alcotest.int (here "context switches")
                          bug.context_switches
                          (Icb_repro.Sched.count_switches (E.schedule final)))
                      r.Sresult.bugs)
                  (Explore.registry ()))
              e.bugs)
          Icb_models.Registry.all);
  ]

(* --- strategy spelling: every rejection says why -------------------------- *)

let parse_reject_tests =
  let seed = 2007L in
  let rejects input expected =
    Alcotest.test_case (Printf.sprintf "rejects %S" input) `Quick (fun () ->
        match Explore.parse_strategy ~seed input with
        | Ok _ -> Alcotest.failf "%S unexpectedly parsed" input
        | Error msg -> Alcotest.check Alcotest.string "message" expected msg)
  in
  let accepted =
    "icb, icb:N (N>=0), dfs, db:N (N>=1), idfs:N (N>=1), random, sleep, \
     pct:N (N>=1), most-enabled, vb:N (N>=1), tb:N (N>=1), icb-vb:N (N>=1)"
  in
  let unknown input =
    rejects input
      (Printf.sprintf "bad strategy: %s (accepted: %s)" input accepted)
  in
  let out_of_range input form min_n got =
    rejects input
      (Printf.sprintf "bad strategy: %s — %s takes N>=%d, got %d" input form
         min_n got)
  in
  [
    (* malformed: not a known form at all *)
    unknown "bogus";
    unknown "icb:x";
    unknown "vb:";
    unknown "icb-vb:two";
    (* well-formed number outside its range: the error names the range,
       never just "bad strategy" *)
    out_of_range "icb:-1" "icb:N" 0 (-1);
    out_of_range "db:0" "db:N" 1 0;
    out_of_range "idfs:0" "idfs:N" 1 0;
    out_of_range "pct:0" "pct:N" 1 0;
    out_of_range "vb:0" "vb:N" 1 0;
    out_of_range "tb:0" "tb:N" 1 0;
    out_of_range "icb-vb:0" "icb-vb:N" 1 0;
    (* the accepted list itself is rendered from [strategy_forms], so the
       round-trip of every listed base form must parse *)
    Alcotest.test_case "every listed form parses at its minimum" `Quick
      (fun () ->
        List.iter
          (fun (form, _, range) ->
            let spelling =
              match range with
              | None -> form
              | Some r ->
                let min_n =
                  Scanf.sscanf r "N>=%d" (fun n -> n)
                in
                (* "vb:N" -> "vb:<min>" *)
                String.sub form 0 (String.length form - 1)
                ^ string_of_int min_n
            in
            match Explore.parse_strategy ~seed spelling with
            | Ok _ -> ()
            | Error msg ->
              Alcotest.failf "%S (from listed form %S) rejected: %s" spelling
                form msg)
          Explore.strategy_forms);
  ]

let () =
  Alcotest.run "search"
    [
      ("strategies", strategy_tests);
      ("icb", icb_tests);
      ("infra", infra_tests);
      ("config", config_tests);
      ("extensions", extension_tests);
      ("cross-strategy", cross_strategy_tests);
      ("strategy-parse", parse_reject_tests);
    ]
