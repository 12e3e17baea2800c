(* The unified driver's frontier contract: the serial item order pinned
   per strategy, work-item prefixes that sort like their schedules, a
   Bounded checkpoint extended to the next bound, and checkpoints
   written in the older v2 and v3 formats still loading and continuing.
   Kill and resume for every strategy on every runner is
   test_conformance's interrupted cells. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult

open Harness

let opts lim = { Collector.default_options with Collector.max_executions = lim }

(* --- v2 checkpoint read-compat ------------------------------------------- *)

(* Committed fixtures written by the pre-v3 checkpoint code (see
   test/fixtures/): an ICB run and a random walk over the peterson bug
   model, both interrupted mid-search. *)
let v2_compat_tests =
  [
    Alcotest.test_case "a v2 ICB checkpoint resumes to the full result"
      `Quick (fun () ->
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        let fresh =
          Icb.run
            ~strategy:(Explore.Icb { max_bound = Some 4; cache = false })
            prog
        in
        let resume domains =
          Icb.resume ~domains prog (Checkpoint.load (fixture "v2-icb.ckpt"))
        in
        List.iter
          (fun domains ->
            let r = resume domains in
            check Alcotest.string "same strategy" fresh.Sresult.strategy
              r.Sresult.strategy;
            check Alcotest.bool "same completion" fresh.Sresult.complete
              r.Sresult.complete;
            check (Alcotest.list Alcotest.string) "same bug set"
              (bug_keys fresh) (bug_keys r);
            check Alcotest.int "same states" fresh.Sresult.distinct_states
              r.Sresult.distinct_states)
          [ 1; 2 ])
    ;
    Alcotest.test_case "a v2 random-walk checkpoint resumes its walk index"
      `Quick (fun () ->
        (* v2 random-walk frontiers carry no walk index: the strategy
           re-positions itself off the restored execution counter (25
           executions in the fixture) and continues from walk 25 *)
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        let r =
          Icb.resume ~options:(opts (Some 60)) prog
            (Checkpoint.load (fixture "v2-random.ckpt"))
        in
        check Alcotest.string "random strategy" "random" r.Sresult.strategy;
        check Alcotest.int "continues to the execution limit" 60
          r.Sresult.executions;
        check Alcotest.bool "interrupted, not complete" false
          r.Sresult.complete;
        check Alcotest.bool "execution-limit stop reason" true
          (r.Sresult.stop_reason = Some Sresult.Execution_limit);
        check Alcotest.bool "made progress past the fixture" true
          (r.Sresult.distinct_states > 0))
    ;
  ]

(* --- v3 string-param round-trip ------------------------------------------- *)

(* A committed v3 checkpoint of a vb:2 run killed mid-search (3 of 6
   executions on the peterson bug model, written by the CLI — which
   defaults the state cache on).  Exercises the sealed-space bounds'
   string params: the ranked variable keys are restored from the
   checkpoint, so resuming needs no Strategy.env. *)
let v3_fixture_tests =
  [
    Alcotest.test_case "a v3 vb checkpoint carries and round-trips its params"
      `Quick (fun () ->
        let ck = Checkpoint.load (fixture "v3-vb.ckpt") in
        check Alcotest.string "strategy name" "vb:2" ck.Checkpoint.strategy;
        let v3 = Checkpoint.to_v3 ck in
        check Alcotest.string "v3 tag" "vb" v3.Checkpoint.v3_tag;
        let param k = List.assoc_opt k v3.Checkpoint.v3_params in
        check (Alcotest.option Alcotest.string) "n param" (Some "2")
          (param "n");
        check Alcotest.bool "vars param present (ranked keys travel)" true
          (match param "vars" with Some v -> v <> "" | None -> false);
        check Alcotest.bool "sealed param present" true (param "sealed" <> None);
        (* save/load preserves every v3 field bit-for-bit (modulo the
           nondeterministic timing params, which save re-stamps) *)
        let path = tmp_ckpt () in
        Checkpoint.save ~path ck;
        let ck' = Checkpoint.load path in
        Sys.remove path;
        let v3' = Checkpoint.to_v3 ck' in
        let strip ps =
          List.filter
            (fun (k, _) ->
              k <> Checkpoint.elapsed_key && k <> Checkpoint.bound_times_key)
            ps
        in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "params survive the round-trip"
          (strip v3.Checkpoint.v3_params)
          (strip v3'.Checkpoint.v3_params);
        check Alcotest.int "round survives" v3.Checkpoint.v3_round
          v3'.Checkpoint.v3_round;
        check Alcotest.int "work survives"
          (List.length v3.Checkpoint.v3_work)
          (List.length v3'.Checkpoint.v3_work);
        check Alcotest.int "deferred survives"
          (List.length v3.Checkpoint.v3_next)
          (List.length v3'.Checkpoint.v3_next))
    ;
    Alcotest.test_case "a v3 vb checkpoint resumes to the full result"
      `Quick (fun () ->
        let prog =
          Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
        in
        (* the fixture was written by the CLI, whose parsed vb:2 has the
           state cache on — match it for a comparable fresh run *)
        let fresh =
          Icb.run
            ~strategy:(Explore.Variable_bound { n = 2; cache = true })
            prog
        in
        List.iter
          (fun domains ->
            let r =
              Icb.resume ~domains prog
                (Checkpoint.load (fixture "v3-vb.ckpt"))
            in
            check Alcotest.string "same strategy" fresh.Sresult.strategy
              r.Sresult.strategy;
            check (Alcotest.list Alcotest.string) "same bug set"
              (bug_keys fresh) (bug_keys r);
            check Alcotest.int "same states" fresh.Sresult.distinct_states
              r.Sresult.distinct_states;
            check Alcotest.bool "naturally terminated" true
              (r.Sresult.stop_reason = None))
          [ 1; 2 ])
    ;
  ]

(* --- the serial item order ------------------------------------------------ *)

(* The order in which the serial runner takes a round's items, pinned per
   strategy as one digest over both buggy models and three execution
   caps: the capped run's growth and per-bound curves, the frontier its
   checkpoint holds (timing params stripped), and the result of resuming
   that checkpoint for 700 more executions.  A cap of 2 stops ICB at the
   end of an item that has already deferred work, which the checkpoint
   must list once.  Bug witnesses stay out, since
   a lesser witness found later may replace one; each bug's key and
   discovery stamp are in.  The strategies are the registry's plus the
   state-cached forms, whose caches change which items are queued. *)
let order_strategies =
  List.map
    (fun (r : Explore.registered) -> (r.Explore.reg_name, r.Explore.reg_strategy))
    (Explore.registry ~seed:11L ())
  @ [
      ("icb, cached", Explore.Icb { max_bound = None; cache = true });
      ("dfs, cached", Explore.Dfs { cache = true });
      ("most-enabled, cached", Explore.Most_enabled { cache = true });
      ("vb:2, cached", Explore.Variable_bound { n = 2; cache = true });
      ("tb:2, cached", Explore.Thread_bound { n = 2; cache = true });
    ]

let order_digest strategy =
  let module Fnv = Icb_util.Fnv in
  let h = ref Fnv.basis in
  let int n = h := Fnv.int !h n in
  let str s = h := Fnv.string !h s in
  (* -1 closes a list, -2 a schedule *)
  let pairs a =
    Array.iter (fun (x, y) -> int x; int y) a;
    int (-1)
  in
  let prefixes l =
    List.iter
      (fun (sched, payload) ->
        List.iter int sched;
        int (-2);
        int payload)
      l;
    int (-1)
  in
  let result (r : Sresult.t) =
    List.iter int [ r.executions; r.distinct_states; r.total_steps ];
    str (string_of_bool r.complete);
    str (Option.fold ~none:"-" ~some:Sresult.stop_reason_string r.stop_reason);
    pairs r.growth;
    pairs r.bound_coverage;
    pairs r.bound_executions;
    List.iter
      (fun (b : Sresult.bug) ->
        str b.key;
        int b.execution)
      r.bugs
  in
  List.iter
    (fun prog ->
      let env = Icb_search.Strategy.env_of_prog prog in
      let module S = (val Explore.instantiate (Icb.engine prog) strategy) in
      List.iter
        (fun cap ->
          let path = tmp_ckpt () in
          let checkpoint_out = if S.checkpointable then Some path else None in
          let r =
            Explore.run (Icb.engine prog) ~options:(opts (Some cap)) ~env
              ?checkpoint_out ~checkpoint_every:max_int strategy
          in
          result r;
          if S.checkpointable then begin
            let ck = Checkpoint.load path in
            let f = Checkpoint.to_v3 ck in
            List.iter
              (fun (k, v) ->
                if k <> Checkpoint.elapsed_key && k <> Checkpoint.bound_times_key
                then (str k; str v))
              f.Checkpoint.v3_params;
            int f.Checkpoint.v3_round;
            prefixes f.Checkpoint.v3_work;
            prefixes f.Checkpoint.v3_next;
            result
              (Explore.resume (Icb.engine prog)
                 ~options:(opts (Some (r.Sresult.executions + 700)))
                 ck)
          end;
          Sys.remove path)
        [ 2; 37; 800 ])
    [
      Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set;
      Icb_models.Bluetooth.program ~bug:true;
    ];
  Fnv.to_hex !h

let order_pins =
  [
    ("icb", "fceeee6bda5f4105");
    ("dfs", "e431d2a6861f4fdf");
    ("db:40", "ae56c924215bffe1");
    ("idfs:48", "b881eb25e74ccf2a");
    ("random", "6528ee0878f98f94");
    ("sleep-dfs", "479123028e38da32");
    ("pct:3", "630f2960129ddf04");
    ("most-enabled", "eea09a551936d371");
    ("vb:2", "12cc4e45f9e04761");
    ("tb:2", "ccef04065c24030d");
    ("icb-vb:2", "63b3c2177419a312");
    ("icb, cached", "16b80c000b6be82b");
    ("dfs, cached", "4fed65ade9bd0474");
    ("most-enabled, cached", "791174ce2a9c9f50");
    ("vb:2, cached", "2f0f00d5426816d6");
    ("tb:2, cached", "30d6ccd62f0e57ef");
  ]

let order_tests =
  [
    Alcotest.test_case "the serial item order is pinned for every strategy"
      `Quick (fun () ->
        check
          Alcotest.(list (pair string string))
          "a digest per strategy" order_pins
          (List.map
             (fun (name, strategy) -> (name, order_digest strategy))
             order_strategies));
  ]

(* --- work-item prefixes ------------------------------------------------ *)

module Strategy = Icb_search.Strategy

(* Random frontiers shaped like a search's: each prefix extends an
   earlier one (or the root) by up to three steps, sharing its tail the
   way a state's trail shares its parent's, or as a fresh copy; some
   extensions are empty, so equal prefixes carry different payloads.
   [form] makes each prefix a trail, a read schedule, or either. *)
let frontier form =
  let op =
    QCheck.Gen.(
      quad (int_bound 40) (list_size (int_bound 3) (int_bound 2))
        (int_bound 2) (pair bool bool))
  in
  let build ops =
    let made = ref [ [] ] in
    List.map
      (fun (parent, ext, payload, (copy, sched)) ->
        let base = List.nth !made (parent mod List.length !made) in
        let trail = List.fold_left (fun acc t -> t :: acc) base ext in
        let trail = if copy then List.map Fun.id trail else trail in
        made := !made @ [ trail ];
        let sched =
          match form with `Trails -> false | `Scheds -> true | `Mixed -> sched
        in
        {
          Strategy.i_sched =
            (if sched then Strategy.Sched (List.rev trail)
             else Strategy.Trail trail);
          i_payload = payload;
          i_state = None;
          i_witness = Strategy.no_witness;
        })
      ops
  in
  QCheck.make
    ~print:(fun its ->
      String.concat "; "
        (List.map
           (fun (it : unit Strategy.item) ->
             Printf.sprintf "%s[%s]/%d"
               (match it.Strategy.i_sched with
               | Strategy.Trail _ -> "T"
               | Strategy.Sched _ -> "S")
               (String.concat " "
                  (List.map string_of_int
                     (Strategy.schedule_of it.Strategy.i_sched)))
               it.Strategy.i_payload)
           its))
    QCheck.Gen.(map build (list_size (int_range 1 30) op))

let prefix_order form name =
  QCheck.Test.make ~count:300 ~name (frontier form) (fun its ->
      let sign c = compare c 0 in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if
                sign (Strategy.compare_items a b)
                <> sign (compare (Strategy.prefix_of a) (Strategy.prefix_of b))
              then QCheck.Test.fail_report "a pair orders differently")
            its)
        its;
      List.map Strategy.prefix_of (List.sort Strategy.compare_items its)
      = List.sort compare (List.map Strategy.prefix_of its))

(* The final checkpoint of an ICB search that reached its last bound
   holds that bound's deferrals, which kept no state: resuming it with a
   higher bound must explore exactly what a direct run to that bound
   does. *)
let next_bound () =
  let prog = Icb_models.Transaction.program Icb_models.Transaction.Correct in
  let icb b = Explore.Icb { max_bound = Some b; cache = false } in
  let path = tmp_ckpt () in
  let r2 = Icb.run ~checkpoint_out:path ~strategy:(icb 2) prog in
  check Alcotest.int "icb:2 executions" 423 r2.Sresult.executions;
  let per_bound = Alcotest.(list (pair int int)) in
  check Alcotest.bool "icb:2 is not complete" false r2.Sresult.complete;
  let ck = Checkpoint.load path in
  Sys.remove path;
  let f = Checkpoint.to_v3 ck in
  check Alcotest.int "no work left" 0 (List.length f.Checkpoint.v3_work);
  check Alcotest.int "deferred prefixes" 1675
    (List.length f.Checkpoint.v3_next);
  let raised =
    {
      ck with
      Checkpoint.frontier =
        Checkpoint.V3
          {
            f with
            Checkpoint.v3_params =
              List.map
                (fun (k, v) -> if k = "max_bound" then (k, "3") else (k, v))
                f.Checkpoint.v3_params;
          };
    }
  in
  let resumed = Icb.resume prog raised in
  let direct = Icb.run ~strategy:(icb 3) prog in
  List.iter
    (fun (what, (r : Sresult.t)) ->
      check
        Alcotest.(triple int int int)
        (what ^ ": executions, states, steps")
        (2628, 479, 24664)
        Sresult.(r.executions, r.distinct_states, r.total_steps);
      check per_bound (what ^ ": executions per bound")
        [ (0, 3); (1, 48); (2, 423); (3, 2628) ]
        (bexec r))
    [ ("resumed", resumed); ("direct", direct) ]

let prefix_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prefix_order `Trails "trails sort like their schedules";
      prefix_order `Scheds "read schedules sort like their schedules";
      prefix_order `Mixed "a mix of trails and schedules sorts like both";
    ]
  @ [
      Alcotest.test_case "a Bounded ICB checkpoint extends to the next bound"
        `Quick next_bound;
    ]

let () =
  Alcotest.run "frontier"
    [
      ("kill-resume", order_tests);
      ("prefixes", prefix_tests);
      ("v2-compat", v2_compat_tests);
      ("v3-fixture", v3_fixture_tests);
    ]
