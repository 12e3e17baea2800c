(* The unified driver's frontier contract, strategy by strategy: a run
   killed mid-search and resumed from its checkpoint — serially or
   sharded across domains — must reach the same outcome as an
   uninterrupted run, and checkpoints written in the older v2 format
   must still load and continue. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine

let check = Alcotest.check
let tmp_ckpt () = Filename.temp_file "icb-frontier" ".ckpt"
let schedules = Alcotest.list (Alcotest.list Alcotest.int)

let bug_keys (r : Sresult.t) =
  List.sort_uniq String.compare
    (List.map (fun (b : Sresult.bug) -> b.Sresult.key) r.Sresult.bugs)

let subset small big = List.for_all (fun k -> List.mem k big) small

(* Multiset inclusion over sorted lists: every schedule occurs in [big]
   at least as often as in [small]. *)
let rec multiset_le small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: bg ->
    let c = compare a b in
    if c = 0 then multiset_le s bg
    else if c > 0 then multiset_le small bg
    else false

let opts lim = { Collector.default_options with Collector.max_executions = lim }

(* The machine engine wrapped so every completed execution's schedule
   lands on a shared tape (same idiom as test_parallel): the tape is the
   exact multiset of executions a run explored, which is what
   kill/resume must preserve. *)
let recording_engine prog tape :
    (module Engine.S
       with type state = Icb_search.Mach_engine.state * int list) =
  let module Base = (val Icb.engine prog) in
  let m = Mutex.create () in
  (module struct
    type state = Base.state * int list (* reversed schedule *)

    let initial () = (Base.initial (), [])
    let enabled (s, _) = Base.enabled s
    let status (s, _) = Base.status s
    let signature (s, _) = Base.signature s
    let depth (s, _) = Base.depth s
    let blocking_ops (s, _) = Base.blocking_ops s
    let preemptions (s, _) = Base.preemptions s
    let schedule (s, _) = Base.schedule s
    let trail (s, _) = Base.trail s
    let thread_count (s, _) = Base.thread_count s
    let step_footprint (s, _) t = Base.step_footprint s t

    (* the pair is as persistent as the underlying machine state, so the
       wrapper keeps the snapshot capability *)
    type snap = state

    let snapshot = Some (fun (s : state) -> s)
    let restore (s : snap) = s

    let step (s, sched) t =
      let s' = Base.step s t in
      let sched' = t :: sched in
      (if Engine.is_terminal (Base.status s') then begin
         Mutex.lock m;
         tape := List.rev sched' :: !tape;
         Mutex.unlock m
       end);
      (s', sched')
  end)

let sorted tape = List.sort compare !tape

(* --- kill / resume, for every checkpointable strategy --------------------- *)

type case = {
  c_name : string;
  c_strategy : Explore.strategy;
  c_horizon : int option;
      (* execution cap standing in for "to completion" when the strategy
         has no natural end on this model (the randomized walkers) *)
  c_exact : bool;
      (* atomic-item strategies resume exactly: the kill+resume tape is
         the uninterrupted run's execution multiset.  ICB, most-enabled
         and the sealed-space bounds conservatively re-run the
         interrupted item, so for them only the de-duplicated schedule
         set is invariant. *)
  c_shardable : bool; (* also resume the same checkpoint with --jobs 2 *)
}

(* Derived from the strategy registry, so a newly registered strategy is
   covered by this suite automatically — the hand-maintained list this
   replaces silently missed additions.  The capability flags are the
   instance's own. *)
let cases =
  let prog =
    Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
  in
  List.filter_map
    (fun (r : Explore.registered) ->
      let module S =
        (val Explore.instantiate (Icb.engine prog) r.Explore.reg_strategy)
      in
      if not S.checkpointable then None
      else
        Some
          {
            c_name = r.Explore.reg_name;
            c_strategy = r.Explore.reg_strategy;
            c_horizon = (if r.Explore.reg_bounded then Some 400 else None);
            c_exact = S.atomic_items;
            c_shardable = S.shardable;
          })
    (Explore.registry ~seed:11L ())

let kill_resume_case c () =
  let prog =
    Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set
  in
  let msg s = Printf.sprintf "%s: %s" c.c_name s in
  (* vb/icb-vb consume the program's shared-variable ranking.  Fresh runs
     get it explicitly; the resumes below deliberately do NOT, exercising
     the checkpoint's authoritative restoration of the ranked keys. *)
  let env = Icb_search.Strategy.env_of_prog prog in
  (* uninterrupted reference run *)
  let full_tape = ref [] in
  let full =
    Explore.run
      (recording_engine prog full_tape)
      ~options:(opts c.c_horizon) ~env c.c_strategy
  in
  (match c.c_horizon with
  | Some h -> check Alcotest.int (msg "full run hits its horizon") h
                full.Sresult.executions
  | None ->
    (* naturally terminated: either `Complete or `Bounded (the sealed
       bounds exhaust their subspace without covering everything) — in
       both cases no stop reason is recorded *)
    check Alcotest.bool (msg "full run terminates naturally") true
      (full.Sresult.stop_reason = None));
  (* kill mid-search.  An execution limit is a deterministic stand-in
     for an arbitrary deadline or kill -9: the checkpoint on disk when
     the limit fires is exactly what a killed process leaves behind
     (atomic write-rename), only the interruption point is
     reproducible. *)
  let kill_at =
    max 1
      ((match c.c_horizon with
       | Some h -> h
       | None -> full.Sresult.executions)
      / 2)
  in
  let path = tmp_ckpt () in
  let kill_tape = ref [] in
  let killed =
    Explore.run
      (recording_engine prog kill_tape)
      ~options:(opts (Some kill_at))
      ~checkpoint_out:path ~checkpoint_every:max_int ~env c.c_strategy
  in
  check Alcotest.bool (msg "was interrupted") true
    (killed.Sresult.stop_reason = Some Sresult.Execution_limit);
  (* resume serially to the reference horizon *)
  let t_serial = ref [] in
  let resumed =
    Explore.resume
      (recording_engine prog t_serial)
      ~options:(opts c.c_horizon) (Checkpoint.load path)
  in
  check (Alcotest.list Alcotest.string) (msg "serial resume: same bug set")
    (bug_keys full) (bug_keys resumed);
  check Alcotest.int (msg "serial resume: same states")
    full.Sresult.distinct_states resumed.Sresult.distinct_states;
  check Alcotest.bool (msg "serial resume: same completion")
    full.Sresult.complete resumed.Sresult.complete;
  if c.c_exact then begin
    check Alcotest.int (msg "serial resume: same executions")
      full.Sresult.executions resumed.Sresult.executions;
    check schedules (msg "serial resume: same execution multiset")
      (sorted full_tape)
      (List.sort compare (!kill_tape @ !t_serial))
  end
  else
    (* the interrupted item is conservatively re-queued, so its partial
       subtree may run twice — but nothing outside the uninterrupted
       run's schedule set ever appears, and nothing is missed *)
    check schedules (msg "serial resume: same schedule set")
      (List.sort_uniq compare !full_tape)
      (List.sort_uniq compare (!kill_tape @ !t_serial));
  (* resume the very same checkpoint sharded over 2 domains *)
  (if c.c_shardable then
     let t_par = ref [] in
     let resumed_par =
       Explore.resume
         (recording_engine prog t_par)
         ~options:(opts c.c_horizon) ~domains:2 (Checkpoint.load path)
     in
     match c.c_horizon with
     | None ->
       check (Alcotest.list Alcotest.string)
         (msg "parallel resume: same bug set") (bug_keys full)
         (bug_keys resumed_par);
       check Alcotest.int (msg "parallel resume: same states")
         full.Sresult.distinct_states resumed_par.Sresult.distinct_states;
       check Alcotest.bool (msg "parallel resume: same completion")
         full.Sresult.complete resumed_par.Sresult.complete;
       if c.c_exact then
         check schedules (msg "parallel resume: same execution multiset")
           (sorted full_tape)
           (List.sort compare (!kill_tape @ !t_par))
       else
         check schedules (msg "parallel resume: same schedule set")
           (List.sort_uniq compare !full_tape)
           (List.sort_uniq compare (!kill_tape @ !t_par))
     | Some h ->
       (* Parallel stopping is cooperative at item boundaries, so an
          execution limit may overshoot by the items in flight, and the
          walks actually executed need not be the first [h] indices —
          only a subset of the indices the round handed out.  The sharp
          invariant is that no walk ever runs twice: the union tape must
          embed, as a multiset, in a serial reference wide enough to
          cover every index the interrupted round could have reached
          (one 64-walk batch plus the in-flight slack). *)
       let wide_tape = ref [] in
       let wide =
         Explore.run
           (recording_engine prog wide_tape)
           ~options:(opts (Some (h + 72)))
           ~env c.c_strategy
       in
       check Alcotest.bool (msg "parallel resume: reached the horizon") true
         (resumed_par.Sresult.executions >= h);
       check Alcotest.bool (msg "parallel resume: bounded overshoot") true
         (resumed_par.Sresult.executions <= h + 8);
       check Alcotest.bool
         (msg "parallel resume: every walk ran at most once") true
         (multiset_le
            (List.sort compare (!kill_tape @ !t_par))
            (sorted wide_tape));
       check Alcotest.bool (msg "parallel resume: no bug outside the space")
         true
         (subset (bug_keys resumed_par) (bug_keys wide));
       check Alcotest.bool (msg "parallel resume: progressed past the kill")
         true
         (resumed_par.Sresult.distinct_states
         >= killed.Sresult.distinct_states));
  Sys.remove path

let kill_resume_tests =
  List.map
    (fun c ->
      Alcotest.test_case
        (Printf.sprintf "kill/resume round-trips (%s)" c.c_name)
        `Quick (kill_resume_case c))
    cases

(* --- v2 checkpoint read-compat ------------------------------------------- *)

(* Committed fixtures written by the pre-v3 checkpoint code (see
   test/fixtures/): an ICB run and a random walk over the peterson bug
   model, both interrupted mid-search.  `dune runtest` runs in the test
   directory (the fixtures are declared deps); `dune exec` from the
   project root needs the test/ prefix. *)
let fixture name =
  let candidates =
    [ Filename.concat "fixtures" name;
      Filename.concat (Filename.concat "test" "fixtures") name ]
  in
  try List.find Sys.file_exists candidates
  with Not_found -> List.hd candidates

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
   that checkpoint for 700 more executions.  A cap of 2 stops ICB inside
   an item that has already deferred work, which a checkpoint must not
   list twice.  Bug witnesses stay out, since
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
    ("icb", "1b5196c42dc24738");
    ("dfs", "e431d2a6861f4fdf");
    ("db:40", "ae56c924215bffe1");
    ("idfs:48", "b881eb25e74ccf2a");
    ("random", "6528ee0878f98f94");
    ("sleep-dfs", "479123028e38da32");
    ("pct:3", "630f2960129ddf04");
    ("most-enabled", "47d4b78b066a2d34");
    ("vb:2", "3a0309ee38fd31e0");
    ("tb:2", "d7eb9752c68e7a59");
    ("icb-vb:2", "020c101836e99cf2");
    ("icb, cached", "253f3763a2671e94");
    ("dfs, cached", "4fed65ade9bd0474");
    ("most-enabled, cached", "c7030bdafc0ebee3");
    ("vb:2, cached", "ee3cf968cacda2c0");
    ("tb:2, cached", "d9cebba013f1dc7d");
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
        Sresult.(r.executions, r.distinct_states, r.total_steps))
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
      ("kill-resume", kill_resume_tests @ order_tests);
      ("prefixes", prefix_tests);
      ("v2-compat", v2_compat_tests);
      ("v3-fixture", v3_fixture_tests);
    ]
