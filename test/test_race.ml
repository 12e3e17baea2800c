module Vclock = Icb_race.Vclock
module Vcdetect = Icb_race.Vcdetect
module Goldilocks = Icb_race.Goldilocks
module Hbsig = Icb_race.Hbsig
module Interp = Icb_machine.Interp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- vector clocks -------------------------------------------------------- *)

let components_gen =
  QCheck.Gen.(list_size (int_range 0 6) (pair (int_range 0 5) (int_range 0 10)))

let clock_of_list l =
  List.fold_left (fun c (t, n) -> Vclock.set c t n) Vclock.empty l

let clock_gen = QCheck.Gen.map clock_of_list components_gen

let clock = QCheck.make clock_gen

let vclock_tests =
  [
    Alcotest.test_case "get of empty is zero" `Quick (fun () ->
        check Alcotest.int "zero" 0 (Vclock.get Vclock.empty 3));
    Alcotest.test_case "inc bumps one component" `Quick (fun () ->
        let c = Vclock.inc (Vclock.inc Vclock.empty 2) 2 in
        check Alcotest.int "two" 2 (Vclock.get c 2);
        check Alcotest.int "others zero" 0 (Vclock.get c 0));
    qtest
      (QCheck.Test.make ~name:"join is commutative" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           Vclock.equal (Vclock.join a b) (Vclock.join b a)));
    qtest
      (QCheck.Test.make ~name:"join is associative" ~count:300
         (QCheck.triple clock clock clock) (fun (a, b, c) ->
           Vclock.equal
             (Vclock.join a (Vclock.join b c))
             (Vclock.join (Vclock.join a b) c)));
    qtest
      (QCheck.Test.make ~name:"join is idempotent" ~count:300 clock (fun a ->
           Vclock.equal (Vclock.join a a) a));
    qtest
      (QCheck.Test.make ~name:"join is the least upper bound" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           let j = Vclock.join a b in
           Vclock.leq a j && Vclock.leq b j));
    qtest
      (QCheck.Test.make ~name:"leq is antisymmetric" ~count:300
         (QCheck.pair clock clock) (fun (a, b) ->
           (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b));
    qtest
      (QCheck.Test.make ~name:"inc strictly increases" ~count:300
         (QCheck.pair clock (QCheck.make (QCheck.Gen.int_range 0 5)))
         (fun (a, t) ->
           let a' = Vclock.inc a t in
           Vclock.leq a a' && not (Vclock.leq a' a)));
    qtest
      (QCheck.Test.make ~name:"set to zero forgets the component" ~count:500
         (QCheck.pair (QCheck.make components_gen)
            (QCheck.make (QCheck.Gen.int_range 0 5)))
         (fun (l, t) ->
           Vclock.equal
             (Vclock.set (clock_of_list l) t 0)
             (clock_of_list (List.filter (fun (u, _) -> u <> t) l))));
  ]

(* --- detectors on hand-built event streams --------------------------------- *)

let v0 : Interp.var_id = Interp.Gvar (0, 0)
let l0 : Interp.var_id = Interp.Svar (0, 0)

let data ?(write = true) tid var : Interp.event = Interp.Ev_data { tid; var; write }
let sync tid var : Interp.event = Interp.Ev_sync { tid; var }
let fork parent child : Interp.event = Interp.Ev_fork { parent; child }

let vc_races events = Result.is_error (Vcdetect.observe Vcdetect.empty events)

let gold_races events =
  Result.is_error (Goldilocks.observe Goldilocks.empty events)

let both name expected events =
  Alcotest.test_case name `Quick (fun () ->
      check Alcotest.bool ("vclock: " ^ name) expected (vc_races events);
      check Alcotest.bool ("goldilocks: " ^ name) expected (gold_races events))

let detector_tests =
  [
    both "unsynchronized write-write races" true
      [ fork 0 1; data 0 v0; data 1 v0 ];
    both "read-read does not race" false
      [ fork 0 1; data ~write:false 0 v0; data ~write:false 1 v0 ];
    both "write then unsynchronized read races" true
      [ fork 0 1; data 0 v0; data ~write:false 1 v0 ];
    both "lock-ordered accesses do not race" false
      [
        fork 0 1;
        sync 0 l0; data 0 v0; sync 0 l0;  (* lock; write; unlock *)
        sync 1 l0; data 1 v0; sync 1 l0;
      ];
    both "distinct locks do not order" true
      [
        fork 0 1;
        sync 0 l0; data 0 v0; sync 0 l0;
        sync 1 (Interp.Svar (1, 0)); data 1 v0; sync 1 (Interp.Svar (1, 0));
      ];
    both "fork orders parent-before-child" false
      [ data 0 v0; fork 0 1; data 1 v0 ];
    both "no fork edge, no order" true [ fork 0 1; data 1 v0; data 0 v0 ];
    both "same thread never races with itself" false
      [ data 0 v0; data ~write:false 0 v0; data 0 v0 ];
    both "volatile-style sync accesses do not race" false
      [ fork 0 1; sync 0 v0; sync 1 v0 ];
    both "transitive publication through a chain" false
      [
        fork 0 1; fork 0 2;
        data 0 v0;
        sync 0 l0;
        sync 1 l0;
        sync 1 (Interp.Svar (1, 0));
        sync 2 (Interp.Svar (1, 0));
        data ~write:false 2 v0;
      ];
    both "read shared, then unsynchronized write races with the reader" true
      [
        fork 0 1;
        sync 0 l0; data ~write:false 0 v0; sync 0 l0;
        data 1 v0;
      ];
  ]

(* --- agreement of the two detectors on random structured streams ----------- *)

(* Streams are generated program-like: a bounded number of threads, each
   event either a data access, a lock-protected data access, or a sync
   access; forks happen up-front so every thread is reachable.  The shape
   draws from [draw bound] (uniform in [0, bound)), so QCheck's generator
   and a seeded {!Icb_util.Rng} produce streams of the same kind. *)
let stream_of draw =
  let nthreads = 3 in
  let event () =
    let tid = draw nthreads in
    match draw 8 with
    | 0 | 1 | 2 ->
      let v = draw 3 in
      let write = draw 2 = 0 in
      [ data ~write tid (Interp.Gvar (v, 0)) ]
    | 3 | 4 | 5 ->
      let l = draw 2 in
      let v = draw 3 in
      let write = draw 2 = 0 in
      [
        sync tid (Interp.Svar (l, 0));
        data ~write tid (Interp.Gvar (v, 0));
        sync tid (Interp.Svar (l, 0));
      ]
    | _ -> [ sync tid (Interp.Svar (draw 2, 0)) ]
  in
  let n = draw 26 in
  [ fork 0 1; fork 0 2 ] @ List.concat (List.init n (fun _ -> event ()))

let stream_gen : Interp.event list QCheck.Gen.t =
 fun st -> stream_of (Random.State.int st)

let agreement_tests =
  [
    qtest
      (QCheck.Test.make ~name:"vclock and goldilocks agree" ~count:1000
         (QCheck.make stream_gen) (fun events ->
           vc_races events = gold_races events));
    qtest
      (QCheck.Test.make ~name:"detectors agree on the racing variable"
         ~count:1000 (QCheck.make stream_gen) (fun events ->
           match
             ( Vcdetect.observe Vcdetect.empty events,
               Goldilocks.observe Goldilocks.empty events )
           with
           | Ok _, Ok _ -> true
           | Error a, Error b -> a.Icb_race.Report.var = b.Icb_race.Report.var
           | Error _, Ok _ | Ok _, Error _ -> false));
    qtest
      (QCheck.Test.make ~name:"detection is stable under chunked observation"
         ~count:300 (QCheck.make stream_gen) (fun events ->
           (* feeding events one at a time gives the same verdict *)
           let one_shot = vc_races events in
           let incremental =
             let rec go det = function
               | [] -> false
               | e :: rest -> (
                 match Vcdetect.observe det [ e ] with
                 | Ok det -> go det rest
                 | Error _ -> true)
             in
             go Vcdetect.empty events
           in
           one_shot = incremental));
  ]

(* --- happens-before signatures --------------------------------------------- *)

let hb_sig events = Hbsig.signature (Hbsig.observe Hbsig.empty events)

let hbsig_tests =
  [
    Alcotest.test_case "reordering independent steps preserves the signature"
      `Quick (fun () ->
        let a = sync 1 (Interp.Svar (0, 0)) in
        let b = sync 2 (Interp.Svar (1, 0)) in
        check Alcotest.int64 "swap"
          (hb_sig [ fork 0 1; fork 0 2; a; b ])
          (hb_sig [ fork 0 1; fork 0 2; b; a ]));
    Alcotest.test_case "reordering dependent steps changes the signature"
      `Quick (fun () ->
        let a = sync 1 l0 in
        let b = sync 2 l0 in
        check Alcotest.bool "differ" true
          (hb_sig [ fork 0 1; fork 0 2; a; b ]
          <> hb_sig [ fork 0 1; fork 0 2; b; a ]));
    Alcotest.test_case "longer executions have new signatures" `Quick
      (fun () ->
        check Alcotest.bool "prefix differs" true
          (hb_sig [ sync 0 l0 ] <> hb_sig [ sync 0 l0; sync 0 l0 ]));
    Alcotest.test_case
      "machine: equivalent schedules of independent threads collide" `Quick
      (fun () ->
        (* two threads lock distinct mutexes: schedules that interleave them
           differently must produce the same HB signature at the end *)
        let prog =
          Icb.compile
            {|
mutex m1; mutex m2;
proc w1() { lock(m1); unlock(m1); }
proc w2() { lock(m2); unlock(m2); }
main { spawn w1(); spawn w2(); }
|}
        in
        let run schedule =
          let r = Interp.start Interp.Sync_only prog in
          let st = ref r.Interp.state in
          let hbs = ref (Hbsig.observe Hbsig.empty r.Interp.events) in
          List.iter
            (fun t ->
              let res = Interp.step Interp.Sync_only !st t in
              st := res.Interp.state;
              hbs := Hbsig.observe !hbs res.Interp.events)
            schedule;
          Hbsig.signature !hbs
        in
        check Alcotest.int64 "interleavings collide"
          (run [ 0; 0; 1; 2; 1; 2 ])
          (run [ 0; 0; 2; 1; 2; 1 ]));
  ]

(* --- pinned outputs -------------------------------------------------------- *)

(* The race layer's values are observable: happens-before signatures are
   the chess engine's visited states (checkpoints and the wire carry
   them), and race reports name the racing threads.  Any representation
   of the detectors and signatures must reproduce these values bit for
   bit. *)

module Fnv = Icb_util.Fnv
module Rng = Icb_util.Rng

let steps_sig steps =
  Hbsig.signature (List.fold_left Hbsig.observe Hbsig.empty steps)

let race_t =
  Alcotest.testable
    (fun fmt (r : Icb_race.Report.race) ->
      Format.fprintf fmt "race(tid1 = %d, tid2 = %d)" r.tid1 r.tid2)
    ( = )

(* Feed [steps] to a detector one step at a time, stopping at the first
   race: the number of clean steps and the report. *)
let run_detector observe empty steps =
  let rec go det i = function
    | [] -> (i, None)
    | s :: rest -> (
      match observe det s with
      | Ok det -> go det (i + 1) rest
      | Error r -> (i, Some r))
  in
  go empty 0 steps

let hash_var h (v : Interp.var_id) =
  match v with
  | Interp.Gvar (a, b) -> Fnv.int (Fnv.int (Fnv.int h 0) a) b
  | Interp.Hcell (a, b) -> Fnv.int (Fnv.int (Fnv.int h 1) a) b
  | Interp.Svar (a, b) -> Fnv.int (Fnv.int (Fnv.int h 2) a) b

let hash_outcome h (i, r) =
  let h = Fnv.int h i in
  match r with
  | None -> Fnv.int h 0
  | Some (r : Icb_race.Report.race) ->
    Fnv.int (Fnv.int (hash_var (Fnv.int h 1) r.var) r.tid1) r.tid2

(* Cut a stream into consecutive steps of one to four events. *)
let split rng events =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | e :: rest ->
      if k = 0 then go (List.rev cur :: acc) [ e ] (Rng.int rng 4) rest
      else go acc (e :: cur) (k - 1) rest
  in
  match events with
  | [] -> []
  | e :: rest -> go [] [ e ] (Rng.int rng 4) rest

(* Over [n] seeded streams: both detectors' outcomes and the signature
   after every step, folded into one hash. *)
let stream_digest ~seed ~n =
  let rng = Rng.create seed in
  let h = ref Fnv.basis in
  for _ = 1 to n do
    let steps = split rng (stream_of (Rng.int rng)) in
    h := hash_outcome !h (run_detector Vcdetect.observe Vcdetect.empty steps);
    h :=
      hash_outcome !h (run_detector Goldilocks.observe Goldilocks.empty steps);
    ignore
      (List.fold_left
         (fun hbs s ->
           let hbs = Hbsig.observe hbs s in
           h := Fnv.int64 !h (Hbsig.signature hbs);
           hbs)
         Hbsig.empty steps)
  done;
  !h

let pinned_tests =
  [
    Alcotest.test_case "hb signature of a lock handoff" `Quick (fun () ->
        check Alcotest.int64 "signature" 0x48401c9fc77e9c6fL
          (steps_sig
             [
               [ fork 0 1 ];
               [ sync 0 l0 ];
               [ sync 1 l0; data 1 v0 ];
               [ sync 1 (Interp.Svar (1, 0)) ];
             ]));
    Alcotest.test_case "hb signature of three threads and a spawn" `Quick
      (fun () ->
        check Alcotest.int64 "signature" 0xfdabbabc51a6c673L
          (steps_sig
             [
               [ fork 0 1; fork 0 2 ];
               [ sync 2 (Interp.Svar (1, 0)); sync 1 l0 ];
               [ sync 0 (Interp.Svar (-2, 0)) ];
               [ sync 2 (Interp.Svar (1, 0)) ];
             ]));
    Alcotest.test_case "hb signature of the empty execution" `Quick (fun () ->
        check Alcotest.int64 "signature" 0L (steps_sig []);
        check Alcotest.int64 "no steps" 0L (steps_sig [ []; [] ]));
    Alcotest.test_case "the lowest racing reader is reported" `Quick
      (fun () ->
        let events =
          [
            fork 0 1; fork 0 2; fork 0 3;
            data ~write:false 3 v0;
            data ~write:false 1 v0;
            data ~write:false 2 v0;
            data 0 v0;
          ]
        in
        let expected = Some { Icb_race.Report.var = v0; tid1 = 1; tid2 = 0 } in
        check (Alcotest.option race_t) "vclock" expected
          (snd (run_detector Vcdetect.observe Vcdetect.empty [ events ]));
        check (Alcotest.option race_t) "goldilocks" expected
          (snd (run_detector Goldilocks.observe Goldilocks.empty [ events ])));
    Alcotest.test_case "seeded streams: reports and signatures" `Quick
      (fun () ->
        check Alcotest.int64 "digest" 2449920637420239719L
          (stream_digest ~seed:16L ~n:1000));
  ]

(* --- end-to-end: race checking inside the search --------------------------- *)

let search_race_tests =
  [
    Alcotest.test_case "racy model is caught under Sync_only" `Quick (fun () ->
        let prog =
          Icb.compile
            {|
var g: int;
event manual d1; event manual d2;
proc w1() { g = 1; signal(d1); }
proc w2() { g = 2; signal(d2); }
main { spawn w1(); spawn w2(); wait(d1); wait(d2); }
|}
        in
        match Icb.check prog ~max_bound:2 with
        | Some b ->
          check Alcotest.bool "is a race" true
            (String.length b.Icb_search.Sresult.key >= 5
            && String.sub b.key 0 5 = "race:")
        | None -> Alcotest.fail "expected a race");
    Alcotest.test_case "goldilocks config finds the same race" `Quick
      (fun () ->
        let prog =
          Icb.compile
            {|
var g: int;
event manual d1; event manual d2;
proc w1() { g = 1; signal(d1); }
proc w2() { g = 2; signal(d2); }
main { spawn w1(); spawn w2(); wait(d1); wait(d2); }
|}
        in
        let config =
          { Icb_search.Mach_engine.default_config with detector = `Goldilocks }
        in
        match Icb.check ~config prog ~max_bound:2 with
        | Some b ->
          check Alcotest.bool "is a race" true
            (String.sub b.Icb_search.Sresult.key 0 5 = "race:")
        | None -> Alcotest.fail "expected a race");
    Alcotest.test_case "lock-protected model is race-free" `Quick (fun () ->
        let prog =
          Icb.compile
            {|
var g: int;
mutex m;
event manual d1; event manual d2;
proc w1() { lock(m); g = 1; unlock(m); signal(d1); }
proc w2() { lock(m); g = 2; unlock(m); signal(d2); }
main { spawn w1(); spawn w2(); wait(d1); wait(d2); }
|}
        in
        check Alcotest.bool "clean" true (Icb.check prog ~max_bound:5 = None));
  ]

let () =
  Alcotest.run "race"
    [
      ("vclock", vclock_tests);
      ("detectors", detector_tests);
      ("agreement", agreement_tests);
      ("hbsig", hbsig_tests);
      ("pinned", pinned_tests);
      ("search", search_race_tests);
    ]
