(* Empirical validation of the paper's Section 3.1 / Appendix A theory.

   Theorem 2: every terminating race-free execution is equivalent to an
   observable one (preemptions only at synchronization accesses) with no
   more preemptions.  Theorem 3: likewise for races.  Together they make
   the sync-only reduction sound: exploring only observable executions
   (while checking each for races) misses neither reachable terminal
   states nor bugs, and preserves minimal preemption counts.

   We test this differentially on generated programs: enumerate the full
   state space at both granularities and compare (a) terminal
   canonical-state sets, (b) bug-key sets, (c) the minimal preemption
   count per bug key — whenever the program is race-free.  When the
   sync-only checker reports a race, the comparison is skipped: the
   reduction promises nothing beyond the race report. *)

module Engine = Icb_search.Engine
module Mach_engine = Icb_search.Mach_engine

let qtest = QCheck_alcotest.to_alcotest

(* --- exhaustive exploration at a given granularity ------------------------ *)

type summary = {
  terminals : (int64, unit) Hashtbl.t;       (* canonical terminal states *)
  bug_bounds : (string, int) Hashtbl.t;      (* bug key -> min preemptions *)
  mutable raced : bool;
}

let explore config prog =
  let module E = (val Icb.engine ~config prog) in
  let s =
    { terminals = Hashtbl.create 64; bug_bounds = Hashtbl.create 4; raced = false }
  in
  let record_bug key preempt =
    match Hashtbl.find_opt s.bug_bounds key with
    | Some old -> if preempt < old then Hashtbl.replace s.bug_bounds key preempt
    | None -> Hashtbl.add s.bug_bounds key preempt
  in
  let rec dfs st =
    match E.status st with
    | Engine.Running -> List.iter (fun t -> dfs (E.step st t)) (E.enabled st)
    | Engine.Terminated ->
      Hashtbl.replace s.terminals
        (Icb_machine.State.signature (Mach_engine.machine_state st))
        ()
    | Engine.Deadlock _ ->
      Hashtbl.replace s.terminals
        (Icb_machine.State.signature (Mach_engine.machine_state st))
        ();
      record_bug "deadlock" (E.preemptions st)
    | Engine.Failed { key; _ } ->
      if String.length key >= 5 && String.sub key 0 5 = "race:" then
        s.raced <- true
      else record_bug key (E.preemptions st)
  in
  dfs (E.initial ());
  s

let sets_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem b k) a true

let tables_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
       a true

let fine_config =
  (* every shared access a scheduling point; race checking on so raced
     programs are identified and skipped symmetrically *)
  { Mach_engine.zing_config with check_races = true; detector = `Vclock }

let coarse_config = Mach_engine.default_config

let pp_table fmt t =
  Hashtbl.iter (fun k v -> Format.fprintf fmt "%s->%d " k v) t

(* Both granularities reach the same terminal states on [src]. *)
let same_terminals src () =
  let prog = Icb.compile src in
  let fine = explore fine_config prog in
  let coarse = explore coarse_config prog in
  Alcotest.(check bool) "no race" false (fine.raced || coarse.raced);
  Alcotest.(check int) "terminal states"
    (Hashtbl.length coarse.terminals) (Hashtbl.length fine.terminals);
  Alcotest.(check bool) "same terminal states" true
    (sets_equal fine.terminals coarse.terminals)

let reduction_tests =
  [
    (* w1's plain accesses run inside its steps under sync-only
       granularity, so they must not release w2's yield under
       every-access granularity either: w1 always takes m first *)
    Alcotest.test_case "a data access does not release a yield" `Quick
      (same_terminals
         {|
var d: int;
var r: int;
mutex m;
proc w1() { d = d + 1; lock(m); r = r * 2; unlock(m); }
proc w2() { yield; lock(m); r = r + 1; unlock(m); }
main { spawn w1(); spawn w2(); }
|});
    (* whichever thread yields last before blocking, the deadlock is
       one state *)
    Alcotest.test_case "a yield flag is residue in a deadlock" `Quick
      (same_terminals
         {|
var d: int;
event manual ev;
proc w1() { yield; wait(ev); }
proc w2() { yield; d = d + 2; }
main { spawn w1(); spawn w2(); }
|});
    qtest
      (QCheck.Test.make
         ~name:"sync-only reduction preserves terminal states and bug bounds"
         ~count:120
         (QCheck.make ~print:(fun s -> s) Gen_programs.program)
         (fun src ->
           let prog = Icb.compile src in
           let fine = explore fine_config prog in
           let coarse = explore coarse_config prog in
           (* a race voids the comparison — but both granularities must
              agree that there is one (race detection is about the
              happens-before relation, not the schedule granularity) *)
           if fine.raced || coarse.raced then fine.raced = coarse.raced
           else if not (sets_equal fine.terminals coarse.terminals) then
             QCheck.Test.fail_reportf
               "terminal sets differ (%d fine vs %d coarse) on:%s"
               (Hashtbl.length fine.terminals)
               (Hashtbl.length coarse.terminals)
               src
           else if not (tables_equal fine.bug_bounds coarse.bug_bounds) then
             QCheck.Test.fail_reportf
               "bug bounds differ (fine: %a; coarse: %a) on:%s"
               pp_table fine.bug_bounds pp_table coarse.bug_bounds src
           else true));
    qtest
      (QCheck.Test.make
         ~name:"sync-only explores no more states than every-access"
         ~count:60
         (QCheck.make ~print:(fun s -> s) Gen_programs.program)
         (fun src ->
           let prog = Icb.compile src in
           let states config =
             (Icb.run ~config
                ~strategy:(Icb_search.Explore.Dfs { cache = true })
                prog)
               .Icb_search.Sresult.distinct_states
           in
           states coarse_config <= states fine_config));
    qtest
      (QCheck.Test.make
         ~name:"sleep sets preserve reachable states on generated programs"
         ~count:60
         (QCheck.make ~print:(fun s -> s) Gen_programs.program)
         (fun src ->
           let prog = Icb.compile src in
           let dfs =
             Icb.run prog ~strategy:(Icb_search.Explore.Dfs { cache = false })
           in
           let sleep = Icb.run prog ~strategy:Icb_search.Explore.Sleep_dfs in
           dfs.Icb_search.Sresult.distinct_states
           = sleep.Icb_search.Sresult.distinct_states
           && sleep.executions <= dfs.executions));
    qtest
      (QCheck.Test.make
         ~name:"icb enumerates the same terminal states as dfs" ~count:60
         (QCheck.make ~print:(fun s -> s) Gen_programs.program)
         (fun src ->
           let prog = Icb.compile src in
           let run strategy =
             (Icb.run prog ~strategy).Icb_search.Sresult.distinct_states
           in
           run (Icb_search.Explore.Icb { max_bound = None; cache = false })
           = run (Icb_search.Explore.Dfs { cache = false })));
  ]

let () = Alcotest.run "reduction" [ ("theorems-2-3", reduction_tests) ]
