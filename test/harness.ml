(* What several suites share: temporary checkpoints and fixtures, a
   result's bugs, a recording engine, and a coordinator with loopback
   workers. *)

module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Coord = Icb_dist.Coord
module Worker = Icb_dist.Worker

let check = Alcotest.check

let tmp_ckpt () = Filename.temp_file "icb-test" ".ckpt"

(* `dune runtest` runs in the test directory (the fixtures are declared
   deps); `dune exec` from the project root needs the test/ prefix. *)
let fixture name =
  let candidates =
    [ Filename.concat "fixtures" name;
      Filename.concat (Filename.concat "test" "fixtures") name ]
  in
  try List.find Sys.file_exists candidates
  with Not_found -> List.hd candidates

let bug_keys (r : Sresult.t) =
  List.sort_uniq String.compare
    (List.map (fun (b : Sresult.bug) -> b.Sresult.key) r.Sresult.bugs)

(* Each bug's whole witness, sorted: key, preemptions, context switches,
   depth and schedule.  Every collector keeps a key's least
   (preemptions, schedule) witness, and the barrier merge keeps the
   least of the workers', so a drained search reports the same witness
   however it ran. *)
let bug_set (r : Sresult.t) =
  List.sort compare
    (List.map
       (fun (b : Sresult.bug) ->
         Printf.sprintf "%s p%d cs%d d%d <%s>" b.Sresult.key
           b.Sresult.preemptions b.Sresult.context_switches b.Sresult.depth
           (String.concat "," (List.map string_of_int b.Sresult.schedule)))
       r.Sresult.bugs)

let bexec (r : Sresult.t) = Array.to_list r.Sresult.bound_executions

let assert_equivalent what (s : Sresult.t) (d : Sresult.t) =
  check (Alcotest.list Alcotest.string) (what ^ ": bug set") (bug_set s)
    (bug_set d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (what ^ ": executions per bound") (bexec s) (bexec d);
  check Alcotest.int (what ^ ": executions") s.Sresult.executions
    d.Sresult.executions;
  check Alcotest.int (what ^ ": states") s.Sresult.distinct_states
    d.Sresult.distinct_states;
  check Alcotest.int (what ^ ": steps") s.Sresult.total_steps
    d.Sresult.total_steps;
  check Alcotest.bool (what ^ ": complete") s.Sresult.complete
    d.Sresult.complete

(* --- a recording engine -------------------------------------------------- *)

(* The schedules of the executions a run explored, in any order.  The
   tape carries its own lock: domains and worker threads all append to
   it, so it is the exact multiset of executions the whole run explored. *)
type tape = { lock : Mutex.t; mutable runs : int list list }

let new_tape () = { lock = Mutex.create (); runs = [] }

let sorted_tape tape = List.sort compare tape.runs

(* [E], with every completed execution's schedule put on [tape]. *)
let recording (type s) (module E : Engine.S with type state = s) tape :
    (module Engine.S with type state = s) =
  (module struct
    include E

    let step st t =
      let st' = E.step st t in
      (if Engine.is_terminal (E.status st') then
         let run = List.rev (E.trail st') in
         Mutex.protect tape.lock (fun () -> tape.runs <- run :: tape.runs));
      st'
  end)

(* --- a coordinator with loopback workers --------------------------------- *)

let spawn_worker (type s) ~port (module E : Engine.S with type state = s) =
  Thread.create
    (fun () ->
      ignore
        (Worker.run ~host:"127.0.0.1" ~port
           ~resolve:(fun _ -> Ok (Worker.Packed (module E)))
           ()))
    ()

(* Coordinator in this thread, [workers] in-process worker threads over
   loopback, all on [E].  [keep] leaves the port up (and skips shutdown)
   so a test can poke the HTTP endpoints after the run. *)
let distributed (type s) ?(workers = 2) ?(batch_size = 4)
    ?(lease_timeout = 5.0) ?telemetry ?options ?checkpoint_out
    ?checkpoint_every ?resume_from ?cache ?env ?(keep = false)
    (module E : Engine.S with type state = s) strategy =
  let coord = Coord.create ~batch_size ~lease_timeout ?telemetry () in
  let port = Coord.port coord in
  let ws = List.init workers (fun _ -> spawn_worker ~port (module E)) in
  match
    Coord.run coord (module E) ?options ?checkpoint_out ?checkpoint_every
      ?resume_from ?cache ?env strategy
  with
  | r ->
    List.iter Thread.join ws;
    if not keep then Coord.shutdown coord;
    (r, coord)
  | exception e ->
    Coord.shutdown coord;
    raise e
