(* One conformance matrix for the promise that a search's results do not
   depend on how it ran: serially, on domains or on loopback workers,
   with the replay cache on or off, uninterrupted or killed and resumed.

   A row is an input (a program and a strategy) with its cells; a cell is
   a runner, a cache setting and an interruption.  Each cell is [run],
   and its whole result and the schedules its executions took are
   [observe]d field by field.  Every field equals the reference's (the
   row's serial, cache-off, uninterrupted run; for a finished checkpoint
   resumed, the run it resumed) unless a declared relaxation replaces
   that comparison with its own check.  A row's [slice] names the
   Alcotest case that runs each of its cells. *)

module Explore = Icb_search.Explore
module Collector = Icb_search.Collector
module Checkpoint = Icb_search.Checkpoint
module Sresult = Icb_search.Sresult
module Engine = Icb_search.Engine
module Strategy = Icb_search.Strategy
open Harness

type runner = Serial | Pool of int | Workers of int * int (* n, batch size *)

type cut =
  | Whole  (* uninterrupted *)
  | Half of runner
      (* killed at half the reference's executions, resumed on [runner] *)
  | Chunks  (* killed every third of the reference's executions until done *)
  | Finished  (* the finished run's checkpoint resumed *)

type cell = { runner : runner; cache : bool; cut : cut }

let at ?(cache = false) runner cut = { runner; cache; cut }

let runner_name = function
  | Serial -> "serial"
  | Pool n -> Printf.sprintf "%d domains" n
  | Workers (n, b) -> Printf.sprintf "%d workers at batch %d" n b

let cell_name c =
  Printf.sprintf "%s, cache %b%s" (runner_name c.runner) c.cache
    (match c.cut with
    | Whole -> ""
    | Half r -> ", killed at half, resumed on " ^ runner_name r
    | Chunks -> ", killed in chunks"
    | Finished -> ", finished checkpoint resumed")

let barrier = function Serial -> false | Pool _ | Workers _ -> true

let on_workers = function Workers _ -> true | Serial | Pool _ -> false

(* A registry row's cells.  On every runner (the serial one only, for a
   strategy that does not shard): uninterrupted with the cache off and
   on and, for a strategy that checkpoints, finished then resumed, and
   killed at half and resumed on the same runner with the cache off (and
   on, except on workers, where a cell costs a coordinator).  A serial
   kill also resumes on 2 domains with the cache on, and one worker runs
   the whole search with it.  [cross] resumes every runner's kill on
   every runner instead, and kills the serial run in chunks. *)
let registry_cells ~cross ~shardable ~checkpointable =
  let runners =
    if shardable then [ Serial; Pool 2; Workers (2, 4) ] else [ Serial ]
  in
  let kills r =
    (if on_workers r then [] else [ at ~cache:true r (Half r) ])
    @ List.filter_map
        (fun r' -> if r' = r || cross then Some (at r (Half r')) else None)
        runners
    @
    match r with
    | Serial when cross -> [ at Serial Chunks ]
    | Serial when shardable -> [ at ~cache:true Serial (Half (Pool 2)) ]
    | _ -> []
  in
  List.concat_map
    (fun r ->
      at ~cache:true r Whole :: at r Whole
      :: (if checkpointable then at r Finished :: kills r else []))
    runners
  @ (if shardable then [ at ~cache:true (Workers (1, 4)) Whole ] else [])
  |> List.filter (( <> ) (at Serial Whole))

(* --- rows ---------------------------------------------------------------- *)

type run = { res : Sresult.t; tape : int list list (* sorted *) }

type row = {
  name : string;
  cap : int option;  (* every run's execution cap *)
  first_bug : bool;  (* every run stops at its first bug *)
  atomic : bool;  (* each of the strategy's items records one execution *)
  checkpointable : bool;
  pins : (string * string) list;  (* fields the reference must show *)
  least : row option;  (* an ICB row's DFS row, for minimal preemptions *)
  cells : cell list;
  slice : cell -> string * string;  (* the group and case that run a cell *)
  exec : tape -> runner -> cache:bool -> ?max:int -> ?first_bug:bool ->
    ?out:string -> ?from:Checkpoint.t -> unit -> Sresult.t;
  whole : (runner * bool, run * Checkpoint.t option) Hashtbl.t;
      (* each runner's uninterrupted run and final checkpoint, made once *)
  wide : run Lazy.t;  (* serial, past the cap by [wide] *)
}

(* A capped run on the pool or on workers stops at an item or batch
   boundary: at most [slack] past its cap.  Its walks are among those of
   a serial run [wide] past the cap: one 64-walk round of the randomized
   strategies, plus the slack. *)
let slack = 8

let wide = 64 + slack

let recorded f =
  let tape = new_tape () in
  let res = f tape in
  { res; tape = sorted_tape tape }

let make_row (type s) ~name (module E : Engine.S with type state = s) ~env
    ~slice ?cap ?(first_bug = false) ?(pins = []) ?least ?(cross = false)
    ?cells strategy =
  let module S = (val Explore.instantiate ~env (module E) strategy) in
  let exec tape on ~cache ?max ?(first_bug = first_bug) ?out ?from () =
    let (module R : Engine.S with type state = s) = recording (module E) tape in
    let options =
      {
        Collector.default_options with
        max_executions = (if max = None then cap else max);
        stop_at_first_bug = first_bug;
      }
    in
    (* a resumed run takes the strategy's state, the variable ranking
       included, from its checkpoint alone *)
    let env = if from = None then Some env else None in
    match on with
    | Workers (workers, batch_size) ->
      fst
        (distributed ~workers ~batch_size ~options ~cache ?env
           ?checkpoint_out:out ~checkpoint_every:max_int ?resume_from:from
           (module R)
           strategy)
    | Serial | Pool _ ->
      Explore.run
        (module R)
        ~options ~cache ?env ?checkpoint_out:out ~checkpoint_every:max_int
        ?resume_from:from
        ~domains:(match on with Pool n -> n | _ -> 1)
        strategy
  in
  {
    name;
    cap;
    first_bug;
    atomic = S.atomic_items;
    checkpointable = S.checkpointable;
    pins;
    least;
    cells =
      Option.value cells
        ~default:
          (registry_cells ~cross ~shardable:S.shardable
             ~checkpointable:S.checkpointable);
    slice;
    exec;
    whole = Hashtbl.create 8;
    (* without the first-bug stop, so that it runs past the cap *)
    wide =
      lazy
        (recorded (fun tape ->
             exec tape Serial ~cache:false
               ?max:(Option.map (( + ) wide) cap)
               ~first_bug:false ()));
  }

let of_prog ~name prog =
  make_row ~name (Icb.engine prog) ~env:(Strategy.env_of_prog prog)

let pairs a =
  String.concat ";"
    (Array.to_list (Array.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) a))

(* The whole result, field by field, and the executions' schedules. *)
let observe { res = r; tape } =
  [
    ("keys", String.concat "; " (bug_keys r));
    ("witnesses", String.concat "; " (bug_set r));
    ( "stamps",
      String.concat "; "
        (List.sort compare
           (List.map
              (fun (b : Sresult.bug) ->
                Printf.sprintf "%s@%d" b.Sresult.key b.Sresult.execution)
              r.Sresult.bugs)) );
    ("executions", string_of_int r.Sresult.executions);
    ("states", string_of_int r.Sresult.distinct_states);
    ("steps", string_of_int r.Sresult.total_steps);
    ("bound executions", pairs r.Sresult.bound_executions);
    ("bound coverage", pairs r.Sresult.bound_coverage);
    ("complete", string_of_bool r.Sresult.complete);
    ( "stop reason",
      Option.fold ~none:"-" ~some:Sresult.stop_reason_string
        r.Sresult.stop_reason );
    ("growth", pairs r.Sresult.growth);
    ( "tape",
      Printf.sprintf "%d runs, %s" (List.length tape)
        (Digest.to_hex (Digest.string (Marshal.to_string tape []))) );
  ]

(* A runner's uninterrupted run, made once.  The reference must show the
   row's pins, end naturally unless capped and, in an ICB row, give each
   key the least preemptions of the DFS row's witness. *)
let rec whole row runner cache =
  match Hashtbl.find_opt row.whole (runner, cache) with
  | Some w -> w
  | None ->
    let path = tmp_ckpt () in
    let out = if row.checkpointable then Some path else None in
    let r = recorded (fun tape -> row.exec tape runner ~cache ?out ()) in
    let w = (r, Option.map Checkpoint.load out) in
    Sys.remove path;
    if runner = Serial && not cache then begin
      let obs = observe r in
      List.iter
        (fun (field, v) ->
          check Alcotest.string (row.name ^ ": pinned " ^ field) v
            (List.assoc field obs))
        (if row.cap = None then ("stop reason", "-") :: row.pins else row.pins);
      Option.iter
        (fun dfs ->
          List.iter
            (fun (b : Sresult.bug) ->
              check (Alcotest.option Alcotest.int)
                (row.name ^ ": " ^ b.Sresult.key ^ " has minimal preemptions")
                (List.find_map
                   (fun (d : Sresult.bug) ->
                     if d.Sresult.key = b.Sresult.key then
                       Some d.Sresult.preemptions
                     else None)
                   (reference dfs).res.Sresult.bugs)
                (Some b.Sresult.preemptions))
            r.res.Sresult.bugs)
        row.least
    end;
    Hashtbl.replace row.whole (runner, cache) w;
    w

and reference row = fst (whole row Serial false)

let stopped_by_cap (r : Sresult.t) =
  r.Sresult.stop_reason = Some Sresult.Execution_limit

(* A cell's result, and the schedules of every execution it ran across
   its kill and resume. *)
let run row cell =
  let on = cell.runner and cache = cell.cache in
  let n = (reference row).res.Sresult.executions in
  let path = tmp_ckpt () in
  let part tape ?max ?from on =
    row.exec tape on ~cache ?max ~out:path ?from ()
  in
  let killed (r : Sresult.t) =
    check Alcotest.bool (cell_name cell ^ ": the kill stopped the run") true
      (stopped_by_cap r)
  in
  let r =
    match cell.cut with
    | Whole -> fst (whole row on cache)
    | Finished ->
      let w, finished = whole row on cache in
      let r = recorded (fun tape -> part tape ?from:finished on) in
      { r with tape = List.merge compare w.tape r.tape }
    | Half resumed_on ->
      recorded (fun tape ->
          killed (part tape ~max:(max 1 (n / 2)) on);
          part tape ~from:(Checkpoint.load path) resumed_on)
    | Chunks ->
      let k = max 1 (n / 3) in
      let until = Option.value row.cap ~default:max_int in
      recorded (fun tape ->
          let rec go i (r : Sresult.t) =
            if i > 50 then
              Alcotest.failf "%s: %d chunks of %d left it at %d"
                (cell_name cell) i k r.Sresult.executions
            else if stopped_by_cap r && r.Sresult.executions < until then
              go (i + 1)
                (part tape ~max:(min until (r.Sresult.executions + k))
                   ~from:(Checkpoint.load path) on)
            else r
          in
          let first = part tape ~max:(min until k) on in
          killed first;
          go 1 first)
  in
  Sys.remove path;
  r

(* --- relaxations --------------------------------------------------------- *)

let interrupted c = match c.cut with Half _ | Chunks -> true | _ -> false

(* A finished checkpoint resumed is compared with the run it resumed,
   so no relaxation for a barrier or a cap applies to it. *)
let involves_barrier c =
  match c.cut with
  | Finished -> false
  | Half r -> barrier c.runner || barrier r
  | Whole | Chunks -> barrier c.runner

(* a single worker drains its batches in order, so its cap stops it
   after the same batch every time: it is exact *)
let cooperative row c =
  row.cap <> None && involves_barrier c
  && match c.runner with Workers (1, _) -> false | _ -> true

let requeued row c = (not row.atomic) && c.runner = Serial && interrupted c

let dropped_leases row c =
  on_workers c.runner && (interrupted c || (row.cap <> None && c.cut = Whole))

let exact row c = not (cooperative row c || requeued row c)

(* the run took its items in another order than the serial reference *)
let reordered row c = (involves_barrier c || interrupted c) && exact row c

let set tape = List.sort_uniq compare tape

let rec multiset_le small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: bg ->
    let c = compare a b in
    if c = 0 then multiset_le s bg else c > 0 && multiset_le small bg

(* What a relaxation checks instead, given the row, the cell, the
   reference and the cell's run. *)
type relaxation = {
  why : string;
  applies : row -> cell -> bool;
  fields : string list;  (* no longer compared exactly *)
  instead : row -> cell -> run -> run -> (string * bool) list;
}

let relaxations =
  [
    {
      why =
        "1. growth: one point per execution serially, one per round at a \
         barrier, and a resumed round takes its restored items sorted";
      applies = reordered;
      fields = [ "growth" ];
      instead =
        (fun row c ref got ->
          let g = got.res.Sresult.growth in
          let twin = { c with cache = not c.cache } in
          if interrupted c then []
          else
            ( "each round's point lies on the serial curve",
              Array.for_all (fun p -> Array.mem p ref.res.Sresult.growth) g )
            :: (if not (List.mem twin row.cells) then []
                else
                  [ ( "the runner's growth with the other cache",
                      (fst (whole row c.runner twin.cache)).res.Sresult.growth
                      = g ) ]));
    };
    {
      why =
        "2. a bug's stamp counts executions in the order the run took its \
         items: at a barrier, its round's end; after a kill, the resumed \
         order";
      applies = reordered;
      fields = [ "stamps" ];
      instead =
        (fun _ c ref got ->
          let round_end e =
            Array.fold_left
              (fun acc (n, _) -> if n >= e then min acc n else acc)
              max_int got.res.Sresult.growth
          in
          List.map
            (fun (b : Sresult.bug) ->
              let e = b.Sresult.execution in
              if interrupted c then
                (b.Sresult.key ^ " stamped within the run",
                 1 <= e && e <= got.res.Sresult.executions)
              else
                ( b.Sresult.key ^ " stamped at its round's end",
                  List.exists
                    (fun (r : Sresult.bug) ->
                      r.Sresult.key = b.Sresult.key
                      && e = round_end r.Sresult.execution)
                    ref.res.Sresult.bugs ))
            got.res.Sresult.bugs);
    };
    {
      why =
        "3. a capped search on the pool or on workers stops cooperatively, \
         at an item or batch boundary";
      applies = cooperative;
      fields =
        [ "keys"; "witnesses"; "stamps"; "executions"; "states"; "steps";
          "growth"; "tape" ];
      instead =
        (fun row c _ got ->
          let cap = Option.get row.cap and n = got.res.Sresult.executions in
          let wide = Lazy.force row.wide in
          [
            (Printf.sprintf "%d executions, at most %d past the cap" n slack,
             cap <= n && n <= cap + slack);
            ( "bug keys among a wider serial run's",
              List.for_all
                (fun k -> List.mem k (bug_keys wide.res))
                (bug_keys got.res) );
            (* a stopped coordinator's held batches may run twice (6.) *)
            (if dropped_leases row c then
               ( "walks among a wider serial run's",
                 multiset_le (set got.tape) wide.tape )
             else
               ( "walks among a wider serial run's, none twice",
                 multiset_le got.tape wide.tape ));
          ]);
    };
    {
      why =
        "4. the serial runner re-queues an interrupted item that records \
         more than one execution (icb, most-enabled, vb, tb, icb-vb), whose \
         partial subtree then runs again";
      applies = requeued;
      fields =
        [ "stamps"; "executions"; "steps"; "bound executions"; "growth";
          "tape" ];
      instead =
        (fun _ _ ref got ->
          let r = ref.res and g = got.res in
          [
            ( "executions and steps at least the reference's",
              g.Sresult.executions >= r.Sresult.executions
              && g.Sresult.total_steps >= r.Sresult.total_steps );
            ( "executions per bound at least the reference's",
              List.length (bexec g) = List.length (bexec r)
              && List.for_all2
                   (fun (b, e) (b', e') -> b = b' && e >= e')
                   (bexec g) (bexec r) );
            ("the reference's schedule set", set got.tape = set ref.tape);
          ]);
    };
    {
      why =
        "5. under stop_at_first_bug, a resumed checkpoint's bugs are not \
         new, so its met cap names the stop; past that, runners still \
         disagree (serially only a new key stops, the pool's hook and the \
         coordinator's totals count restored ones)";
      applies = (fun row c -> row.first_bug && c.cut = Finished);
      fields = [ "stop reason" ];
      instead =
        (fun _ _ _ got ->
          [ ("stopped by the met cap", stopped_by_cap got.res) ]);
    };
    {
      why =
        "6. a stopped coordinator absorbs no more results: the batches its \
         workers still hold were run all the same, and run again after a \
         resume";
      applies = (fun row c -> dropped_leases row c && exact row c);
      fields = [ "tape" ];
      instead =
        (fun row _ ref got ->
          let among = if row.cap = None then ref else Lazy.force row.wide in
          [
            ( "the reference's schedules, some twice, and a wider run's",
              multiset_le ref.tape got.tape
              && multiset_le (set got.tape) (set among.tape) );
          ]);
    };
  ]

(* The tape also counts a replay that steps into a terminal state, which
   only the cache setting decides (most-enabled rebuilds an item to rank
   it when the cache is off), so it is compared with the serial tape of
   the cell's own cache.  A finished checkpoint resumed must report the
   run it resumed, which ran nothing more. *)
let compare_cell row cell =
  let ref =
    if cell.cut = Finished then fst (whole row cell.runner cell.cache)
    else { (reference row) with tape = (fst (whole row Serial cell.cache)).tape }
  in
  let got = run row cell in
  let what f = Printf.sprintf "%s [%s]: %s" row.name (cell_name cell) f in
  let relaxed = List.filter (fun r -> r.applies row cell) relaxations in
  let want = observe ref in
  List.iter
    (fun (field, v) ->
      if not (List.exists (fun r -> List.mem field r.fields) relaxed) then
        check Alcotest.string (what field) (List.assoc field want) v)
    (observe got);
  List.iter
    (fun r ->
      List.iter
        (fun (claim, ok) ->
          check Alcotest.bool (what claim ^ " (relaxation " ^ r.why ^ ")") true
            ok)
        (r.instead row cell ref got))
    relaxed

(* --- inputs -------------------------------------------------------------- *)

let icb b = Explore.Icb { max_bound = b; cache = false }

let dfs = Explore.Dfs { cache = false }

let named group case _ = (group, case)

let peterson () =
  Icb_models.Peterson.program Icb_models.Peterson.Bug_check_before_set

let bluetooth () = Icb_models.Bluetooth.program ~bug:true

let pop_head () =
  Icb_models.Workstealing.program
    Icb_models.Workstealing.Bug_pop_reads_head_first

(* Every registry strategy on both models, the randomized ones capped at
   400 executions; icb and dfs are also killed in chunks and resumed
   across runners.  The checkpoint cases' chunked Peterson run and
   half-killed Bluetooth walk are cells of these rows. *)
let registry_rows =
  let registry = Explore.registry ~seed:11L () in
  List.concat_map
    (fun (model, prog) ->
      let row ?least (r : Explore.registered) =
        let s = r.Explore.reg_name and name = model ^ ", " ^ r.Explore.reg_name in
        of_prog ~name prog ?least
          ?cap:(if r.Explore.reg_bounded then Some 400 else None)
          ~pins:(if r.Explore.reg_bounded then [ ("executions", "400") ] else [])
          ~cross:(s = "icb" || s = "dfs")
          ~slice:(fun c ->
            match (c.runner, c.cut) with
            | _, Chunks when name = "peterson, icb" ->
              ( "checkpoint",
                "interrupt/resume matches an uninterrupted run (peterson)" )
            | Serial, Half Serial when name = "bluetooth, random" && not c.cache
              ->
              ("checkpoint", "random walk resumes its RNG stream")
            | Workers _, Whole -> ("equivalence", s)
            | Pool _, Whole ->
              ("equivalence", s ^ " on peterson and bluetooth matches serially")
            | Serial, Whole -> ("equivalence", "cached = uncached (" ^ s ^ ")")
            | _ -> ("kill-resume", "kill/resume round-trips (" ^ s ^ ")"))
          r.Explore.reg_strategy
      in
      let dfs = row (List.find (fun r -> r.Explore.reg_name = "dfs") registry) in
      List.map
        (fun (r : Explore.registered) ->
          match r.Explore.reg_name with
          | "dfs" -> dfs
          | "icb" -> row ~least:dfs r
          | _ -> row r)
        registry)
    [ ("peterson", peterson ()); ("bluetooth", bluetooth ()) ]

(* A 3-enqueuer Michael-Scott queue under the CHESS engine (worker
   threads would share a domain's active run, so no worker cells). *)
let msqueue () =
  let module Api = Icb_chess.Api in
  let module Q = Icb_lockfree.Msqueue in
  let q = Q.create () and d = Api.Semaphore.create 0 in
  for v = 1 to 3 do
    Api.spawn (fun () ->
        Q.enqueue q v;
        Api.Semaphore.release d)
  done;
  for _ = 1 to 3 do
    Api.Semaphore.acquire d
  done;
  let rec drain acc =
    match Q.dequeue q with Some v -> drain (v :: acc) | None -> acc
  in
  if List.sort compare (drain []) <> [ 1; 2; 3 ] then
    failwith "queue lost or duplicated a value"

(* The rows the replaced cases pinned, on the runners they used. *)
let pinned_rows =
  [
    of_prog ~name:"peterson, icb:3" (peterson ())
      ~cells:[ at (Pool 4) Whole ]
      ~slice:(named "equivalence" "peterson (check-before-set) matches serially")
      (icb (Some 3));
    of_prog ~name:"bluetooth, icb:3" (bluetooth ())
      ~cells:[ at (Pool 4) Whole ]
      ~slice:(named "equivalence" "bluetooth driver (buggy) matches serially")
      (icb (Some 3));
    of_prog ~name:"pop reads head first, icb:2" (pop_head ())
      ~cells:[ at (Pool 4) Whole; at ~cache:true (Pool 4) Whole ]
      ~slice:
        (named "equivalence"
           "work-stealing queue (pop reads head first) matches serially")
      (icb (Some 2));
    of_prog ~name:"pop reads head first, icb:3" (pop_head ())
      ~cells:
        (List.map (at ~cache:true (Pool 4)) [ Whole; Half Serial; Half (Pool 4) ]
        @ [ at ~cache:true (Workers (1, 16)) Whole;
            at ~cache:true (Workers (2, 16)) Whole; at (Workers (2, 16)) Whole ])
      ~slice:(fun c ->
        match (c.runner, c.cut) with
        | Workers _, _ ->
          ( "equivalence",
            "icb:3 on the work-stealing queue (pop reads head first), batch 16" )
        | _, Whole ->
          ( "equivalence",
            "bound 3: work-stealing queue (pop reads head first) matches \
             serially" )
        | _ ->
          ( "stress",
            "a killed parallel run resumes (serially and in parallel) with no \
             duplicated work" ))
      (icb (Some 3));
    of_prog ~name:"unlocked steal, icb:2"
      (Icb_models.Workstealing.program Icb_models.Workstealing.Bug_unlocked_steal)
      ~cells:[ at ~cache:true (Pool 4) Whole; at Serial Chunks ]
      ~slice:(fun c ->
        if c.cut = Whole then
          ("equivalence", "work-stealing queue (unlocked steal) matches serially")
        else
          ( "checkpoint",
            "interrupt/resume matches an uninterrupted run (workstealing bug)" ))
      (icb (Some 2));
    of_prog ~name:"stale entry, icb:2"
      (Icb_models.Transaction.program Icb_models.Transaction.Bug_stale_entry)
      ~pins:[ ("keys", "assert:flushed a transaction before its timeout") ]
      ~cells:[ at ~cache:true (Workers (2, 4)) Whole; at (Workers (2, 4)) Whole ]
      ~slice:(named "transaction" "transaction manager: 2 workers vs serial")
      (icb (Some 2));
    make_row ~name:"msqueue, icb:2" ~env:Strategy.empty_env
      (Icb_chess.Chess_engine.engine msqueue)
      ~pins:[ ("executions", "8677"); ("states", "83869") ]
      ~cells:[ at (Pool 2) Whole; at Serial Chunks ]
      ~slice:(fun c ->
        if c.cut = Whole then
          ("equivalence", "a CHESS search on 2 domains matches serially")
        else ("kill-resume", "a CHESS search resumes as it ran"))
      (icb (Some 2));
  ]

(* Generated two-worker programs from a fixed seed, under icb (with DFS
   minimality), dfs and vb:2: serially and on the pool, uninterrupted,
   killed at half, and finished then resumed. *)
let generated_rows =
  let progs =
    List.map Icb.compile
      (QCheck.Gen.generate ~rand:(Random.State.make [| 2007 |]) ~n:5
         Gen_programs.program)
  in
  let rows ?least strategy =
    let s = Explore.strategy_name strategy in
    List.mapi
      (fun i prog ->
        of_prog
          ~name:(Printf.sprintf "generated #%d, %s" i s)
          prog ?least:(Option.map (fun l -> List.nth l i) least)
          ~cells:
            [ at ~cache:true Serial Whole; at (Pool 2) Whole;
              at ~cache:true (Pool 2) Whole; at Serial (Half Serial);
              at (Pool 2) (Half (Pool 2)); at Serial Finished ]
          ~slice:(named "generated" ("generated programs, " ^ s))
          strategy)
      progs
  in
  let dfs_rows = rows dfs in
  rows ~least:dfs_rows (icb None)
  @ dfs_rows
  @ rows (Explore.Variable_bound { n = 2; cache = false })

(* Every execution fails an assertion, so under stop_at_first_bug and a
   one-execution cap both limits trip at once: every runner must name
   the one the serial collector trips first. *)
let limit_rows =
  let prog =
    Icb.compile
      {|
var c: int;
mutex m;
proc w() {
  lock(m); c = c + 1; unlock(m);
  assert(false, "every execution fails");
}
main { spawn w(); spawn w(); }
|}
  in
  List.map
    (fun strategy ->
      of_prog
        ~name:("all-fail, " ^ Explore.strategy_name strategy)
        prog ~cap:1 ~first_bug:true
        ~pins:[ ("stop reason", "stopped at first bug") ]
        ~cells:
          (List.filter
             (( <> ) (at Serial Whole))
             (List.concat_map
                (fun r -> [ at r Whole; at r Finished ])
                [ Serial; Pool 2; Workers (2, 4) ]))
        ~slice:(named "limits" "every runner names the same stop reason")
        strategy)
    [ icb (Some 3); dfs; Explore.Random_walk { seed = 5L } ]

(* --- the cases ----------------------------------------------------------- *)

(* One case per slice, running its cells in the rows' order. *)
let () =
  let slices = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          let k = row.slice c in
          if not (Hashtbl.mem slices k) then order := k :: !order;
          Hashtbl.add slices k (row, c))
        row.cells)
    (registry_rows @ pinned_rows @ generated_rows @ limit_rows);
  Alcotest.run "conformance"
    (List.map
       (fun g ->
         ( g,
           List.filter_map
             (fun ((g', case) as k) ->
               if g' <> g then None
               else
                 Some
                   (Alcotest.test_case case `Quick (fun () ->
                        List.iter
                          (fun (row, c) -> compare_cell row c)
                          (List.rev (Hashtbl.find_all slices k)))))
             (List.rev !order) ))
       [ "equivalence"; "kill-resume"; "checkpoint"; "stress"; "transaction";
         "generated"; "limits" ])
