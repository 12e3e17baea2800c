(* Schedule surgery and replay probing.

   The minimizer's contract rests on two properties of the engines:
   replay determinism (the same schedule reaches the same terminal state
   — guaranteed for the machine engine, and checked by the stateless
   engine's divergence detection) and the shared preemption-accounting
   rule [Engine.preempting].  Everything here replays defensively: a
   schedule produced by syntactic surgery may name a disabled thread or
   reach a different outcome, and that simply means "candidate
   rejected", never an exception escaping to the caller. *)

open Icb_search

type witness = {
  schedule : int list;
  preemptions : int;
  context_switches : int;
  depth : int;
}

(* The schedule component makes the order total: two witnesses with equal
   counts but different schedules never compare equal, so "keep the best
   seen so far" picks the same one on every run. *)
let better a b =
  compare
    (a.preemptions, a.depth, a.schedule)
    (b.preemptions, b.depth, b.schedule)
  < 0

let count_switches = Collector.count_switches

exception Budget

let tick steps =
  if !steps <= 0 then raise Budget;
  decr steps

(* The search's own keying, so a crash-contained bug
   ("engine-crash:Stack_overflow", "nondeterministic-program") matches
   the replayed exception during minimization, and a terminal status
   matches the bug the collector would have recorded for it. *)
let crash_key = Search_core.crash_key

let status_matches ~deadlock_is_error ~key status =
  match Collector.status_bug ~deadlock_is_error status with
  | Some (k, _) -> k = key
  | None -> false

let witness_of (type s) (module E : Engine.S with type state = s) st =
  let schedule = E.schedule st in
  {
    schedule;
    preemptions = E.preemptions st;
    context_switches = count_switches schedule;
    depth = E.depth st;
  }

(* A crashing step never completes, so the witness is assembled from the
   pre-crash state plus the provoking tid — the same shape crash
   containment records. *)
let crash_witness (type s) (module E : Engine.S with type state = s) st t =
  let schedule = E.schedule st @ [ t ] in
  {
    schedule;
    preemptions = E.preemptions st;
    context_switches = count_switches schedule;
    depth = E.depth st + 1;
  }

let probe (type s) (module E : Engine.S with type state = s)
    ~deadlock_is_error ~key ~steps sched =
  let rec go st sched =
    let status = E.status st in
    if Engine.is_terminal status then
      if status_matches ~deadlock_is_error ~key status then
        Some (witness_of (module E) st)
      else None
    else
      match sched with
      | [] -> None
      | t :: rest ->
        if not (List.mem t (E.enabled st)) then None
        else begin
          tick steps;
          match E.step st t with
          | st' -> go st' rest
          | exception exn ->
            if crash_key exn = key then Some (crash_witness (module E) st t)
            else None
        end
  in
  go (E.initial ()) sched

let preemption_stack (type s) (module E : Engine.S with type state = s)
    sched =
  let rec go st last i acc = function
    | [] -> List.rev acc
    | t :: rest ->
      let en = E.enabled st in
      if not (List.mem t en) then
        invalid_arg
          (Printf.sprintf
             "Sched.preemption_stack: thread %d not enabled at step %d" t i);
      let acc =
        if Engine.preempting ~last_tid:last ~enabled:en ~chosen:t then
          (i, last, t) :: acc
        else acc
      in
      (match E.step st t with
      | st' -> go st' t (i + 1) acc rest
      | exception _ when rest = [] ->
        (* the final step of a crash-contained bug schedule: the switch's
           preempting-ness was decided above, the step itself never
           completes *)
        List.rev acc
      | exception exn ->
        invalid_arg
          (Printf.sprintf
             "Sched.preemption_stack: engine raised at step %d: %s" i
             (Printexc.to_string exn)))
  in
  go (E.initial ()) (-1) 0 [] sched

(* --- delay-merge surgery ------------------------------------------------- *)

(* Schedules are manipulated as runs: maximal same-tid segments with
   their flat start index. *)
let runs sched =
  let rec go acc = function
    | [] -> List.rev acc
    | t :: rest -> (
      match acc with
      | (t', n) :: tl when t' = t -> go ((t', n + 1) :: tl) rest
      | _ -> go ((t, 1) :: acc) rest)
  in
  go [] sched

let merge rs =
  List.rev
    (List.fold_left
       (fun acc (t, n) ->
         match acc with
         | (t', n') :: tl when t' = t -> (t', n' + n) :: tl
         | _ -> (t, n) :: acc)
       [] rs)

let flatten rs = List.concat_map (fun (t, n) -> List.init n (fun _ -> t)) rs

let remove_preemption sched ~at =
  let with_starts =
    let _, acc =
      List.fold_left
        (fun (pos, acc) (t, n) -> (pos + n, (pos, t, n) :: acc))
        (0, []) (runs sched)
    in
    List.rev acc
  in
  (* split at the run starting exactly at [at]; the run before it belongs
     to the preempted thread *)
  let rec split before = function
    | (start, _, _) :: _ as after when start = at && before <> [] ->
      Some (List.rev before, after)
    | r :: rest -> split (r :: before) rest
    | [] -> None
  in
  match split [] with_starts with
  | None -> None
  | Some (before, after) ->
    let _, preempted, _ = List.nth before (List.length before - 1) in
    (* pull the preempted thread's next run forward to just after its
       interrupted run; everything in between slides later *)
    let rec extract skipped = function
      | (_, t, n) :: rest when t = preempted ->
        Some ((t, n), List.rev skipped, rest)
      | r :: rest -> extract (r :: skipped) rest
      | [] -> None
    in
    (match extract [] after with
    | None -> None
    | Some (resumed, between, rest) ->
      let strip = List.map (fun (_, t, n) -> (t, n)) in
      Some
        (flatten
           (merge (strip before @ (resumed :: strip between) @ strip rest))))

let remove_preemptions sched ~at =
  (* latest first: the transformation leaves the prefix before the removed
     switch untouched, so earlier step indices keep their meaning *)
  let at = List.sort_uniq (fun a b -> compare b a) at in
  List.fold_left
    (fun acc i ->
      match acc with
      | None -> None
      | Some s -> remove_preemption s ~at:i)
    (Some sched) at

(* --- bounded canonical search -------------------------------------------- *)

let bounded_find (type s) (module E : Engine.S with type state = s)
    ~deadlock_is_error ~key ~max_preemptions ~steps ~tried ~prefix () =
  let exception Found of witness in
  let rec dfs st last =
    let status = E.status st in
    if Engine.is_terminal status then begin
      incr tried;
      if status_matches ~deadlock_is_error ~key status then
        raise (Found (witness_of (module E) st))
    end
    else begin
      let en = E.enabled st in
      (* canonical visit order: continue the running thread (free), then
         the others by increasing tid — input-independent, so the first
         hit is the same whatever schedule seeded the minimization *)
      let order =
        if List.mem last en then last :: List.filter (fun t -> t <> last) en
        else en
      in
      let p = E.preemptions st in
      List.iter
        (fun t ->
          let cost =
            if Engine.preempting ~last_tid:last ~enabled:en ~chosen:t then 1
            else 0
          in
          if p + cost <= max_preemptions then begin
            tick steps;
            (* the exception clause catches only [E.step]'s own raises;
               [Found] and [Budget] from the recursive call propagate *)
            match E.step st t with
            | st' -> dfs st' t
            | exception exn ->
              incr tried;
              if crash_key exn = key then
                raise (Found (crash_witness (module E) st t))
          end)
        order
    end
  in
  let rec replay st last = function
    | [] -> Some (st, last)
    | t :: rest ->
      if Engine.is_terminal (E.status st) then None
      else if not (List.mem t (E.enabled st)) then None
      else begin
        tick steps;
        match E.step st t with
        | st' -> replay st' t rest
        | exception _ -> None
      end
  in
  match replay (E.initial ()) (-1) prefix with
  | None -> None
  | Some (st, last) -> ( try dfs st last; None with Found w -> Some w)
