(* Schedule minimization: tail truncation + ddmin over preemption points
   + bounded canonical search.  See the .mli for the phase structure and
   the canonicality argument. *)

module Emit = Icb_obs.Emit
module Event = Icb_obs.Event

type budget = { max_engine_steps : int }

(* Roomy: the bundled models' bounded spaces at small bounds are a few
   thousand executions of a few hundred steps each; proving minimality
   needs one full sweep at (c - 1) per improvement. *)
let default_budget = { max_engine_steps = 50_000_000 }

type stats = {
  original : Sched.witness;
  minimized : Sched.witness;
  candidates : int;
  proven_minimal : bool;
}

let take n l = List.filteri (fun i _ -> i < n) l

(* Zeller's ddmin, phrased over the KEPT subset: [test kept] asks whether
   the bug still reproduces after removing every boundary not in [kept].
   Returns a kept set that passes and is 1-minimal (no single element can
   be dropped).  [test universe] must hold. *)
let ddmin test universe =
  let partition xs n =
    let len = List.length xs in
    let base = len / n and extra = len mod n in
    let rec go i xs acc =
      if i >= n then List.rev acc
      else
        let size = base + if i < extra then 1 else 0 in
        let chunk = take size xs in
        let rest = List.filteri (fun j _ -> j >= size) xs in
        go (i + 1) rest (chunk :: acc)
    in
    List.filter (fun c -> c <> []) (go 0 xs [])
  in
  if universe = [] || test [] then []
  else
    let rec go kept n =
      let len = List.length kept in
      if len <= 1 then kept
      else
        let chunks = partition kept n in
        match List.find_opt test chunks with
        | Some chunk -> go chunk 2 (* reduced to one chunk *)
        | None -> (
          let complement chunk =
            List.filter (fun x -> not (List.mem x chunk)) kept
          in
          match
            List.find_opt (fun c -> test (complement c)) chunks
          with
          | Some chunk -> go (complement chunk) (max (n - 1) 2)
          | None -> if n >= len then kept else go kept (min (2 * n) len))
    in
    go universe 2

let run (type s) (module E : Icb_search.Engine.S with type state = s)
    ?(budget = default_budget) ?(deadlock_is_error = true)
    ?(emit = Emit.null) ~key schedule =
  let steps = ref budget.max_engine_steps in
  let tried = ref 0 in
  let probe sched =
    incr tried;
    Sched.probe (module E) ~deadlock_is_error ~key ~steps sched
  in
  match probe schedule with
  | None ->
    Error
      (Printf.sprintf
         "schedule does not reproduce bug %S (wrong program, options, or a \
          nondeterministic test body?)"
         key)
  | Some original ->
    if Emit.enabled emit then
      Emit.emit emit
        (Event.Minimize_started
           { key; length = original.Sched.depth;
             preemptions = original.Sched.preemptions });
    let best = ref original in
    let improved phase w =
      best := w;
      if Emit.enabled emit then
        Emit.emit emit
          (Event.Minimize_improved
             { phase; candidates = !tried; length = w.Sched.depth;
               preemptions = w.Sched.preemptions })
    in
    (* probe already truncated the tail; surface it as a first improvement
       so the trace shows the trajectory from the raw input *)
    if original.Sched.depth < List.length schedule then
      improved "truncate" original;
    let proven = ref true in
    (* one ddmin sweep over the current witness's preemption points *)
    let ddmin_pass () =
      let base = !best.Sched.schedule in
      let bounds =
        List.map (fun (i, _, _) -> i)
          (Sched.preemption_stack (module E) base)
      in
      let test kept =
        let removed = List.filter (fun b -> not (List.mem b kept)) bounds in
        removed = []
        ||
        match Sched.remove_preemptions base ~at:removed with
        | None -> false
        | Some cand -> (
          match probe cand with
          | None -> false
          | Some w ->
            if Sched.better w !best then improved "ddmin" w;
            true)
      in
      ignore (ddmin test bounds)
    in
    (* try to beat the current preemption count outright: exhaustive
       canonical search at (c - 1), seeded at the surviving preemption
       prefixes (deepest first — cheap, often hits), then the whole
       bounded space (which proves minimality when it comes up empty) *)
    let search_pass () =
      let c = !best.Sched.preemptions in
      if c = 0 then `Minimal
      else begin
        let sched = !best.Sched.schedule in
        let prefixes =
          List.rev_map (fun (i, _, _) -> take i sched)
            (Sched.preemption_stack (module E) sched)
          @ [ [] ]
        in
        let rec attempt = function
          | [] -> `Minimal
          | prefix :: rest -> (
            match
              Sched.bounded_find (module E) ~deadlock_is_error ~key
                ~max_preemptions:(c - 1) ~steps ~tried ~prefix ()
            with
            | Some w ->
              improved "search" w;
              `Improved
            | None -> attempt rest)
        in
        attempt prefixes
      end
    in
    (try
       let rec loop () =
         ddmin_pass ();
         match search_pass () with `Improved -> loop () | `Minimal -> ()
       in
       loop ()
     with Sched.Budget -> proven := false);
    (* canonicalization: adopt the deterministic search's first witness at
       the final bound, making the result input-independent *)
    (try
       match
         Sched.bounded_find (module E) ~deadlock_is_error ~key
           ~max_preemptions:!best.Sched.preemptions ~steps ~tried ~prefix:[]
           ()
       with
       | Some w ->
         if w.Sched.schedule <> !best.Sched.schedule then
           improved "canonical" w
       | None -> ()
     with Sched.Budget -> proven := false);
    if Emit.enabled emit then
      Emit.emit emit
        (Event.Minimize_finished
           { key; candidates = !tried; length = !best.Sched.depth;
             preemptions = !best.Sched.preemptions; proven = !proven });
    Ok
      {
        original;
        minimized = !best;
        candidates = !tried;
        proven_minimal = !proven;
      }

let bug (type s) (module E : Icb_search.Engine.S with type state = s)
    ?budget ?deadlock_is_error ?emit (b : Icb_search.Sresult.bug) =
  run (module E) ?budget ?deadlock_is_error ?emit ~key:b.key b.schedule
