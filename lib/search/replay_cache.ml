type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable steps_saved : int;
  mutable steps_replayed : int;
}

let zero () = { hits = 0; misses = 0; steps_saved = 0; steps_replayed = 0 }

let accum ~into s =
  into.hits <- into.hits + s.hits;
  into.misses <- into.misses + s.misses;
  into.steps_saved <- into.steps_saved + s.steps_saved;
  into.steps_replayed <- into.steps_replayed + s.steps_replayed

(* The path's first [len] steps are [tids.(i)], with [snaps.(i)] the state
   after step [i + 1].  [len] never covers a slot that a later schedule
   has not rewritten, so the path is always one replayable schedule. *)
type ('a, 'v) memo = {
  capture : 'a -> 'v;
  restore : 'v -> 'a;
  mutable tids : int array;
  mutable snaps : 'v array;
  mutable len : int;
}

let memo ~capture ~restore =
  { capture; restore; tids = [||]; snaps = [||]; len = 0 }

(* Write step [k] of the path, growing the arrays on demand. *)
let record m k tid st =
  let v = m.capture st in
  if k >= Array.length m.tids then begin
    let cap = max 32 (2 * k) in
    let tids = Array.make cap 0 and snaps = Array.make cap v in
    Array.blit m.tids 0 tids 0 k;
    Array.blit m.snaps 0 snaps 0 k;
    m.tids <- tids;
    m.snaps <- snaps
  end;
  m.tids.(k) <- tid;
  m.snaps.(k) <- v;
  m.len <- k + 1

let replay memo ~stats ~init ~step sched =
  match sched with
  | [] -> Ok (init ())
  | _ ->
    let k, rest =
      match memo with
      | None -> (0, sched)
      | Some m ->
        let rec common k = function
          | tid :: rest when k < m.len && m.tids.(k) = tid -> common (k + 1) rest
          | rest -> (k, rest)
        in
        let k, rest = common 0 sched in
        m.len <- k;
        (k, rest)
    in
    let st0 =
      match memo with
      | Some m when k > 0 ->
        stats.hits <- stats.hits + 1;
        stats.steps_saved <- stats.steps_saved + k;
        m.restore m.snaps.(k - 1)
      | Some _ | None ->
        stats.misses <- stats.misses + 1;
        init ()
    in
    let rec go st k = function
      | [] -> Ok st
      | tid :: rest -> (
        match step st tid with
        | st' ->
          stats.steps_replayed <- stats.steps_replayed + 1;
          (match memo with Some m -> record m k tid st' | None -> ());
          go st' (k + 1) rest
        | exception exn -> Error (st, tid, exn))
    in
    go st0 k rest
