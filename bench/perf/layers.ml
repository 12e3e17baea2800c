(* Outside-in layer accounting for the traced run.

   Nothing here reaches inside the library: time is split across layers
   by wrapping the two public seams every search goes through, the engine
   ([Engine.S]) and the strategy ([Strategy.S]), and by timing the calls
   the benchmark itself makes (compiling, checkpoint files).  Counters
   live in one record per OCaml domain, so parallel workers never share
   a cache line on the hot path; the records are summed once the rep is
   over.

   Engine calls are far too frequent to trace one by one: each is counted
   and timed into its domain's record, and the enclosing strategy span
   carries the engine time nested in it.  Strategy calls ([roots],
   [expand], the [after_round] barrier, [to_prefixes]) and the
   benchmark's own rep/verdict spans are recorded as spans, kept per
   domain in memory and written out once as Chrome [trace_event] JSON. *)

module Json = Icb_obs.Json
module Engine = Icb_search.Engine
module Strategy = Icb_search.Strategy

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* --- per-domain records ---------------------------------------------------- *)

let engine_ops =
  [| "initial"; "step"; "enabled"; "status"; "signature"; "schedule";
     "snapshot"; "restore" |]

let strategy_ops = [| "roots"; "expand"; "after_round"; "to_prefixes" |]
let op_roots = 0
let op_expand = 1
let op_after_round = 2
let op_to_prefixes = 3

type span = {
  sp_name : string;
  sp_id : int;
  sp_parent : int;  (* -1 for a top-level span *)
  sp_t0 : int;
  sp_t1 : int;
  sp_args : (string * Json.t) list;
}

type dom = {
  lane : int;  (* registration order: the Chrome trace "tid" *)
  e_calls : int array;
  e_ns : int array;
  mutable e_total : int;  (* sum of [e_ns], read around nested calls *)
  mutable worker : int;  (* engine instance last used on this domain *)
  s_calls : int array;
  s_ns : int array;
  s_engine_ns : int array;  (* engine time nested in each strategy op *)
  mutable compile_calls : int;
  mutable compile_ns : int;
  mutable spans : span list;
  mutable open_span : int;
}

let registry_m = Mutex.create ()
let registry : dom list ref = ref []
let next_span = Atomic.make 0

(* the rep's top-level span: the parent of spans opened on worker
   domains, which have no enclosing span of their own *)
let root_span = Atomic.make (-1)

let fresh_dom () =
  Mutex.protect registry_m (fun () ->
      let d =
        {
          lane = List.length !registry;
          e_calls = Array.make (Array.length engine_ops) 0;
          e_ns = Array.make (Array.length engine_ops) 0;
          e_total = 0;
          worker = -1;
          s_calls = Array.make (Array.length strategy_ops) 0;
          s_ns = Array.make (Array.length strategy_ops) 0;
          s_engine_ns = Array.make (Array.length strategy_ops) 0;
          compile_calls = 0;
          compile_ns = 0;
          spans = [];
          open_span = -1;
        }
      in
      registry := d :: !registry;
      d)

let key = Domain.DLS.new_key fresh_dom
let doms () = Mutex.protect registry_m (fun () -> List.rev !registry)

(* --- spans ----------------------------------------------------------------- *)

let with_span ?(args = fun () -> []) name f =
  let d = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_span 1 in
  let enclosing = d.open_span in
  let parent = if enclosing >= 0 then enclosing else Atomic.get root_span in
  d.open_span <- id;
  let t0 = now () in
  let close () =
    d.open_span <- enclosing;
    d.spans <-
      { sp_name = name; sp_id = id; sp_parent = parent; sp_t0 = t0;
        sp_t1 = now (); sp_args = args () }
      :: d.spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

(* The rep span opens first, on the main domain; everything else nests
   under it. *)
let rep_span name f =
  Atomic.set root_span (Atomic.get next_span);
  with_span name f

(* --- the engine wrapper ---------------------------------------------------- *)

let charge d op t0 =
  let dt = now () - t0 in
  d.e_calls.(op) <- d.e_calls.(op) + 1;
  d.e_ns.(op) <- d.e_ns.(op) + dt;
  d.e_total <- d.e_total + dt

(* One instance per worker: [worker] tags the domain records the
   instance's calls land in, which is how per-worker busy time is told
   apart when the driver re-spawns its domains every round. *)
let engine (type s) ~worker (module E : Engine.S with type state = s) :
    (module Engine.S with type state = s) =
  let[@inline] timed op f x =
    let d = Domain.DLS.get key in
    d.worker <- worker;
    let t0 = now () in
    match f x with
    | v -> charge d op t0; v
    | exception e -> charge d op t0; raise e
  in
  (module struct
    include E

    let initial () = timed 0 E.initial ()

    let step s tid =
      let d = Domain.DLS.get key in
      d.worker <- worker;
      let t0 = now () in
      match E.step s tid with
      | v -> charge d 1 t0; v
      | exception e -> charge d 1 t0; raise e

    let enabled s = timed 2 E.enabled s
    let status s = timed 3 E.status s
    let signature s = timed 4 E.signature s
    let schedule s = timed 5 E.schedule s
    let snapshot = Option.map (fun cap s -> timed 6 cap s) E.snapshot
    let restore x = timed 7 E.restore x
  end)

(* --- the strategy wrapper -------------------------------------------------- *)

let strategy_call op f =
  let d = Domain.DLS.get key in
  let e0 = d.e_total in
  let t0 = now () in
  let finish () =
    d.s_calls.(op) <- d.s_calls.(op) + 1;
    d.s_ns.(op) <- d.s_ns.(op) + (now () - t0);
    d.s_engine_ns.(op) <- d.s_engine_ns.(op) + (d.e_total - e0)
  in
  let args () =
    [ ("engine_ms", Json.Float (float_of_int (d.e_total - e0) /. 1e6)) ]
  in
  match with_span ~args strategy_ops.(op) f with
  | v -> finish (); v
  | exception e -> finish (); raise e

let strategy (type s) (module S : Strategy.S with type state = s) :
    (module Strategy.S with type state = s) =
  (module struct
    include S

    let roots e w col = strategy_call op_roots (fun () -> S.roots e w col)
    let expand e w ctx it = strategy_call op_expand (fun () -> S.expand e w ctx it)

    let after_round col ~wstates ~deferred =
      strategy_call op_after_round (fun () -> S.after_round col ~wstates ~deferred)

    let to_prefixes ~wstates ~work ~next =
      strategy_call op_to_prefixes (fun () -> S.to_prefixes ~wstates ~work ~next)
  end)

(* --- benchmark-side timings ------------------------------------------------ *)

let compile f =
  let d = Domain.DLS.get key in
  let t0 = now () in
  let v = f () in
  d.compile_calls <- d.compile_calls + 1;
  d.compile_ns <- d.compile_ns + (now () - t0);
  v

let reset () =
  Mutex.protect registry_m (fun () ->
      List.iter
        (fun d ->
          Array.fill d.e_calls 0 (Array.length d.e_calls) 0;
          Array.fill d.e_ns 0 (Array.length d.e_ns) 0;
          d.e_total <- 0;
          d.worker <- -1;
          Array.fill d.s_calls 0 (Array.length d.s_calls) 0;
          Array.fill d.s_ns 0 (Array.length d.s_ns) 0;
          Array.fill d.s_engine_ns 0 (Array.length d.s_engine_ns) 0;
          d.compile_calls <- 0;
          d.compile_ns <- 0;
          d.spans <- [];
          d.open_span <- -1)
        !registry);
  Atomic.set root_span (-1)

(* --- summaries ------------------------------------------------------------- *)

let sum f = List.fold_left (fun acc d -> acc + f d) 0 (doms ())

let engine_calls op = sum (fun d -> d.e_calls.(op))
let engine_ns op = sum (fun d -> d.e_ns.(op))
let strategy_calls op = sum (fun d -> d.s_calls.(op))
let strategy_ns op = sum (fun d -> d.s_ns.(op))
let compile_calls () = sum (fun d -> d.compile_calls)
let compile_ns () = sum (fun d -> d.compile_ns)

let expand_self_ns () =
  sum (fun d -> d.s_ns.(op_expand) - d.s_engine_ns.(op_expand))

let engine_outside_strategy d =
  d.e_total - Array.fold_left ( + ) 0 d.s_engine_ns

(* Time the rep spent inside wrapped calls on any domain: strategy time
   plus engine time outside any strategy call. *)
let wrapped_ns () =
  sum (fun d -> Array.fold_left ( + ) 0 d.s_ns + engine_outside_strategy d)

(* A worker is busy while it expands an item or, for workers that run
   no wrapped strategy (distributed ones), while it is inside the engine.
   Barrier work ([after_round], [to_prefixes]) on the coordinating
   domain is not any worker's busy time. *)
let busy_ns ~workers =
  Array.init workers (fun w ->
      sum (fun d ->
          if d.worker <> w then 0
          else d.s_ns.(op_expand) + engine_outside_strategy d))

(* --- Chrome trace_event output -------------------------------------------- *)

let chrome_json () =
  let t_origin =
    List.fold_left
      (fun acc d ->
        List.fold_left (fun acc s -> min acc s.sp_t0) acc d.spans)
      max_int (doms ())
  in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let events =
    List.concat_map
      (fun d ->
        List.rev_map
          (fun s ->
            Json.Obj
              [
                ("name", Json.String s.sp_name);
                ("ph", Json.String "X");
                ("ts", us (s.sp_t0 - t_origin));
                ("dur", us (s.sp_t1 - s.sp_t0));
                ("pid", Json.Int 1);
                ("tid", Json.Int d.lane);
                ( "args",
                  Json.Obj
                    (("id", Json.Int s.sp_id)
                    :: ("parent", Json.Int s.sp_parent)
                    :: s.sp_args) );
              ])
          d.spans)
      (doms ())
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]