module Machine = Icb_machine
module Zlang = Icb_zlang
module Race = Icb_race
module Search = Icb_search
module Obs = Icb_obs
module Util = Icb_util

type prog = Icb_machine.Prog.t
type bug = Icb_search.Sresult.bug
type result = Icb_search.Sresult.t

exception Compile_error of string

let compile src =
  try Icb_zlang.Zl.compile_source src
  with Icb_zlang.Zl.Error msg -> raise (Compile_error msg)

let compile_file path =
  try Icb_zlang.Zl.compile_file path
  with Icb_zlang.Zl.Error msg -> raise (Compile_error msg)

let engine ?(config = Icb_search.Mach_engine.default_config) prog =
  (module Icb_search.Mach_engine.Make (struct
    let config = config
    let prog = prog
  end) : Icb_search.Engine.S
    with type state = Icb_search.Mach_engine.state)

let run ?config ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta
    ?resume_from ?telemetry ?domains ?cache ?on_cache_stats ~strategy prog =
  (* the variable-bounding strategies consume the program's static
     shared-variable ranking; deriving it is cheap, so it rides along on
     every run and the other strategies simply ignore it *)
  Icb_search.Explore.run (engine ?config prog) ?options ?checkpoint_out
    ?checkpoint_every ?checkpoint_meta ?resume_from ?telemetry ?domains
    ?cache ?on_cache_stats
    ~env:(Icb_search.Strategy.env_of_prog prog)
    strategy

let run_parallel ?config ?options ?checkpoint_out ?checkpoint_every
    ?checkpoint_meta ?resume_from ?telemetry ?max_bound ?(cache = false)
    ?replay_cache ?on_cache_stats ~domains prog =
  (* Each worker gets its own machine-engine instance, and machine states
     are persistent plain data any instance can step, so deferred work
     items carry their live states across the barrier instead of being
     replayed. *)
  let engines _ = engine ?config prog in
  Icb_search.Driver.run engines ?options ?checkpoint_out ?checkpoint_every
    ?checkpoint_meta ?resume_from ?telemetry ~share_states:true ?replay_cache
    ?on_cache_stats ~domains
    (Icb_search.Strategies.icb (engines 0) ~max_bound ~cache)

let resume ?config ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta
    ?telemetry ?domains ?cache prog ckpt =
  Icb_search.Explore.resume (engine ?config prog) ?options ?checkpoint_out
    ?checkpoint_every ?checkpoint_meta ?telemetry ?domains ?cache
    ~env:(Icb_search.Strategy.env_of_prog prog)
    ckpt

module Dist = Icb_dist

let serve ?config ?options ?checkpoint_out ?checkpoint_every ?checkpoint_meta
    ?resume_from ?host ?port ?lease_timeout ?batch_size ?telemetry ?cache
    ?on_coordinator ~strategy prog =
  let coord =
    Icb_dist.Coord.create ?host ?port ?lease_timeout ?batch_size ?telemetry ()
  in
  (match on_coordinator with None -> () | Some f -> f coord);
  Fun.protect
    ~finally:(fun () -> Icb_dist.Coord.shutdown coord)
    (fun () ->
      Icb_dist.Coord.run coord (engine ?config prog) ?options ?checkpoint_out
        ?checkpoint_every ?checkpoint_meta ?resume_from
        ~env:(Icb_search.Strategy.env_of_prog prog)
        ?cache strategy)

let worker ?config ?cache ?resolve ~host ~port () =
  (* the default resolver only knows file provenance; callers with a
     model registry (the CLI) pass their own *)
  let default_resolve meta =
    match
      (List.assoc_opt "kind" meta, List.assoc_opt "target" meta)
    with
    | Some "file", Some path -> (
      match compile_file path with
      | prog -> Ok (Icb_dist.Worker.Packed (engine ?config prog))
      | exception Compile_error m -> Error m
      | exception Sys_error m -> Error m)
    | _ ->
      Error
        "the job's provenance metadata names no model file (need \
         kind=file with a target path; pass ~resolve for other kinds)"
  in
  Icb_dist.Worker.run ?cache ~host ~port
    ~resolve:(Option.value resolve ~default:default_resolve)
    ()

let check ?config ?options ?(max_bound = 3) ?telemetry ?domains ?cache prog =
  Icb_search.Explore.check (engine ?config prog) ?options ~max_bound
    ?telemetry ?domains ?cache ()

let pp_bug fmt (b : bug) =
  Format.fprintf fmt
    "@[<v>%s@ preemptions: %d, context switches: %d, steps: %d@ schedule: %s@]"
    b.msg b.preemptions b.context_switches b.depth
    (String.concat " " (List.map string_of_int b.schedule))

let explain ?(config = Icb_search.Mach_engine.default_config) prog (b : bug) =
  let module E = (val engine ~config prog) in
  let lines = ref [] in
  let add fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  let st = ref (E.initial ()) in
  List.iter
    (fun tid ->
      let before = E.enabled !st in
      let preempting =
        Icb_search.Engine.preempting ~enabled:before
          ~last_tid:(Icb_search.Mach_engine.machine_state !st).Icb_machine.State
           .last_tid ~chosen:tid
      in
      st := E.step !st tid;
      let m = Icb_search.Mach_engine.machine_state !st in
      let th = Icb_machine.State.thread_get m tid in
      add "thread %d ran%s (now at %s pc=%d)%s" tid
        (if preempting then " [preemption]" else "")
        m.Icb_machine.State.prog.procs.(th.proc).pname th.pc
        (match E.status !st with
        | Icb_search.Engine.Failed { msg; _ } -> ": " ^ msg
        | Icb_search.Engine.Deadlock _ -> ": deadlock"
        | Icb_search.Engine.Terminated -> ": all threads finished"
        | Icb_search.Engine.Running -> ""))
    b.schedule;
  List.rev !lines
