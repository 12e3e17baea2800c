(* Repro bundle files, the checkpoint discipline: one [Icb_util.Framing]
   frame, magic "ICBREPR\x01", whose payload is the Marshal of [t]. *)

type t = {
  kind : string;
  target : string;
  strategy : string;
  seed : int64;
  bug_key : string;
  bug_msg : string;
  schedule : int list;
  preemptions : int;
  context_switches : int;
  depth : int;
  found_schedule : int list;
  found_preemptions : int;
  found_depth : int;
  minimized : bool;
  proven_minimal : bool;
  deadlocks_are_errors : bool;
  fingerprint : string;
  meta : (string * string) list;
}

exception Corrupt of string

let magic = "ICBREPR\x01"
let version = 1

let save ~path t =
  Icb_util.Framing.write_file ~path ~magic ~version
    ~payload:(Marshal.to_string t [])

let load path =
  let what = "repro bundle " ^ path in
  let decoded =
    match
      Icb_util.Framing.read_file
        ~check_version:(fun v -> v = version)
        ~path ~magic ()
    with
    | Error e -> Error (Icb_util.Framing.message ~what e)
    | Ok (_, payload) -> Icb_util.Framing.unmarshal ~what payload
  in
  match decoded with Ok t -> t | Error msg -> raise (Corrupt msg)

let verify (type s) (module E : Icb_search.Engine.S with type state = s) t =
  match
    Sched.probe (module E)
      ~deadlock_is_error:t.deadlocks_are_errors ~key:t.bug_key
      ~steps:(ref max_int) t.schedule
  with
  | None ->
    Error
      (Printf.sprintf
         "schedule does not reproduce bug %S — the program changed, the \
          wrong variant was rebuilt, or the test body is nondeterministic"
         t.bug_key)
  | Some w ->
    if w.Sched.schedule <> t.schedule then
      Error
        (Printf.sprintf
           "bug %S reproduces %d step(s) early — the recorded schedule has \
            trailing steps the bundle's writer did not see"
           t.bug_key
           (List.length t.schedule - w.Sched.depth))
    else if
      w.Sched.preemptions <> t.preemptions
      || w.Sched.context_switches <> t.context_switches
      || w.Sched.depth <> t.depth
    then
      Error
        (Printf.sprintf
           "bug %S reproduces but the measurements moved: recorded %d \
            preemptions / %d switches / depth %d, replay got %d / %d / %d"
           t.bug_key t.preemptions t.context_switches t.depth
           w.Sched.preemptions w.Sched.context_switches w.Sched.depth)
    else Ok w

let describe t =
  Printf.sprintf
    "%s %s (%s, strategy %s): %d step(s), %d preemption(s)%s"
    t.kind t.target t.bug_key t.strategy (List.length t.schedule)
    t.preemptions
    (if t.minimized then
       if t.proven_minimal then ", minimized (proven)" else ", minimized"
     else "")
