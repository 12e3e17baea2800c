(* Bug fingerprints and bundle-directory clustering. *)

module Json = Icb_obs.Json
module Fnv = Icb_util.Fnv

let fingerprint (type s) (module E : Icb_search.Engine.S with type state = s)
    ~key schedule =
  match Sched.preemption_stack (module E) schedule with
  | stack ->
    let h =
      List.fold_left
        (fun h (i, from_tid, to_tid) ->
          Fnv.int (Fnv.int (Fnv.int h i) from_tid) to_tid)
        (Fnv.string Fnv.basis key)
        stack
    in
    Printf.sprintf "%s@%s" key (Fnv.to_hex h)
  | exception _ -> key ^ "@unreplayable"

type cluster = {
  cl_key : string;
  cl_bundles : (string * Bundle.t) list;
  cl_fingerprints : string list;
  cl_targets : string list;
  cl_strategies : string list;
  cl_min_preemptions : int;
  cl_min_length : int;
  cl_minimized : bool;
  cl_new : bool;
}

type report = {
  dir : string;
  clusters : cluster list;
  total : int;
  corrupt : (string * string) list;
}

let scan ?(known = []) dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  let loaded, corrupt =
    List.fold_left
      (fun (ok, bad) f ->
        match Bundle.load (Filename.concat dir f) with
        | b -> ((f, b) :: ok, bad)
        | exception Bundle.Corrupt msg -> (ok, (f, msg) :: bad))
      ([], []) files
  in
  let loaded = List.rev loaded and corrupt = List.rev corrupt in
  let keys =
    List.sort_uniq compare
      (List.map (fun (_, b) -> b.Bundle.bug_key) loaded)
  in
  let clusters =
    List.map
      (fun key ->
        let members =
          List.filter (fun (_, b) -> b.Bundle.bug_key = key) loaded
        in
        let distinct f = List.sort_uniq compare (List.map f members) in
        let fingerprints = distinct (fun (_, b) -> b.Bundle.fingerprint) in
        let minimum f =
          List.fold_left
            (fun acc (_, b) -> min acc (f b))
            max_int members
        in
        {
          cl_key = key;
          cl_bundles = members;
          cl_fingerprints = fingerprints;
          cl_targets =
            distinct (fun (_, b) -> b.Bundle.kind ^ ":" ^ b.Bundle.target);
          cl_strategies = distinct (fun (_, b) -> b.Bundle.strategy);
          cl_min_preemptions = minimum (fun b -> b.Bundle.preemptions);
          cl_min_length = minimum (fun b -> List.length b.Bundle.schedule);
          cl_minimized =
            List.exists (fun (_, b) -> b.Bundle.minimized) members;
          cl_new =
            not (List.exists (fun fp -> List.mem fp known) fingerprints);
        })
      keys
  in
  { dir; clusters; total = List.length loaded; corrupt }

let known_fingerprints json =
  let list j key = Result.value (Json.list j key) ~default:[] in
  List.concat_map
    (fun c -> List.filter_map Json.to_str (list c "fingerprints"))
    (list json "clusters")

let to_json r =
  Json.Obj
    [
      ("dir", Json.String r.dir);
      ("total", Json.Int r.total);
      ( "corrupt",
        Json.List
          (List.map
             (fun (f, msg) ->
               Json.Obj
                 [ ("file", Json.String f); ("error", Json.String msg) ])
             r.corrupt) );
      ( "clusters",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("key", Json.String c.cl_key);
                   ("bundles", Json.Int (List.length c.cl_bundles));
                   ( "fingerprints",
                     Json.List
                       (List.map (fun f -> Json.String f) c.cl_fingerprints)
                   );
                   ( "targets",
                     Json.List
                       (List.map (fun t -> Json.String t) c.cl_targets) );
                   ( "strategies",
                     Json.List
                       (List.map (fun s -> Json.String s) c.cl_strategies)
                   );
                   ("min_preemptions", Json.Int c.cl_min_preemptions);
                   ("min_length", Json.Int c.cl_min_length);
                   ("minimized", Json.Bool c.cl_minimized);
                   ("new", Json.Bool c.cl_new);
                 ])
             r.clusters) );
    ]

let pp ppf r =
  let new_count = List.length (List.filter (fun c -> c.cl_new) r.clusters) in
  Format.fprintf ppf "%s: %d bundle(s), %d distinct bug(s) (%d new, %d known)"
    r.dir r.total (List.length r.clusters) new_count
    (List.length r.clusters - new_count);
  if r.corrupt <> [] then
    Format.fprintf ppf ", %d corrupt file(s) skipped"
      (List.length r.corrupt);
  Format.fprintf ppf "@.";
  if r.clusters <> [] then begin
    Format.fprintf ppf "@.%-32s %7s %8s %7s %6s  %s@." "KEY" "BUNDLES"
      "MIN PRE" "MIN LEN" "STATE" "STRATEGIES / TARGETS";
    List.iter
      (fun c ->
        Format.fprintf ppf "%-32s %7d %8d %7d %6s  %s; %s@." c.cl_key
          (List.length c.cl_bundles)
          c.cl_min_preemptions c.cl_min_length
          (if c.cl_new then "new" else "known")
          (String.concat "," c.cl_strategies)
          (String.concat "," c.cl_targets))
      r.clusters
  end;
  List.iter
    (fun (f, msg) -> Format.fprintf ppf "corrupt: %s: %s@." f msg)
    r.corrupt
