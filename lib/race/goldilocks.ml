module Interp = Icb_machine.Interp
module Imap = Map.Make (Int)
module Var_map = Interp.Var_map

module Elem = struct
  type t =
    | Thread of int
    | Sync of Interp.var_id

  let compare a b =
    match (a, b) with
    | Thread x, Thread y -> Int.compare x y
    | Sync x, Sync y -> Interp.compare_var x y
    | Thread _, Sync _ -> -1
    | Sync _, Thread _ -> 1
end

module Lockset = Set.Make (Elem)

type data_state = {
  wls : (Lockset.t * int) option;  (* write lockset and the writer tid *)
  rls : (Lockset.t * int) Imap.t;  (* per reader thread: lockset, reader tid *)
}

type t = { data : data_state Var_map.t }

let empty = { data = Var_map.empty }

let data_of t var =
  match Var_map.find_opt var t.data with
  | Some d -> d
  | None -> { wls = None; rls = Imap.empty }

(* Transfer rule for a combined acquire-release of sync element [v] by
   thread [tid]: acquiring first (v in LS adds the thread), then releasing
   (thread in LS adds v). *)
let transfer_sync tid v (ls : Lockset.t) =
  let ls = if Lockset.mem (Elem.Sync v) ls then Lockset.add (Elem.Thread tid) ls else ls in
  if Lockset.mem (Elem.Thread tid) ls then Lockset.add (Elem.Sync v) ls else ls

let transfer_fork parent child ls =
  if Lockset.mem (Elem.Thread parent) ls then Lockset.add (Elem.Thread child) ls
  else ls

let map_locksets f t =
  {
    data =
      Var_map.map
        (fun d ->
          {
            wls = Option.map (fun (ls, w) -> (f ls, w)) d.wls;
            rls = Imap.map (fun (ls, r) -> (f ls, r)) d.rls;
          })
        t.data;
  }

exception Race of Report.race

let on_read t tid var =
  let d = data_of t var in
  (match d.wls with
  | Some (ls, writer) when writer <> tid && not (Lockset.mem (Elem.Thread tid) ls)
    -> raise (Race { Report.var; tid1 = writer; tid2 = tid })
  | Some _ | None -> ());
  let d =
    { d with rls = Imap.add tid (Lockset.singleton (Elem.Thread tid), tid) d.rls }
  in
  { data = Var_map.add var d t.data }

let on_write t tid var =
  let d = data_of t var in
  (match d.wls with
  | Some (ls, writer) when writer <> tid && not (Lockset.mem (Elem.Thread tid) ls)
    -> raise (Race { Report.var; tid1 = writer; tid2 = tid })
  | Some _ | None -> ());
  Imap.iter
    (fun reader (ls, _) ->
      if reader <> tid && not (Lockset.mem (Elem.Thread tid) ls) then
        raise (Race { Report.var; tid1 = reader; tid2 = tid }))
    d.rls;
  let d =
    { wls = Some (Lockset.singleton (Elem.Thread tid), tid); rls = Imap.empty }
  in
  { data = Var_map.add var d t.data }

let observe t events =
  try
    Ok
      (List.fold_left
         (fun t ev ->
           match (ev : Interp.event) with
           | Ev_sync { tid; var } -> map_locksets (transfer_sync tid var) t
           | Ev_fork { parent; child } ->
             map_locksets (transfer_fork parent child) t
           | Ev_data { tid; var; write } ->
             if write then on_write t tid var else on_read t tid var
           | Ev_lifetime _ -> t)
         t events)
  with Race r -> Error r
