module Interp = Icb_machine.Interp
module Var_map = Interp.Var_map

(* A data variable's last-write epoch (the writer and its own clock
   component at the write; [w_tid = -1] before any write) and the read
   epochs since that write, indexed by reader.  A thread's own component
   is at least 1, so a 0 read epoch means "no read"; [reads] never ends in
   0, so [[||]] is exactly "no reads since the write". *)
type data_state = {
  w_tid : int;
  w_clock : int;
  reads : int array;
}

type t = {
  clocks : Vclock.t array;     (* per thread; [empty] until it first acts *)
  sync_vc : Vclock.t Var_map.t;
  data : data_state Var_map.t;
}

let empty = { clocks = [||]; sync_vc = Var_map.empty; data = Var_map.empty }

let untouched = { w_tid = -1; w_clock = 0; reads = [||] }

(* A thread's clock starts at {t:1} so its first operation has a non-zero
   epoch. *)
let clock_of t tid =
  let c =
    if tid < Array.length t.clocks then t.clocks.(tid) else Vclock.empty
  in
  if Vclock.get c tid = 0 then Vclock.inc c tid else c

(* Copy-on-write update of a per-thread array, growing it with [fill]. *)
let updated a i x ~fill =
  let len = Array.length a in
  let a =
    if i < len then Array.copy a
    else Array.append a (Array.make (i + 1 - len) fill)
  in
  a.(i) <- x;
  a

let set_clock clocks tid c = updated clocks tid c ~fill:Vclock.empty

let data_of t var =
  match Var_map.find_opt var t.data with Some d -> d | None -> untouched

exception Race of Report.race

let on_sync t tid var =
  let c = clock_of t tid in
  let vvc =
    match Var_map.find_opt var t.sync_vc with
    | Some vc -> vc
    | None -> Vclock.empty
  in
  (* combined acquire-release: pull the variable's knowledge in, publish the
     joined clock, then advance the thread *)
  let c = Vclock.join c vvc in
  let sync_vc = Var_map.add var c t.sync_vc in
  { clocks = set_clock t.clocks tid (Vclock.inc c tid); sync_vc; data = t.data }

let on_fork t parent child =
  let cp = clock_of t parent in
  let cc = Vclock.join (clock_of t child) cp in
  let clocks = set_clock t.clocks child cc in
  { t with clocks = set_clock clocks parent (Vclock.inc cp parent) }

let check_write d c tid var =
  let u = d.w_tid in
  if u >= 0 && u <> tid && d.w_clock > Vclock.get c u then
    raise (Race { Report.var; tid1 = u; tid2 = tid })

(* FastTrack's same-epoch cases return [t] itself.  A repeated read at the
   reader's current epoch: no write intervened (a write clears [reads]),
   and the check the first read passed still passes, since clocks only
   grow.  A repeated write at the writer's current epoch with no reads
   since: every check is against the writer itself. *)
let on_read t tid var =
  let c = clock_of t tid in
  let d = data_of t var in
  let e = Vclock.get c tid in
  if tid < Array.length d.reads && d.reads.(tid) = e then t
  else begin
    check_write d c tid var;
    let d = { d with reads = updated d.reads tid e ~fill:0 } in
    { t with data = Var_map.add var d t.data }
  end

let on_write t tid var =
  let c = clock_of t tid in
  let d = data_of t var in
  let e = Vclock.get c tid in
  if d.w_tid = tid && d.w_clock = e && Array.length d.reads = 0 then t
  else begin
    check_write d c tid var;
    (* increasing reader order: the lowest racing reader is reported *)
    Array.iteri
      (fun u k ->
        if u <> tid && k > Vclock.get c u then
          raise (Race { Report.var; tid1 = u; tid2 = tid }))
      d.reads;
    let d = { w_tid = tid; w_clock = e; reads = [||] } in
    { t with data = Var_map.add var d t.data }
  end

let observe t events =
  try
    Ok
      (List.fold_left
         (fun t ev ->
           match (ev : Interp.event) with
           | Ev_sync { tid; var } -> on_sync t tid var
           | Ev_fork { parent; child } -> on_fork t parent child
           | Ev_data { tid; var; write } ->
             if write then on_write t tid var else on_read t tid var
           | Ev_lifetime _ -> t)
         t events)
  with Race r -> Error r
