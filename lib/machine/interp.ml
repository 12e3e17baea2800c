type granularity =
  | Every_access
  | Sync_only

type var_id =
  | Gvar of int * int
  | Hcell of int * int
  | Svar of int * int

let var_kind = function Gvar _ -> 0 | Hcell _ -> 1 | Svar _ -> 2

let compare_var a b =
  match (a, b) with
  | Gvar (a1, a2), Gvar (b1, b2)
  | Hcell (a1, a2), Hcell (b1, b2)
  | Svar (a1, a2), Svar (b1, b2) ->
    let c = Int.compare a1 b1 in
    if c <> 0 then c else Int.compare a2 b2
  | _ -> Int.compare (var_kind a) (var_kind b)

module Var_ord = struct
  type t = var_id

  let compare = compare_var
end

module Var_map = Map.Make (Var_ord)
module Var_set = Set.Make (Var_ord)

type event =
  | Ev_data of { tid : int; var : var_id; write : bool }
  | Ev_sync of { tid : int; var : var_id }
  | Ev_fork of { parent : int; child : int }
  | Ev_lifetime of { tid : int; addr : int; freed : bool }

type step_result = {
  state : State.t;
  events : event list;
  blocking_op : bool;
}

(* Bound on thread-local instructions executed inside one step; a thread
   spinning without touching shared state would otherwise hang the
   checker. *)
let local_fuel = 20_000

let var_name (prog : Prog.t) = function
  | Gvar (gid, idx) ->
    let g = prog.globals.(gid) in
    if g.gsize = 1 then g.gname else Printf.sprintf "%s[%d]" g.gname idx
  | Hcell (addr, idx) -> Printf.sprintf "&%d.[%d]" addr idx
  | Svar (sid, idx) ->
    let s = prog.syncs.(sid) in
    if s.ssize = 1 then s.sname else Printf.sprintf "%s[%d]" s.sname idx

(* --- small-step execution machinery ---------------------------------- *)

exception Model_error of Merr.t

type ctx = {
  mutable st : State.t;
  mutable evs : event list;  (* reversed *)
  gran : granularity;
}

let eval_operand (th : State.thread) = function
  | Instr.Reg r -> th.regs.(r)
  | Instr.Imm v -> v

let eval_int tid th op =
  match eval_operand th op with
  | Value.Int n -> n
  | v ->
    ignore tid;
    invalid_arg ("Interp: expected int, got " ^ Value.to_string v)

let set_reg (th : State.thread) r v =
  let regs = Array.copy th.regs in
  regs.(r) <- v;
  { th with regs }

let is_volatile (prog : Prog.t) gid = prog.globals.(gid).gvolatile

let classify_here (st : State.t) i = Instr.classify ~volatile:(is_volatile st.prog) i

(* Is instruction [i] a scheduling point under granularity [gran]? *)
let is_sched_point gran cls =
  match cls, gran with
  | Instr.Class_sync, _ -> true
  | Instr.Class_data, Every_access -> true
  | Instr.Class_data, Sync_only -> false
  | Instr.Class_local, _ -> false

(* Evaluates operands straight from the thread's registers — no
   materialized argument-value list on this per-step path. *)
let eval_prim tid (th : State.thread) op (args : Instr.operand list) =
  let value1 () =
    match args with
    | [ a ] -> eval_operand th a
    | _ -> invalid_arg "Interp: prim arity"
  in
  let value2 () =
    match args with
    | [ a; b ] -> (eval_operand th a, eval_operand th b)
    | _ -> invalid_arg "Interp: prim arity"
  in
  let int1 () =
    match value1 () with
    | Value.Int a -> a
    | _ -> invalid_arg "Interp: prim arity/type"
  in
  let int2 () =
    match value2 () with
    | Value.Int a, Value.Int b -> (a, b)
    | _ -> invalid_arg "Interp: prim arity/type"
  in
  let bool_of_cmp c = Value.Bool c in
  match (op : Instr.prim) with
  | Add -> let a, b = int2 () in Value.Int (a + b)
  | Sub -> let a, b = int2 () in Value.Int (a - b)
  | Mul -> let a, b = int2 () in Value.Int (a * b)
  | Div ->
    let a, b = int2 () in
    if b = 0 then raise (Model_error (Merr.Division_by_zero { tid }))
    else Value.Int (a / b)
  | Mod ->
    let a, b = int2 () in
    if b = 0 then raise (Model_error (Merr.Division_by_zero { tid }))
    else Value.Int (a mod b)
  | Neg -> Value.Int (-int1 ())
  | Min -> let a, b = int2 () in Value.Int (min a b)
  | Max -> let a, b = int2 () in Value.Int (max a b)
  | Eq -> let a, b = value2 () in bool_of_cmp (Value.equal a b)
  | Ne -> let a, b = value2 () in bool_of_cmp (not (Value.equal a b))
  | Lt -> let a, b = int2 () in bool_of_cmp (a < b)
  | Le -> let a, b = int2 () in bool_of_cmp (a <= b)
  | Gt -> let a, b = int2 () in bool_of_cmp (a > b)
  | Ge -> let a, b = int2 () in bool_of_cmp (a >= b)
  | And -> let a, b = value2 () in Value.Bool (Value.truthy a && Value.truthy b)
  | Or -> let a, b = value2 () in Value.Bool (Value.truthy a || Value.truthy b)
  | Not -> Value.Bool (not (Value.truthy (value1 ())))

let resolve_objref (st : State.t) tid th ({ sid; sidx } : Instr.objref) =
  let idx = eval_int tid th sidx in
  let size = State.sync_size st ~sid in
  if idx < 0 || idx >= size then
    raise
      (Model_error
         (Merr.Out_of_bounds
            { tid; what = st.prog.syncs.(sid).sname; idx; size }));
  (sid, idx)

let global_idx (st : State.t) tid th gid idx_op =
  let idx = eval_int tid th idx_op in
  let size = State.global_size st ~gid in
  if idx < 0 || idx >= size then
    raise
      (Model_error
         (Merr.Out_of_bounds
            { tid; what = st.prog.globals.(gid).gname; idx; size }));
  idx

let heap_cell (st : State.t) tid h_op th =
  match eval_operand th h_op with
  | Value.Handle addr ->
    if addr < 0 then raise (Model_error (Merr.Invalid_handle { tid; addr }));
    (match State.Heap_map.find_opt addr st.heap with
    | None -> raise (Model_error (Merr.Invalid_handle { tid; addr }))
    | Some cell ->
      if cell.freed then
        raise (Model_error (Merr.Use_after_free { tid; addr }));
      (addr, cell))
  | v -> invalid_arg ("Interp: expected handle, got " ^ Value.to_string v)

let heap_idx tid addr (cell : State.heap_cell) idx =
  let size = Array.length cell.data in
  if idx < 0 || idx >= size then
    raise
      (Model_error
         (Merr.Out_of_bounds
            { tid; what = Printf.sprintf "&%d" addr; idx; size }))

let emit ctx ev = ctx.evs <- ev :: ctx.evs

let emit_global_access ctx tid gid idx ~write =
  if is_volatile ctx.st.prog gid then
    emit ctx (Ev_sync { tid; var = Gvar (gid, idx) })
  else emit ctx (Ev_data { tid; var = Gvar (gid, idx); write })

let instr_enabled (st : State.t) (th : State.thread) =
  let code = st.prog.procs.(th.proc).code in
  if th.pc >= Array.length code then true
  else
    let resolve ({ sid; sidx } : Instr.objref) =
      match eval_operand th sidx with
      | Value.Int idx when idx >= 0 && idx < State.sync_size st ~sid ->
        Some (State.sync_get st ~sid ~idx)
      | Value.Int _ -> None (* out of bounds: let step report the error *)
      | Value.Bool _ | Value.Handle _ -> None
    in
    match code.(th.pc) with
    | Lock o -> (
      match resolve o with Some (Mutex_cell owner) -> owner = -1 | _ -> true)
    | Wait o -> (
      match resolve o with Some (Event_cell s) -> s | _ -> true)
    | Sem_acquire o -> (
      match resolve o with Some (Sem_cell n) -> n > 0 | _ -> true)
    | _ -> true

(* Execute the single instruction at [tid]'s pc.  Updates [ctx.st] (pc
   advanced, effects applied) and appends events.  Raises [Model_error] on
   model bugs. *)
let rec exec_instr ctx tid =
  let st = ctx.st in
  let th = State.thread_get st tid in
  let code = st.prog.procs.(th.proc).code in
  let advance_pc (th : State.thread) = { th with pc = th.pc + 1 } in
  match code.(th.pc) with
  | Load { dst; gid; idx } ->
    let i = global_idx st tid th gid idx in
    emit_global_access ctx tid gid i ~write:false;
    let v = State.global_get st ~gid ~idx:i in
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst v))
  | Store { gid; idx; src } ->
    let i = global_idx st tid th gid idx in
    emit_global_access ctx tid gid i ~write:true;
    let v = eval_operand th src in
    let st = State.global_set st ~gid ~idx:i v in
    ctx.st <- State.thread_set st tid (advance_pc th)
  | Cas { dst; gid; idx; expect; update } ->
    let i = global_idx st tid th gid idx in
    emit ctx (Ev_sync { tid; var = Gvar (gid, i) });
    let old = State.global_get st ~gid ~idx:i in
    let st =
      if Value.equal old (eval_operand th expect) then
        State.global_set st ~gid ~idx:i (eval_operand th update)
      else st
    in
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst old))
  | Fetch_add { dst; gid; idx; delta } ->
    let i = global_idx st tid th gid idx in
    emit ctx (Ev_sync { tid; var = Gvar (gid, i) });
    let old = State.global_get st ~gid ~idx:i in
    let st =
      State.global_set st ~gid ~idx:i
        (Value.Int (Value.as_int old + eval_int tid th delta))
    in
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst old))
  | Load_heap { dst; h; idx } ->
    let addr, cell = heap_cell st tid h th in
    let i = eval_int tid th idx in
    heap_idx tid addr cell i;
    emit ctx (Ev_data { tid; var = Hcell (addr, i); write = false });
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst cell.data.(i)))
  | Store_heap { h; idx; src } ->
    let addr, cell = heap_cell st tid h th in
    let i = eval_int tid th idx in
    heap_idx tid addr cell i;
    emit ctx (Ev_data { tid; var = Hcell (addr, i); write = true });
    let data = Array.copy cell.data in
    data.(i) <- eval_operand th src;
    let heap = State.Heap_map.add addr { cell with data } st.heap in
    ctx.st <- State.thread_set { st with heap } tid (advance_pc th)
  | Alloc { dst; size } ->
    let n = eval_int tid th size in
    if n < 0 then
      raise
        (Model_error (Merr.Out_of_bounds { tid; what = "alloc"; idx = n; size = n }));
    let addr = st.next_addr in
    let heap =
      State.Heap_map.add addr
        ({ data = Array.make n Value.zero; freed = false } : State.heap_cell)
        st.heap
    in
    let st = { st with heap; next_addr = addr + 1 } in
    emit ctx (Ev_lifetime { tid; addr; freed = false });
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst (Value.Handle addr)))
  | Free { h } -> (
    match eval_operand th h with
    | Value.Handle addr ->
      if addr < 0 then raise (Model_error (Merr.Invalid_handle { tid; addr }));
      (match State.Heap_map.find_opt addr st.heap with
      | None -> raise (Model_error (Merr.Invalid_handle { tid; addr }))
      | Some cell ->
        if cell.freed then raise (Model_error (Merr.Double_free { tid; addr }));
        emit ctx (Ev_lifetime { tid; addr; freed = true });
        let heap = State.Heap_map.add addr { cell with freed = true } st.heap in
        ctx.st <- State.thread_set { st with heap } tid (advance_pc th))
    | v -> invalid_arg ("Interp: free of non-handle " ^ Value.to_string v))
  | Prim { dst; op; args } ->
    let v = eval_prim tid th op args in
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst v))
  | Mov { dst; src } ->
    ctx.st <- State.thread_set st tid (advance_pc (set_reg th dst (eval_operand th src)))
  | Jump l -> ctx.st <- State.thread_set st tid { th with pc = l }
  | Jump_if_zero { cond; target } ->
    let taken = not (Value.truthy (eval_operand th cond)) in
    ctx.st <-
      State.thread_set st tid
        (if taken then { th with pc = target } else advance_pc th)
  | Assert { cond; msg } ->
    if not (Value.truthy (eval_operand th cond)) then
      raise (Model_error (Merr.Assert_failure { tid; msg }));
    ctx.st <- State.thread_set st tid (advance_pc th)
  | Lock o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i with
    | Mutex_cell -1 ->
      let st = State.sync_set st ~sid ~idx:i (Mutex_cell tid) in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Mutex_cell _ -> invalid_arg "Interp: lock of held mutex (not enabled)"
    | Event_cell _ | Sem_cell _ -> invalid_arg "Interp: lock of non-mutex")
  | Unlock o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i with
    | Mutex_cell owner when owner = tid ->
      let st = State.sync_set st ~sid ~idx:i (Mutex_cell (-1)) in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Mutex_cell _ ->
      raise
        (Model_error
           (Merr.Unlock_not_held { tid; sync = st.prog.syncs.(sid).sname }))
    | Event_cell _ | Sem_cell _ -> invalid_arg "Interp: unlock of non-mutex")
  | Wait o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i, st.prog.syncs.(sid).skind with
    | Event_cell true, Prog.Event { manual; _ } ->
      let st =
        if manual then st else State.sync_set st ~sid ~idx:i (Event_cell false)
      in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Event_cell false, _ -> invalid_arg "Interp: wait on unsignaled (not enabled)"
    | (Mutex_cell _ | Sem_cell _), _ | Event_cell _, (Prog.Mutex | Prog.Semaphore _)
      -> invalid_arg "Interp: wait on non-event")
  | Signal o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i with
    | Event_cell _ ->
      let st = State.sync_set st ~sid ~idx:i (Event_cell true) in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Mutex_cell _ | Sem_cell _ -> invalid_arg "Interp: signal of non-event")
  | Reset o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i with
    | Event_cell _ ->
      let st = State.sync_set st ~sid ~idx:i (Event_cell false) in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Mutex_cell _ | Sem_cell _ -> invalid_arg "Interp: reset of non-event")
  | Sem_acquire o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i with
    | Sem_cell n when n > 0 ->
      let st = State.sync_set st ~sid ~idx:i (Sem_cell (n - 1)) in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Sem_cell _ -> invalid_arg "Interp: sem_acquire at zero (not enabled)"
    | Mutex_cell _ | Event_cell _ -> invalid_arg "Interp: sem op on non-semaphore")
  | Sem_release o ->
    let sid, i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (sid, i) });
    (match State.sync_get st ~sid ~idx:i with
    | Sem_cell n ->
      let st = State.sync_set st ~sid ~idx:i (Sem_cell (n + 1)) in
      ctx.st <- State.thread_set st tid (advance_pc th)
    | Mutex_cell _ | Event_cell _ -> invalid_arg "Interp: sem op on non-semaphore")
  | Spawn { proc; args } ->
    let p = ctx.st.prog.procs.(proc) in
    let regs = Array.make p.nregs Value.zero in
    List.iteri (fun i a -> regs.(i) <- eval_operand th a) args;
    let child : State.thread =
      {
        proc;
        pc = 0;
        regs;
        finished = Array.length p.code = 0;
        yielded = false;
        atomic = 0;
      }
    in
    let st = State.thread_set st tid (advance_pc th) in
    let st, child_tid = State.add_thread st child in
    emit ctx (Ev_fork { parent = tid; child = child_tid });
    ctx.st <- st;
    (* park the child at its first scheduling point *)
    park ctx child_tid
  | Yield ->
    ctx.st <- State.thread_set st tid (advance_pc { th with yielded = true })
  | Atomic_begin ->
    ctx.st <- State.thread_set st tid (advance_pc { th with atomic = th.atomic + 1 })
  | Atomic_end ->
    if th.atomic <= 0 then invalid_arg "Interp: atomic_end without atomic_begin";
    ctx.st <- State.thread_set st tid (advance_pc { th with atomic = th.atomic - 1 })
  | Halt ->
    (* a finished thread's yield flag is scheduling residue; clear it so
       equivalent executions reach identical terminal states *)
    ctx.st <- State.thread_set st tid { th with finished = true; yielded = false }

(* Run [tid] forward through non-scheduling instructions until it is parked
   at a scheduling point or finished.  Inside an atomic section every
   instruction is non-scheduling; the thread only parks where it would
   block (ZING semantics: atomicity is released at blocking points). *)
and park ctx tid =
  let fuel = ref local_fuel in
  let rec go () =
    let th = State.thread_get ctx.st tid in
    if not th.finished then begin
      let code = ctx.st.prog.procs.(th.proc).code in
      if th.pc >= Array.length code then
        ctx.st <-
          State.thread_set ctx.st tid { th with finished = true; yielded = false }
      else begin
        let i = code.(th.pc) in
        let stop =
          if th.atomic > 0 then
            Instr.is_potentially_blocking i && not (instr_enabled ctx.st th)
          else is_sched_point ctx.gran (classify_here ctx.st i)
        in
        if stop then ()
        else begin
          decr fuel;
          if !fuel <= 0 then raise (Model_error (Merr.Local_divergence { tid }));
          exec_instr ctx tid;
          go ()
        end
      end
    end
  in
  go ()

let finish_result ctx =
  { state = ctx.st; events = List.rev ctx.evs; blocking_op = false }

let with_error ctx e = { ctx.st with error = Some e }

let start gran prog =
  (match Prog.validate prog with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Interp.start: invalid program: " ^ msg));
  let ctx = { st = State.initial prog; evs = []; gran } in
  try
    park ctx 0;
    finish_result ctx
  with Model_error e ->
    { state = with_error ctx e; events = List.rev ctx.evs; blocking_op = false }

(* --- enabledness and status ------------------------------------------ *)

let enabled_raw (st : State.t) =
  match st.error with
  | Some _ -> []
  | None ->
    let r = ref [] in
    for tid = Array.length st.threads - 1 downto 0 do
      let th = st.threads.(tid) in
      if (not th.finished) && instr_enabled st th then r := tid :: !r
    done;
    !r

(* One backward pass decides enabledness once per thread and builds the
   list in tid order; the search hot path allocates exactly the list it
   returns unless a yielded thread must be hidden.  No scratch shared
   across calls: workers may be threads of one domain. *)
let enabled (st : State.t) =
  match st.error with
  | Some _ -> []
  | None ->
    let r = ref [] in
    let any_awake = ref false in
    let any_yielded = ref false in
    for tid = Array.length st.threads - 1 downto 0 do
      let th = Array.unsafe_get st.threads tid in
      if (not th.finished) && instr_enabled st th then begin
        r := tid :: !r;
        if th.yielded then any_yielded := true else any_awake := true
      end
    done;
    (* yield flags hide a thread only while some awake thread remains:
       a yielding thread cannot disable the whole program *)
    if !any_yielded && !any_awake then
      List.filter (fun tid -> not (Array.unsafe_get st.threads tid).yielded) !r
    else !r

type status =
  | Running
  | Terminated
  | Deadlock of int list
  | Error of Merr.t

(* Existence check behind [status]: allocation-free, unlike building the
   full enabled list just to test it for emptiness. *)
let has_enabled (st : State.t) =
  let n = Array.length st.threads in
  let rec go tid =
    tid < n
    &&
    let th = Array.unsafe_get st.threads tid in
    ((not th.finished) && instr_enabled st th) || go (tid + 1)
  in
  go 0

let status (st : State.t) =
  match st.error with
  | Some e -> Error e
  | None ->
    if has_enabled st then Running
    else if State.all_finished st then Terminated
    else begin
      let blocked = ref [] in
      Array.iteri
        (fun tid (th : State.thread) ->
          if not th.finished then blocked := tid :: !blocked)
        st.threads;
      Deadlock (List.rev !blocked)
    end

let clear_yields (st : State.t) =
  if Array.exists (fun (th : State.thread) -> th.yielded) st.threads then
    {
      st with
      threads =
        Array.map (fun (th : State.thread) -> { th with yielded = false }) st.threads;
    }
  else st

(* Where no thread can run, yield flags are residue no scheduling
   decision will read; clear them so equivalent executions that end
   blocked reach identical states. *)
let settle_yields (st : State.t) =
  if
    Array.exists (fun (th : State.thread) -> th.yielded) st.threads
    && not (has_enabled st)
  then clear_yields st
  else st

let step gran (st : State.t) tid =
  (match st.error with
  | Some _ -> invalid_arg "Interp.step: error state"
  | None -> ());
  let th = State.thread_get st tid in
  if th.finished then invalid_arg "Interp.step: finished thread";
  if not (instr_enabled st th) then invalid_arg "Interp.step: blocked thread";
  let code = st.prog.procs.(th.proc).code in
  let at_end = th.pc >= Array.length code in
  (* A yield hides its thread until another thread performs a
     synchronization access.  Plain data accesses do not release it:
     under sync-only granularity they run inside the surrounding steps,
     so letting them count would make the two granularities reach
     different states (the Section 3.1 reduction).  Every sync-only step
     starts at a synchronization access. *)
  let releases =
    match gran with
    | Sync_only -> true
    | Every_access -> at_end || classify_here st code.(th.pc) = Instr.Class_sync
  in
  let st = if releases then clear_yields st else st in
  let st = { st with last_tid = tid } in
  let ctx = { st; evs = []; gran } in
  let th = State.thread_get st tid in
  let blocking_op = (not at_end) && Instr.is_potentially_blocking code.(th.pc) in
  try
    (if at_end then
       ctx.st <-
         State.thread_set ctx.st tid { th with finished = true; yielded = false }
     else exec_instr ctx tid);
    park ctx tid;
    { state = settle_yields ctx.st; events = List.rev ctx.evs; blocking_op }
  with Model_error e ->
    { state = with_error ctx e; events = List.rev ctx.evs; blocking_op }
