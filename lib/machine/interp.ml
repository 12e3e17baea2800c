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

(* A step's private, mutable view of the state it steps from.  States are
   persistent, so the first write to the globals, the syncs, the thread
   table or the running thread's registers copies that array, and every
   later write of the same step goes in place: a step copies each array
   it writes once.  An array is the step's own once it is not the one
   [base] holds.  Nothing outside the step sees these arrays before
   [freeze] makes them the next state. *)
type ctx = {
  base : State.t;  (* the state stepped from *)
  gran : granularity;
  mutable globals : Value.t array;
  mutable syncs : State.sync_cell array;
  mutable threads : State.thread array;
  mutable regs : Value.t array;
      (* the running thread's registers once this step copied them; a
         spawned child runs on its own fresh array *)
  mutable heap : State.heap_cell State.Heap_map.t;
  mutable next_addr : int;
  mutable evs : event list;  (* reversed *)
}

let context gran (st : State.t) =
  {
    base = st;
    gran;
    globals = st.globals;
    syncs = st.syncs;
    threads = st.threads;
    regs = [||];
    heap = st.heap;
    next_addr = st.next_addr;
    evs = [];
  }

let freeze ctx ~last_tid ~error : State.t =
  {
    ctx.base with
    globals = ctx.globals;
    syncs = ctx.syncs;
    threads = ctx.threads;
    heap = ctx.heap;
    next_addr = ctx.next_addr;
    error;
    last_tid;
  }

let set_global ctx gid i v =
  if ctx.globals == ctx.base.globals then ctx.globals <- Array.copy ctx.globals;
  ctx.globals.(ctx.base.goff.(gid) + i) <- v

let set_sync ctx sid i c =
  if ctx.syncs == ctx.base.syncs then ctx.syncs <- Array.copy ctx.syncs;
  ctx.syncs.(ctx.base.soff.(sid) + i) <- c

let set_thread ctx tid th =
  if ctx.threads == ctx.base.threads then ctx.threads <- Array.copy ctx.threads;
  ctx.threads.(tid) <- th

(* [th]'s registers with [r] set to [v] *)
let set_reg ctx (th : State.thread) r v =
  if th.regs != ctx.regs then ctx.regs <- Array.copy th.regs;
  ctx.regs.(r) <- v;
  ctx.regs

let add_thread ctx th =
  let n = Array.length ctx.threads in
  let threads = Array.make (n + 1) th in
  Array.blit ctx.threads 0 threads 0 n;
  ctx.threads <- threads;
  n

let advance ctx tid (th : State.thread) =
  set_thread ctx tid { th with pc = th.pc + 1 }

let advance_reg ctx tid (th : State.thread) r v =
  set_thread ctx tid { th with pc = th.pc + 1; regs = set_reg ctx th r v }

let eval_operand (th : State.thread) = function
  | Instr.Reg r -> th.regs.(r)
  | Instr.Imm v -> v

let eval_int tid th op =
  match eval_operand th op with
  | Value.Int n -> n
  | v ->
    ignore tid;
    invalid_arg ("Interp: expected int, got " ^ Value.to_string v)

let is_volatile (prog : Prog.t) gid = prog.globals.(gid).gvolatile

let never_volatile _ = false

(* [Instr.classify] under [prog]'s volatile declarations, without a
   closure per call *)
let classify (prog : Prog.t) (i : Instr.t) =
  match i with
  | Load { gid; _ } | Store { gid; _ } ->
    if is_volatile prog gid then Instr.Class_sync else Instr.Class_data
  | _ -> Instr.classify ~volatile:never_volatile i

(* Is instruction [i] a scheduling point under granularity [gran]? *)
let is_sched_point gran cls =
  match cls, gran with
  | Instr.Class_sync, _ -> true
  | Instr.Class_data, Every_access -> true
  | Instr.Class_data, Sync_only -> false
  | Instr.Class_local, _ -> false

let v_true = Value.Bool true
let v_false = Value.Bool false
let of_bool b = if b then v_true else v_false

(* Evaluates operands straight from the thread's registers: no argument
   list and no closure on this per-step path. *)
let eval_prim tid (th : State.thread) (op : Instr.prim) args =
  let div_by_zero () = raise (Model_error (Merr.Division_by_zero { tid })) in
  match args with
  | [ a ] -> (
    let x = eval_operand th a in
    match op, x with
    | Neg, Value.Int n -> Value.Int (-n)
    | Not, _ -> of_bool (not (Value.truthy x))
    | Neg, _ -> invalid_arg "Interp: prim arity/type"
    | _ -> invalid_arg "Interp: prim arity")
  | [ a; b ] -> (
    let x = eval_operand th a and y = eval_operand th b in
    match op, x, y with
    | Add, Int a, Int b -> Value.Int (a + b)
    | Sub, Int a, Int b -> Value.Int (a - b)
    | Mul, Int a, Int b -> Value.Int (a * b)
    | Div, Int a, Int b -> if b = 0 then div_by_zero () else Value.Int (a / b)
    | Mod, Int a, Int b ->
      if b = 0 then div_by_zero () else Value.Int (a mod b)
    | Min, Int a, Int b -> Value.Int (min a b)
    | Max, Int a, Int b -> Value.Int (max a b)
    | Lt, Int a, Int b -> of_bool (a < b)
    | Le, Int a, Int b -> of_bool (a <= b)
    | Gt, Int a, Int b -> of_bool (a > b)
    | Ge, Int a, Int b -> of_bool (a >= b)
    | Eq, _, _ -> of_bool (Value.equal x y)
    | Ne, _, _ -> of_bool (not (Value.equal x y))
    | And, _, _ -> of_bool (Value.truthy x && Value.truthy y)
    | Or, _, _ -> of_bool (Value.truthy x || Value.truthy y)
    | (Neg | Not), _, _ -> invalid_arg "Interp: prim arity"
    | _ -> invalid_arg "Interp: prim arity/type")
  | _ -> invalid_arg "Interp: prim arity"

(* The element index [o] names, checked against its sync array. *)
let resolve_objref (st : State.t) tid th ({ sid; sidx } : Instr.objref) =
  let idx = eval_int tid th sidx in
  let size = State.sync_size st ~sid in
  if idx < 0 || idx >= size then
    raise
      (Model_error
         (Merr.Out_of_bounds
            { tid; what = st.prog.syncs.(sid).sname; idx; size }));
  idx

let global_idx (st : State.t) tid th gid idx_op =
  let idx = eval_int tid th idx_op in
  let size = State.global_size st ~gid in
  if idx < 0 || idx >= size then
    raise
      (Model_error
         (Merr.Out_of_bounds
            { tid; what = st.prog.globals.(gid).gname; idx; size }));
  idx

let heap_cell ctx tid h_op th =
  match eval_operand th h_op with
  | Value.Handle addr ->
    if addr < 0 then raise (Model_error (Merr.Invalid_handle { tid; addr }));
    (match State.Heap_map.find_opt addr ctx.heap with
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
  if is_volatile ctx.base.prog gid then
    emit ctx (Ev_sync { tid; var = Gvar (gid, idx) })
  else emit ctx (Ev_data { tid; var = Gvar (gid, idx); write })

(* The slot of [o] in a state's sync array, or [-1] when [th]'s index is
   out of bounds or not an int: the step reports that. *)
let sync_slot soff (th : State.thread) ({ sid; sidx } : Instr.objref) =
  match eval_operand th sidx with
  | Value.Int idx when idx >= 0 && idx < soff.(sid + 1) - soff.(sid) ->
    soff.(sid) + idx
  | Value.Int _ | Value.Bool _ | Value.Handle _ -> -1

(* Whether [th]'s parked instruction can execute over [syncs]. *)
let instr_enabled (prog : Prog.t) soff (syncs : State.sync_cell array)
    (th : State.thread) =
  let code = prog.procs.(th.proc).code in
  th.pc >= Array.length code
  ||
  match code.(th.pc) with
  | Lock o -> (
    let k = sync_slot soff th o in
    k < 0 || match syncs.(k) with Mutex_cell owner -> owner = -1 | _ -> true)
  | Wait o -> (
    let k = sync_slot soff th o in
    k < 0 || match syncs.(k) with Event_cell s -> s | _ -> true)
  | Sem_acquire o -> (
    let k = sync_slot soff th o in
    k < 0 || match syncs.(k) with Sem_cell n -> n > 0 | _ -> true)
  | _ -> true

let enabled_in (st : State.t) th = instr_enabled st.prog st.soff st.syncs th

(* Execute the single instruction at [tid]'s pc: the pc advances, the
   effects land in [ctx] and the events are appended.  Raises
   [Model_error] on model bugs, before writing anything. *)
let rec exec_instr ctx tid =
  let st = ctx.base in
  let th = ctx.threads.(tid) in
  let code = st.prog.procs.(th.proc).code in
  match code.(th.pc) with
  | Load { dst; gid; idx } ->
    let i = global_idx st tid th gid idx in
    emit_global_access ctx tid gid i ~write:false;
    advance_reg ctx tid th dst ctx.globals.(st.goff.(gid) + i)
  | Store { gid; idx; src } ->
    let i = global_idx st tid th gid idx in
    emit_global_access ctx tid gid i ~write:true;
    set_global ctx gid i (eval_operand th src);
    advance ctx tid th
  | Cas { dst; gid; idx; expect; update } ->
    let i = global_idx st tid th gid idx in
    emit ctx (Ev_sync { tid; var = Gvar (gid, i) });
    let old = ctx.globals.(st.goff.(gid) + i) in
    if Value.equal old (eval_operand th expect) then
      set_global ctx gid i (eval_operand th update);
    advance_reg ctx tid th dst old
  | Fetch_add { dst; gid; idx; delta } ->
    let i = global_idx st tid th gid idx in
    emit ctx (Ev_sync { tid; var = Gvar (gid, i) });
    let old = ctx.globals.(st.goff.(gid) + i) in
    set_global ctx gid i
      (Value.Int (Value.as_int old + eval_int tid th delta));
    advance_reg ctx tid th dst old
  | Load_heap { dst; h; idx } ->
    let addr, cell = heap_cell ctx tid h th in
    let i = eval_int tid th idx in
    heap_idx tid addr cell i;
    emit ctx (Ev_data { tid; var = Hcell (addr, i); write = false });
    advance_reg ctx tid th dst cell.data.(i)
  | Store_heap { h; idx; src } ->
    let addr, cell = heap_cell ctx tid h th in
    let i = eval_int tid th idx in
    heap_idx tid addr cell i;
    emit ctx (Ev_data { tid; var = Hcell (addr, i); write = true });
    let data = Array.copy cell.data in
    data.(i) <- eval_operand th src;
    ctx.heap <- State.Heap_map.add addr { cell with data } ctx.heap;
    advance ctx tid th
  | Alloc { dst; size } ->
    let n = eval_int tid th size in
    if n < 0 then
      raise
        (Model_error (Merr.Out_of_bounds { tid; what = "alloc"; idx = n; size = n }));
    let addr = ctx.next_addr in
    ctx.heap <-
      State.Heap_map.add addr
        ({ data = Array.make n Value.zero; freed = false } : State.heap_cell)
        ctx.heap;
    ctx.next_addr <- addr + 1;
    emit ctx (Ev_lifetime { tid; addr; freed = false });
    advance_reg ctx tid th dst (Value.Handle addr)
  | Free { h } -> (
    match eval_operand th h with
    | Value.Handle addr ->
      if addr < 0 then raise (Model_error (Merr.Invalid_handle { tid; addr }));
      (match State.Heap_map.find_opt addr ctx.heap with
      | None -> raise (Model_error (Merr.Invalid_handle { tid; addr }))
      | Some cell ->
        if cell.freed then raise (Model_error (Merr.Double_free { tid; addr }));
        emit ctx (Ev_lifetime { tid; addr; freed = true });
        ctx.heap <- State.Heap_map.add addr { cell with freed = true } ctx.heap;
        advance ctx tid th)
    | v -> invalid_arg ("Interp: free of non-handle " ^ Value.to_string v))
  | Prim { dst; op; args } ->
    advance_reg ctx tid th dst (eval_prim tid th op args)
  | Mov { dst; src } -> advance_reg ctx tid th dst (eval_operand th src)
  | Jump l -> set_thread ctx tid { th with pc = l }
  | Jump_if_zero { cond; target } ->
    if Value.truthy (eval_operand th cond) then advance ctx tid th
    else set_thread ctx tid { th with pc = target }
  | Assert { cond; msg } ->
    if not (Value.truthy (eval_operand th cond)) then
      raise (Model_error (Merr.Assert_failure { tid; msg }));
    advance ctx tid th
  | Lock o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i) with
    | Mutex_cell -1 ->
      set_sync ctx o.sid i (Mutex_cell tid);
      advance ctx tid th
    | Mutex_cell _ -> invalid_arg "Interp: lock of held mutex (not enabled)"
    | Event_cell _ | Sem_cell _ -> invalid_arg "Interp: lock of non-mutex")
  | Unlock o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i) with
    | Mutex_cell owner when owner = tid ->
      set_sync ctx o.sid i (Mutex_cell (-1));
      advance ctx tid th
    | Mutex_cell _ ->
      raise
        (Model_error
           (Merr.Unlock_not_held { tid; sync = st.prog.syncs.(o.sid).sname }))
    | Event_cell _ | Sem_cell _ -> invalid_arg "Interp: unlock of non-mutex")
  | Wait o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i), st.prog.syncs.(o.sid).skind with
    | Event_cell true, Prog.Event { manual; _ } ->
      if not manual then set_sync ctx o.sid i (Event_cell false);
      advance ctx tid th
    | Event_cell false, _ -> invalid_arg "Interp: wait on unsignaled (not enabled)"
    | (Mutex_cell _ | Sem_cell _), _ | Event_cell _, (Prog.Mutex | Prog.Semaphore _)
      -> invalid_arg "Interp: wait on non-event")
  | Signal o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i) with
    | Event_cell _ ->
      set_sync ctx o.sid i (Event_cell true);
      advance ctx tid th
    | Mutex_cell _ | Sem_cell _ -> invalid_arg "Interp: signal of non-event")
  | Reset o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i) with
    | Event_cell _ ->
      set_sync ctx o.sid i (Event_cell false);
      advance ctx tid th
    | Mutex_cell _ | Sem_cell _ -> invalid_arg "Interp: reset of non-event")
  | Sem_acquire o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i) with
    | Sem_cell n when n > 0 ->
      set_sync ctx o.sid i (Sem_cell (n - 1));
      advance ctx tid th
    | Sem_cell _ -> invalid_arg "Interp: sem_acquire at zero (not enabled)"
    | Mutex_cell _ | Event_cell _ -> invalid_arg "Interp: sem op on non-semaphore")
  | Sem_release o ->
    let i = resolve_objref st tid th o in
    emit ctx (Ev_sync { tid; var = Svar (o.sid, i) });
    (match ctx.syncs.(st.soff.(o.sid) + i) with
    | Sem_cell n ->
      set_sync ctx o.sid i (Sem_cell (n + 1));
      advance ctx tid th
    | Mutex_cell _ | Event_cell _ -> invalid_arg "Interp: sem op on non-semaphore")
  | Spawn { proc; args } ->
    let p = st.prog.procs.(proc) in
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
    advance ctx tid th;
    let child_tid = add_thread ctx child in
    emit ctx (Ev_fork { parent = tid; child = child_tid });
    (* park the child at its first scheduling point, on its own registers *)
    let parent_regs = ctx.regs in
    ctx.regs <- regs;
    park ctx child_tid;
    ctx.regs <- parent_regs
  | Yield -> set_thread ctx tid { th with pc = th.pc + 1; yielded = true }
  | Atomic_begin ->
    set_thread ctx tid { th with pc = th.pc + 1; atomic = th.atomic + 1 }
  | Atomic_end ->
    if th.atomic <= 0 then invalid_arg "Interp: atomic_end without atomic_begin";
    set_thread ctx tid { th with pc = th.pc + 1; atomic = th.atomic - 1 }
  | Halt ->
    (* a finished thread's yield flag is scheduling residue; clear it so
       equivalent executions reach identical terminal states *)
    set_thread ctx tid { th with finished = true; yielded = false }

(* Run [tid] forward through non-scheduling instructions until it is parked
   at a scheduling point or finished.  Inside an atomic section every
   instruction is non-scheduling; the thread only parks where it would
   block (ZING semantics: atomicity is released at blocking points). *)
and park ctx tid = park_within ctx tid local_fuel

and park_within ctx tid fuel =
  let th = ctx.threads.(tid) in
  if not th.finished then begin
    let prog = ctx.base.prog in
    let code = prog.procs.(th.proc).code in
    if th.pc >= Array.length code then
      set_thread ctx tid { th with finished = true; yielded = false }
    else begin
      let i = code.(th.pc) in
      let stop =
        if th.atomic > 0 then
          Instr.is_potentially_blocking i
          && not (instr_enabled prog ctx.base.soff ctx.syncs th)
        else is_sched_point ctx.gran (classify prog i)
      in
      if not stop then begin
        let fuel = fuel - 1 in
        if fuel <= 0 then raise (Model_error (Merr.Local_divergence { tid }));
        exec_instr ctx tid;
        park_within ctx tid fuel
      end
    end
  end

let start gran prog =
  (match Prog.validate prog with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Interp.start: invalid program: " ^ msg));
  let st = State.initial prog in
  let ctx = context gran st in
  let error = try park ctx 0; None with Model_error e -> Some e in
  {
    state = freeze ctx ~last_tid:st.last_tid ~error;
    events = List.rev ctx.evs;
    blocking_op = false;
  }

(* --- enabledness and status ------------------------------------------ *)

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
      if (not th.finished) && enabled_in st th then begin
        r := tid :: !r;
        if th.yielded then any_yielded := true else any_awake := true
      end
    done;
    (* yield flags hide a thread only while some awake thread remains:
       a yielding thread cannot disable the whole program *)
    if !any_yielded && !any_awake then
      List.filter (fun tid -> not (Array.unsafe_get st.threads tid).yielded) !r
    else !r

(* [enabled]'s yield rule over bits: the awake threads if there are any,
   else the yielded ones.  Bit 62 would be the sign bit, so a set holds
   at most 62 threads and is never negative. *)
let enabled_set (st : State.t) =
  let n = Array.length st.threads in
  if n > Sys.int_size - 1 then -1
  else
    match st.error with
    | Some _ -> 0
    | None ->
      let awake = ref 0 and yielded = ref 0 in
      for tid = 0 to n - 1 do
        let th = Array.unsafe_get st.threads tid in
        if (not th.finished) && enabled_in st th then
          if th.yielded then yielded := !yielded lor (1 lsl tid)
          else awake := !awake lor (1 lsl tid)
      done;
      if !awake <> 0 then !awake else !yielded

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
    ((not th.finished) && enabled_in st th) || go (tid + 1)
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

let yielded (th : State.thread) = th.yielded

let unyield (th : State.thread) =
  if th.yielded then { th with yielded = false } else th

(* Where no thread can run, yield flags are residue no scheduling
   decision will read; clear them so equivalent executions that end
   blocked reach identical states. *)
let settle_yields (st : State.t) =
  if Array.exists yielded st.threads && not (has_enabled st) then
    { st with threads = Array.map unyield st.threads }
  else st

let step gran (st : State.t) tid =
  (match st.error with
  | Some _ -> invalid_arg "Interp.step: error state"
  | None -> ());
  let th = State.thread_get st tid in
  if th.finished then invalid_arg "Interp.step: finished thread";
  if not (enabled_in st th) then invalid_arg "Interp.step: blocked thread";
  let code = st.prog.procs.(th.proc).code in
  let at_end = th.pc >= Array.length code in
  let blocking_op =
    (not at_end) && Instr.is_potentially_blocking code.(th.pc)
  in
  let ctx = context gran st in
  (* A yield hides its thread until another thread performs a
     synchronization access.  Plain data accesses do not release it:
     under sync-only granularity they run inside the surrounding steps,
     so letting them count would make the two granularities reach
     different states (the Section 3.1 reduction).  Every sync-only step
     starts at a synchronization access. *)
  let releases =
    match gran with
    | Sync_only -> true
    | Every_access -> at_end || classify st.prog code.(th.pc) = Instr.Class_sync
  in
  if releases && Array.exists yielded st.threads then
    ctx.threads <- Array.map unyield st.threads;
  match
    if at_end then
      set_thread ctx tid
        { (ctx.threads.(tid)) with finished = true; yielded = false }
    else exec_instr ctx tid;
    park ctx tid
  with
  | () ->
    {
      state = settle_yields (freeze ctx ~last_tid:tid ~error:None);
      events = List.rev ctx.evs;
      blocking_op;
    }
  | exception Model_error e ->
    {
      state = freeze ctx ~last_tid:tid ~error:(Some e);
      events = List.rev ctx.evs;
      blocking_op;
    }
