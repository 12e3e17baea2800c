module Heap_map = Map.Make (Int)

type thread = {
  proc : int;
  pc : int;
  regs : Value.t array;
  finished : bool;
  yielded : bool;
  atomic : int;
}

type sync_cell =
  | Mutex_cell of int
  | Event_cell of bool
  | Sem_cell of int

type heap_cell = {
  data : Value.t array;
  freed : bool;
}

type t = {
  prog : Prog.t;
  goff : int array;
  soff : int array;
  globals : Value.t array;
  syncs : sync_cell array;
  threads : thread array;
  heap : heap_cell Heap_map.t;
  next_addr : int;
  error : Merr.t option;
  last_tid : int;
}

let initial_sync (decl : Prog.sync_decl) =
  match decl.skind with
  | Prog.Mutex -> Mutex_cell (-1)
  | Prog.Event { initially_signaled; _ } -> Event_cell initially_signaled
  | Prog.Semaphore { initial } -> Sem_cell initial

let initial (prog : Prog.t) =
  let goff = Prog.global_offsets prog in
  let soff = Prog.sync_offsets prog in
  let globals = Array.make goff.(Array.length prog.globals) Value.zero in
  Array.iteri
    (fun gi (g : Prog.global) ->
      for j = 0 to g.gsize - 1 do
        globals.(goff.(gi) + j) <- g.ginit
      done)
    prog.globals;
  let syncs = Array.make soff.(Array.length prog.syncs) (Mutex_cell (-1)) in
  Array.iteri
    (fun si (s : Prog.sync_decl) ->
      for j = 0 to s.ssize - 1 do
        syncs.(soff.(si) + j) <- initial_sync s
      done)
    prog.syncs;
  let main_proc = prog.procs.(prog.main) in
  let thread0 =
    {
      proc = prog.main;
      pc = 0;
      regs = Array.make main_proc.nregs Value.zero;
      finished = Array.length main_proc.code = 0;
      yielded = false;
      atomic = 0;
    }
  in
  {
    prog;
    goff;
    soff;
    globals;
    syncs;
    threads = [| thread0 |];
    heap = Heap_map.empty;
    next_addr = 0;
    error = None;
    last_tid = -1;
  }

let array_set arr i v =
  let arr' = Array.copy arr in
  arr'.(i) <- v;
  arr'

let global_size t ~gid = t.goff.(gid + 1) - t.goff.(gid)

let check_idx what idx size =
  if idx < 0 || idx >= size then
    invalid_arg (Printf.sprintf "State: %s index %d out of %d" what idx size)

let global_get t ~gid ~idx =
  check_idx "global" idx (global_size t ~gid);
  t.globals.(t.goff.(gid) + idx)

let global_set t ~gid ~idx v =
  check_idx "global" idx (global_size t ~gid);
  { t with globals = array_set t.globals (t.goff.(gid) + idx) v }

let sync_size t ~sid = t.soff.(sid + 1) - t.soff.(sid)

let sync_get t ~sid ~idx =
  check_idx "sync" idx (sync_size t ~sid);
  t.syncs.(t.soff.(sid) + idx)

let sync_set t ~sid ~idx c =
  check_idx "sync" idx (sync_size t ~sid);
  { t with syncs = array_set t.syncs (t.soff.(sid) + idx) c }

let thread_get t tid = t.threads.(tid)

let thread_set t tid th = { t with threads = array_set t.threads tid th }

let thread_count t = Array.length t.threads

let add_thread t th =
  let n = Array.length t.threads in
  let threads = Array.make (n + 1) th in
  Array.blit t.threads 0 threads 0 n;
  ({ t with threads }, n)

let all_finished t = Array.for_all (fun th -> th.finished) t.threads

(* --- canonical serialization ---------------------------------------- *)

(* Heap addresses are renamed by order of first reachability: first the
   globals in declaration order, then each thread's registers in tid order,
   then a breadth-first walk through the cells discovered so far.  Values in
   freed cells are not traversed (dangling handles serialize as the special
   marker below).  Unreachable live cells are leaked memory; they are
   appended in address order so that a leak still distinguishes states.

   There is one walk, written against a byte sink: [canonical_repr]
   collects the bytes in a buffer, [signature] hashes them as they are
   produced, so fingerprinting a state builds no string and allocates
   nothing per byte. *)

type sink =
  | Buf of Buffer.t
  | Hash of Icb_util.Fnv.acc

(* Heap renaming of one walk: each reached address's canonical number, and
   the reached cells not yet written, in discovery order. *)
type renaming = {
  canon : (int, int) Hashtbl.t;
  pending : int Queue.t;
}

type walk = {
  sink : sink;
  cells : heap_cell Heap_map.t;
  mutable ren : renaming option;  (* created at the first handle reached *)
}

let put w c =
  match w.sink with
  | Buf b -> Buffer.add_char b c
  | Hash h -> Icb_util.Fnv.add_char h c

(* the decimal digits of [-m], for [m <= 0]: every int, [min_int]
   included, has a non-positive negation *)
let rec put_digits w m =
  if m <= -10 then put_digits w (m / 10);
  put w (Char.unsafe_chr (Char.code '0' - (m mod 10)))

(* [n] as [string_of_int] prints it, without building the string *)
let put_int w n =
  if n < 0 then begin
    put w '-';
    put_digits w n
  end
  else put_digits w (-n)

let canon_of w addr =
  if addr < 0 then -1
  else
    let r =
      match w.ren with
      | Some r -> r
      | None ->
        let r = { canon = Hashtbl.create 16; pending = Queue.create () } in
        w.ren <- Some r;
        r
    in
    match Hashtbl.find_opt r.canon addr with
    | Some c -> c
    | None ->
      let c = Hashtbl.length r.canon in
      Hashtbl.add r.canon addr c;
      Queue.push addr r.pending;
      c

let put_value w v =
  match v with
  | Value.Int n ->
    put w 'i';
    put_int w n
  | Value.Bool b -> put w (if b then 'T' else 'F')
  | Value.Handle h ->
    put w 'h';
    put_int w (canon_of w h)

let put_values w vs =
  for i = 0 to Array.length vs - 1 do
    put_value w vs.(i);
    put w ';'
  done

let put_cell w addr =
  match Heap_map.find_opt addr w.cells with
  | None | Some { freed = true; _ } -> put w '!'
  | Some { data; freed = false } ->
    put w '[';
    put_values w data;
    put w ']'

(* write the reached cells in canonical discovery order *)
let rec drain w =
  match w.ren with
  | Some { pending; _ } when not (Queue.is_empty pending) ->
    put_cell w (Queue.pop pending);
    drain w
  | Some _ | None -> ()

let renamed w addr =
  match w.ren with
  | None -> false
  | Some r -> Hashtbl.mem r.canon addr

let canonical_walk sink t =
  let w = { sink; cells = t.heap; ren = None } in
  put_values w t.globals;
  put w '|';
  for i = 0 to Array.length t.syncs - 1 do
    (match t.syncs.(i) with
    | Mutex_cell owner ->
      put w 'm';
      put_int w owner
    | Event_cell s -> put w (if s then 'E' else 'e')
    | Sem_cell n ->
      put w 's';
      put_int w n);
    put w ';'
  done;
  put w '|';
  for i = 0 to Array.length t.threads - 1 do
    let th = t.threads.(i) in
    put_int w th.proc;
    put w ':';
    put_int w th.pc;
    put w (if th.finished then 'X' else 'R');
    put w (if th.yielded then 'Y' else 'N');
    put_int w th.atomic;
    put w ',';
    put_values w th.regs;
    put w '/'
  done;
  put w '|';
  drain w;
  (* leaked live cells, in address order, each traversed too; a state
     without a heap skips building the closure *)
  if not (Heap_map.is_empty t.heap) then
    Heap_map.iter
      (fun addr cell ->
        if (not cell.freed) && not (renamed w addr) then begin
          put w 'L';
          ignore (canon_of w addr);
          drain w
        end)
      t.heap;
  put w '|';
  match t.error with
  | None -> ()
  | Some e -> String.iter (put w) (Merr.key e)

let canonical_repr t =
  let buf = Buffer.create 256 in
  canonical_walk (Buf buf) t;
  Buffer.contents buf

let signature t =
  let h = Icb_util.Fnv.acc () in
  canonical_walk (Hash h) t;
  Icb_util.Fnv.value h

let pp fmt t =
  let f x = Format.fprintf fmt x in
  Array.iteri
    (fun gi (g : Prog.global) ->
      f "%s = " g.gname;
      if g.gsize = 1 then f "%a" Value.pp t.globals.(t.goff.(gi))
      else begin
        f "[";
        for j = 0 to g.gsize - 1 do
          if j > 0 then f ", ";
          f "%a" Value.pp t.globals.(t.goff.(gi) + j)
        done;
        f "]"
      end;
      f "@.")
    t.prog.globals;
  Array.iteri
    (fun si (s : Prog.sync_decl) ->
      for j = 0 to s.ssize - 1 do
        let cell = t.syncs.(t.soff.(si) + j) in
        let suffix = if s.ssize = 1 then "" else Printf.sprintf "[%d]" j in
        match cell with
        | Mutex_cell owner when owner >= 0 ->
          f "%s%s held by thread %d@." s.sname suffix owner
        | Mutex_cell _ -> f "%s%s free@." s.sname suffix
        | Event_cell signaled ->
          f "%s%s %s@." s.sname suffix
            (if signaled then "signaled" else "unsignaled")
        | Sem_cell n -> f "%s%s count=%d@." s.sname suffix n
      done)
    t.prog.syncs;
  Array.iteri
    (fun tid th ->
      f "thread %d: %s pc=%d%s%s%s@." tid t.prog.procs.(th.proc).pname th.pc
        (if th.finished then " finished" else "")
        (if th.yielded then " yielded" else "")
        (if th.atomic > 0 then Printf.sprintf " atomic(%d)" th.atomic else ""))
    t.threads;
  Heap_map.iter
    (fun addr cell ->
      if cell.freed then f "&%d: freed@." addr
      else begin
        f "&%d: [" addr;
        Array.iteri
          (fun j v -> if j > 0 then f ", " else (); f "%a" Value.pp v)
          cell.data;
        f "]@."
      end)
    t.heap;
  match t.error with
  | None -> ()
  | Some e -> f "ERROR: %a@." Merr.pp e
