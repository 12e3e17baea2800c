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

let global_size t ~gid = t.goff.(gid + 1) - t.goff.(gid)

let global_get t ~gid ~idx =
  let size = global_size t ~gid in
  if idx < 0 || idx >= size then
    invalid_arg (Printf.sprintf "State: global index %d out of %d" idx size);
  t.globals.(t.goff.(gid) + idx)

let sync_size t ~sid = t.soff.(sid + 1) - t.soff.(sid)

let thread_get t tid = t.threads.(tid)

let thread_count t = Array.length t.threads

let all_finished t = Array.for_all (fun th -> th.finished) t.threads

(* --- canonical serialization ---------------------------------------- *)

(* Heap addresses are renamed by order of first reachability: first the
   globals in declaration order, then each thread's registers in tid order,
   then a breadth-first walk through the cells discovered so far.  Values in
   freed cells are not traversed (dangling handles serialize as the special
   marker below).  Unreachable live cells are leaked memory; they are
   appended in address order so that a leak still distinguishes states.

   There is one walk.  It writes each token (a value [i<n>;], a sync
   cell, a thread's header, a mark) with plain stores into a small buffer
   of its own, and hands the buffer to a sink whenever the next token
   might not fit, and at the end: [canonical_repr] collects the bytes in
   a [Buffer], [signature] hashes each run of them in one loop.  So
   fingerprinting a state builds no string and dispatches on the sink a
   few times per state, not once per byte. *)

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
  out : Bytes.t;
  mutable len : int;  (* bytes of [out] not yet handed to [sink] *)
}

(* The longest int is 20 bytes ([min_int]).  The longest token, a
   thread's header, holds three ints and four marks, so it fits in a
   buffer this size; a typical transaction-manager state (about 95 bytes)
   is two runs. *)
let int_room = 20

let out_size = 64

let flush w =
  (match w.sink with
  | Buf b -> Buffer.add_subbytes b w.out 0 w.len
  | Hash h -> Icb_util.Fnv.add_subbytes h w.out 0 w.len);
  w.len <- 0

(* Where a token of at most [n] bytes starts in [w.out].  A token is
   written at positions held in locals, and [w.len] is stored once at
   its end. *)
let[@inline] room w n =
  if w.len + n > out_size then flush w;
  w.len

let[@inline] digit n = Char.unsafe_chr (Char.code '0' + n)

let general_int b p n =
  let s = string_of_int n in
  Bytes.blit_string s 0 b p (String.length s);
  p + String.length s

(* [n] as [string_of_int] prints it, written at [p]; the position after
   it.  Nearly every int a model state holds is in 0..99 or is -1, so
   those are written digit by digit, and only the rest build a string. *)
let[@inline] put_int b p n =
  if n >= 0 && n < 10 then begin
    Bytes.unsafe_set b p (digit n);
    p + 1
  end
  else if n >= 10 && n < 100 then begin
    Bytes.unsafe_set b p (digit (n / 10));
    Bytes.unsafe_set b (p + 1) (digit (n mod 10));
    p + 2
  end
  else if n = -1 then begin
    Bytes.unsafe_set b p '-';
    Bytes.unsafe_set b (p + 1) '1';
    p + 2
  end
  else general_int b p n

(* a one-byte token *)
let mark w c =
  let p = room w 1 in
  Bytes.unsafe_set w.out p c;
  w.len <- p + 1

(* [c], then [';'] *)
let[@inline] token_mark w c =
  let p = room w 2 in
  Bytes.unsafe_set w.out p c;
  Bytes.unsafe_set w.out (p + 1) ';';
  w.len <- p + 2

(* [c], then [n], then [';'] *)
let[@inline] token w c n =
  let p = room w (int_room + 2) in
  let b = w.out in
  Bytes.unsafe_set b p c;
  let p = put_int b (p + 1) n in
  Bytes.unsafe_set b p ';';
  w.len <- p + 1

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

let[@inline] put_value w v =
  match v with
  | Value.Int n -> token w 'i' n
  | Value.Bool b -> token_mark w (if b then 'T' else 'F')
  | Value.Handle h -> token w 'h' (canon_of w h)

let put_values w vs =
  for i = 0 to Array.length vs - 1 do
    put_value w (Array.unsafe_get vs i)
  done

let put_cell w addr =
  match Heap_map.find_opt addr w.cells with
  | None | Some { freed = true; _ } -> mark w '!'
  | Some { data; freed = false } ->
    mark w '[';
    put_values w data;
    mark w ']'

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
  let w =
    { sink; cells = t.heap; ren = None; out = Bytes.create out_size; len = 0 }
  in
  put_values w t.globals;
  mark w '|';
  for i = 0 to Array.length t.syncs - 1 do
    match t.syncs.(i) with
    | Mutex_cell owner -> token w 'm' owner
    | Event_cell s -> token_mark w (if s then 'E' else 'e')
    | Sem_cell n -> token w 's' n
  done;
  mark w '|';
  for i = 0 to Array.length t.threads - 1 do
    let th = t.threads.(i) in
    let p = room w ((3 * int_room) + 4) in
    let b = w.out in
    let p = put_int b p th.proc in
    Bytes.unsafe_set b p ':';
    let p = put_int b (p + 1) th.pc in
    Bytes.unsafe_set b p (if th.finished then 'X' else 'R');
    Bytes.unsafe_set b (p + 1) (if th.yielded then 'Y' else 'N');
    let p = put_int b (p + 2) th.atomic in
    Bytes.unsafe_set b p ',';
    w.len <- p + 1;
    put_values w th.regs;
    mark w '/'
  done;
  mark w '|';
  drain w;
  (* leaked live cells, in address order, each traversed too; a state
     without a heap skips building the closure *)
  if not (Heap_map.is_empty t.heap) then
    Heap_map.iter
      (fun addr cell ->
        if (not cell.freed) && not (renamed w addr) then begin
          mark w 'L';
          ignore (canon_of w addr);
          drain w
        end)
      t.heap;
  mark w '|';
  (match t.error with
  | None -> ()
  | Some e -> String.iter (mark w) (Merr.key e));
  flush w

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
