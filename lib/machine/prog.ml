type global = {
  gname : string;
  gsize : int;
  ginit : Value.t;
  gvolatile : bool;
}

type sync_kind =
  | Mutex
  | Event of { manual : bool; initially_signaled : bool }
  | Semaphore of { initial : int }

type sync_decl = {
  sname : string;
  ssize : int;
  skind : sync_kind;
}

type proc = {
  pname : string;
  nparams : int;
  nregs : int;
  code : Instr.t array;
}

type t = {
  globals : global array;
  syncs : sync_decl array;
  procs : proc array;
  main : int;
}

let offsets sizes =
  let n = Array.length sizes in
  let r = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    r.(i + 1) <- r.(i) + sizes.(i)
  done;
  r

let global_offsets t = offsets (Array.map (fun g -> g.gsize) t.globals)

let sync_offsets t = offsets (Array.map (fun s -> s.ssize) t.syncs)

let find_by name proj arr =
  let rec go i =
    if i >= Array.length arr then raise Not_found
    else if String.equal (proj arr.(i)) name then i
    else go (i + 1)
  in
  go 0

let find_global t name = find_by name (fun g -> g.gname) t.globals

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  try
    if t.main < 0 || t.main >= Array.length t.procs then
      bad "main index %d out of range" t.main;
    if t.procs.(t.main).nparams <> 0 then bad "main must take no parameters";
    Array.iter
      (fun g ->
        if g.gsize < 1 then bad "global %s has size %d" g.gname g.gsize)
      t.globals;
    Array.iter
      (fun s -> if s.ssize < 1 then bad "sync %s has size %d" s.sname s.ssize)
      t.syncs;
    Array.iteri
      (fun pi p ->
        if p.nparams > p.nregs then
          bad "proc %s: %d params > %d regs" p.pname p.nparams p.nregs;
        let check_reg r =
          if r < 0 || r >= p.nregs then bad "proc %s: register %d" p.pname r
        in
        let check_op = function
          | Instr.Reg r -> check_reg r
          | Instr.Imm _ -> ()
        in
        let check_gid gid =
          if gid < 0 || gid >= Array.length t.globals then
            bad "proc %s: global %d" p.pname gid
        in
        let check_obj ({ sid; sidx } : Instr.objref) =
          if sid < 0 || sid >= Array.length t.syncs then
            bad "proc %s: sync %d" p.pname sid;
          check_op sidx
        in
        let check_label l =
          if l < 0 || l >= Array.length p.code then
            bad "proc %s: jump target %d" p.pname l
        in
        Array.iter
          (fun (i : Instr.t) ->
            match i with
            | Load { dst; gid; idx } ->
              check_reg dst; check_gid gid; check_op idx
            | Store { gid; idx; src } -> check_gid gid; check_op idx; check_op src
            | Cas { dst; gid; idx; expect; update } ->
              check_reg dst; check_gid gid; check_op idx; check_op expect;
              check_op update;
              if not t.globals.(gid).gvolatile then
                bad "proc %s: cas on non-volatile global %s" p.pname
                  t.globals.(gid).gname
            | Fetch_add { dst; gid; idx; delta } ->
              check_reg dst; check_gid gid; check_op idx; check_op delta;
              if not t.globals.(gid).gvolatile then
                bad "proc %s: fetch_add on non-volatile global %s" p.pname
                  t.globals.(gid).gname
            | Load_heap { dst; h; idx } -> check_reg dst; check_op h; check_op idx
            | Store_heap { h; idx; src } -> check_op h; check_op idx; check_op src
            | Alloc { dst; size } -> check_reg dst; check_op size
            | Free { h } -> check_op h
            | Prim { dst; op = _; args } -> check_reg dst; List.iter check_op args
            | Mov { dst; src } -> check_reg dst; check_op src
            | Jump l -> check_label l
            | Jump_if_zero { cond; target } -> check_op cond; check_label target
            | Assert { cond; msg = _ } -> check_op cond
            | Lock o | Unlock o | Wait o | Signal o | Reset o
            | Sem_acquire o | Sem_release o -> check_obj o
            | Spawn { proc; args } ->
              if proc < 0 || proc >= Array.length t.procs then
                bad "proc %s: spawn of proc %d" p.pname proc;
              if List.length args <> t.procs.(proc).nparams then
                bad "proc %s: spawn of %s with %d args (expected %d)" p.pname
                  t.procs.(proc).pname (List.length args)
                  t.procs.(proc).nparams;
              List.iter check_op args
            | Yield | Atomic_begin | Atomic_end | Halt -> ())
          p.code;
        ignore pi)
      t.procs;
    Ok ()
  with Bad msg -> err "%s" msg

let pp fmt t =
  let f x = Format.fprintf fmt x in
  Array.iter
    (fun g ->
      f "%svar %s[%d] = %a@." (if g.gvolatile then "volatile " else "")
        g.gname g.gsize Value.pp g.ginit)
    t.globals;
  Array.iter
    (fun s ->
      let kind =
        match s.skind with
        | Mutex -> "mutex"
        | Event { manual; initially_signaled } ->
          Printf.sprintf "event(manual=%b,signaled=%b)" manual initially_signaled
        | Semaphore { initial } -> Printf.sprintf "semaphore(%d)" initial
      in
      f "%s %s[%d]@." kind s.sname s.ssize)
    t.syncs;
  Array.iteri
    (fun pi p ->
      f "proc %s/%d (params=%d, regs=%d)%s@." p.pname pi p.nparams p.nregs
        (if pi = t.main then " <main>" else "");
      Array.iteri (fun i ins -> f "  %3d: %a@." i Instr.pp ins) p.code)
    t.procs
