(* Host-speed calibration.

   The benchmark's host is shared.  The same rep takes up to 1.5x longer
   during phases, lasting minutes, when neighbours are busy, and a run is
   far too short to average such a phase out.  So every rep is bracketed
   by two small kernels that use nothing from this repository, only the
   OCaml runtime: a walk of dependent loads over a 32 MB permutation
   (memory latency, which tracked the searches' slowdowns best) and a
   loop of short allocations, hash-table updates and hashing (minor GC
   and cache-resident work).  Both run in the parent between reps, in
   the same process state every time.

   [factor ()] is how much slower than the reference host the kernels
   ran: the geometric mean of each kernel's median time over its
   reference time.  Timings divided by it are "reference-host" times. *)

(* median kernel times on the reference host (2-vCPU Xeon VM, quiet
   phase); only their product matters for comparisons on one host *)
let ref_walk_s = 0.0247
let ref_alloc_s = 0.0169

let cycle =
  lazy
    (let n = 1 lsl 22 in
     let a = Array.init n Fun.id in
     (* Sattolo's shuffle: one cycle through every cell *)
     let rng = Random.State.make [| 7 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let x = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- x
     done;
     a)

let walk () =
  let a = Lazy.force cycle in
  let i = ref 0 in
  for _ = 1 to 200_000 do
    i := a.(!i)
  done;
  Sys.opaque_identity !i

let alloc () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 60_000 do
    let l = List.init 6 (fun j -> (i * 31) + j) in
    Hashtbl.replace h (i land 8191) l;
    acc := !acc + (Hashtbl.hash (i, l) land 0xff)
  done;
  Sys.opaque_identity !acc

let median_time kernel =
  let one () =
    let t0 = Layers.now () in
    ignore (kernel ());
    Layers.secs (Layers.now () - t0)
  in
  Stats.median (List.init 3 (fun _ -> one ()))

let factor () =
  ignore (Lazy.force cycle);
  sqrt (median_time walk /. ref_walk_s *. (median_time alloc /. ref_alloc_s))
