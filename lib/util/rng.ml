type t = { mutable state : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

let create seed = { state = seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* keep 62 bits so the value fits OCaml's native int non-negatively *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let split t = create (next_int64 t)
