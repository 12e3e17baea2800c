(* Order statistics for the benchmark's reports.  Quartiles follow
   Python's [statistics.quantiles(values, n=4)] (the "exclusive" method),
   so a spread computed here matches one recomputed from the raw values
   with the standard library. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, q2, q3); a single value is its own quartiles *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> (nan, nan, nan)
  | [| x |] -> (x, x, x)
  | a ->
    let n = Array.length a in
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* nearest-rank percentile, [p] in (0, 100] *)
let percentile p xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))
