module Bignat = Icb_util.Bignat
module Combin = Icb_util.Combin
module Fnv = Icb_util.Fnv
module Rng = Icb_util.Rng
module Framing = Icb_util.Framing

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Bignat ------------------------------------------------------------- *)

let small_nat = QCheck.Gen.int_range 0 1_000_000

let pair_nat = QCheck.make QCheck.Gen.(pair small_nat small_nat)

let triple_nat = QCheck.make QCheck.Gen.(triple small_nat small_nat small_nat)

let bignat_tests =
  [
    Alcotest.test_case "zero and one" `Quick (fun () ->
        check Alcotest.string "zero" "0" (Bignat.to_string Bignat.zero);
        check Alcotest.string "one" "1" (Bignat.to_string Bignat.one));
    Alcotest.test_case "of_int negative rejected" `Quick (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Bignat.of_int: negative") (fun () ->
            ignore (Bignat.of_int (-1))));
    Alcotest.test_case "factorial 20" `Quick (fun () ->
        check Alcotest.string "20!" "2432902008176640000"
          (Bignat.to_string (Bignat.factorial 20)));
    Alcotest.test_case "factorial 30 (multi-limb)" `Quick (fun () ->
        check Alcotest.string "30!" "265252859812191058636308480000000"
          (Bignat.to_string (Bignat.factorial 30)));
    Alcotest.test_case "binomial values" `Quick (fun () ->
        check Alcotest.string "C(52,5)" "2598960"
          (Bignat.to_string (Bignat.binomial 52 5));
        check Alcotest.string "C(100,50)"
          "100891344545564193334812497256"
          (Bignat.to_string (Bignat.binomial 100 50));
        check Alcotest.bool "C(5,7) = 0" true
          (Bignat.equal (Bignat.binomial 5 7) Bignat.zero);
        check Alcotest.bool "C(5,-1) = 0" true
          (Bignat.equal (Bignat.binomial 5 (-1)) Bignat.zero));
    Alcotest.test_case "sub underflow rejected" `Quick (fun () ->
        Alcotest.check_raises "sub"
          (Invalid_argument "Bignat.sub: negative result") (fun () ->
            ignore (Bignat.sub (Bignat.of_int 3) (Bignat.of_int 4))));
    Alcotest.test_case "div_int_exact" `Quick (fun () ->
        check Alcotest.string "6/3" "2"
          (Bignat.to_string (Bignat.div_int_exact (Bignat.of_int 6) 3));
        Alcotest.check_raises "inexact"
          (Invalid_argument "Bignat.div_int_exact: inexact") (fun () ->
            ignore (Bignat.div_int_exact (Bignat.of_int 7) 3)));
    Alcotest.test_case "pow" `Quick (fun () ->
        check Alcotest.string "2^100" "1267650600228229401496703205376"
          (Bignat.to_string (Bignat.pow (Bignat.of_int 2) 100));
        check Alcotest.string "x^0" "1"
          (Bignat.to_string (Bignat.pow (Bignat.of_int 12345) 0)));
    qtest
      (QCheck.Test.make ~name:"roundtrip via to_int_opt" ~count:500
         (QCheck.make small_nat) (fun n ->
           Bignat.to_int_opt (Bignat.of_int n) = Some n));
    qtest
      (QCheck.Test.make ~name:"add matches native" ~count:500 pair_nat
         (fun (a, b) ->
           Bignat.to_int_opt (Bignat.add (Bignat.of_int a) (Bignat.of_int b))
           = Some (a + b)));
    qtest
      (QCheck.Test.make ~name:"mul matches native" ~count:500 pair_nat
         (fun (a, b) ->
           Bignat.to_string (Bignat.mul (Bignat.of_int a) (Bignat.of_int b))
           = string_of_int (a * b)));
    qtest
      (QCheck.Test.make ~name:"sub inverts add" ~count:500 pair_nat
         (fun (a, b) ->
           Bignat.equal
             (Bignat.sub (Bignat.add (Bignat.of_int a) (Bignat.of_int b))
                (Bignat.of_int b))
             (Bignat.of_int a)));
    qtest
      (QCheck.Test.make ~name:"mul distributes over add" ~count:200 triple_nat
         (fun (a, b, c) ->
           let n = Bignat.of_int in
           Bignat.equal
             (Bignat.mul (n a) (Bignat.add (n b) (n c)))
             (Bignat.add (Bignat.mul (n a) (n b)) (Bignat.mul (n a) (n c)))));
    qtest
      (QCheck.Test.make ~name:"mul_int agrees with mul" ~count:500 pair_nat
         (fun (a, b) ->
           Bignat.equal
             (Bignat.mul_int (Bignat.of_int a) b)
             (Bignat.mul (Bignat.of_int a) (Bignat.of_int b))));
    qtest
      (QCheck.Test.make ~name:"compare is a total order consistent with ints"
         ~count:500 pair_nat (fun (a, b) ->
           Bignat.compare (Bignat.of_int a) (Bignat.of_int b)
           = Stdlib.compare a b));
    qtest
      (QCheck.Test.make ~name:"Pascal's rule" ~count:200
         (QCheck.make QCheck.Gen.(pair (int_range 1 60) (int_range 1 60)))
         (fun (n, k) ->
           let k = min k n in
           Bignat.equal (Bignat.binomial n k)
             (Bignat.add
                (Bignat.binomial (n - 1) (k - 1))
                (Bignat.binomial (n - 1) k))));
    qtest
      (QCheck.Test.make ~name:"binomial symmetry" ~count:200
         (QCheck.make QCheck.Gen.(pair (int_range 0 80) (int_range 0 80)))
         (fun (n, k) ->
           let k = min k n in
           Bignat.equal (Bignat.binomial n k) (Bignat.binomial n (n - k))));
  ]

(* --- Combin ------------------------------------------------------------- *)

let combin_tests =
  [
    Alcotest.test_case "theorem 1 bound, zero preemptions" `Quick (fun () ->
        (* C(nk,0) * (nb)! = (nb)! *)
        check Alcotest.string "n=2 k=3 b=1 c=0" "2"
          (Bignat.to_string (Combin.theorem1_bound ~n:2 ~k:3 ~b:1 ~c:0)));
    Alcotest.test_case "theorem 1 bound, general" `Quick (fun () ->
        (* C(6,2) * (2+2)! = 15 * 24 = 360 *)
        check Alcotest.string "n=2 k=3 b=1 c=2" "360"
          (Bignat.to_string (Combin.theorem1_bound ~n:2 ~k:3 ~b:1 ~c:2)));
    Alcotest.test_case "nonblocking bound" `Quick (fun () ->
        (* (n^2 k)^c * n! with n=2,k=3,c=1: 12 * 2 = 24 *)
        check Alcotest.string "nonblocking" "24"
          (Bignat.to_string (Combin.nonblocking_bound ~n:2 ~k:3 ~c:1)));
    Alcotest.test_case "total executions (nk)!/(k!)^n" `Quick (fun () ->
        (* n=2, k=2: 4!/(2!2!) = 6 *)
        check Alcotest.string "n=2 k=2" "6"
          (Bignat.to_string (Combin.total_executions_upper ~n:2 ~k:2));
        (* n=3, k=2: 6!/(2!)^3 = 90 *)
        check Alcotest.string "n=3 k=2" "90"
          (Bignat.to_string (Combin.total_executions_upper ~n:3 ~k:2)));
    qtest
      (QCheck.Test.make ~name:"theorem1 grows with c" ~count:100
         (QCheck.make
            QCheck.Gen.(
              quad (int_range 1 4) (int_range 1 6) (int_range 1 3)
                (int_range 0 4)))
         (fun (n, k, b, c) ->
           (* the bound with c+1 preemptions dominates the bound with c,
              as long as preemption slots remain *)
           QCheck.assume ((n * k) - c > 0);
           Bignat.compare
             (Combin.theorem1_bound ~n ~k ~b ~c:(c + 1))
             (Combin.theorem1_bound ~n ~k ~b ~c)
           >= 0));
  ]

(* --- Fnv ---------------------------------------------------------------- *)

let fnv_tests =
  [
    Alcotest.test_case "known vector" `Quick (fun () ->
        (* FNV-1a 64 of empty input is the offset basis *)
        check Alcotest.string "empty" "cbf29ce484222325"
          (Fnv.to_hex (Fnv.hash_string "")));
    Alcotest.test_case "distinct strings hash differently" `Quick (fun () ->
        check Alcotest.bool "a vs b" true
          (Fnv.hash_string "a" <> Fnv.hash_string "b");
        check Alcotest.bool "order sensitive" true
          (Fnv.hash_string "ab" <> Fnv.hash_string "ba"));
    qtest
      (QCheck.Test.make ~name:"string hashing is prefix-incremental" ~count:300
         (QCheck.make QCheck.Gen.(pair string string)) (fun (a, b) ->
           Fnv.string (Fnv.hash_string a) b = Fnv.hash_string (a ^ b)));
    qtest
      (QCheck.Test.make ~name:"combine_commutative commutes" ~count:300
         (QCheck.make QCheck.Gen.(pair string string)) (fun (a, b) ->
           let ha = Fnv.hash_string a and hb = Fnv.hash_string b in
           Fnv.combine_commutative ha hb = Fnv.combine_commutative hb ha));
    qtest
      (QCheck.Test.make ~name:"int feeding differs from int64 of other value"
         ~count:300
         (QCheck.make QCheck.Gen.(pair int int))
         (fun (a, b) ->
           QCheck.assume (a <> b);
           Fnv.int Fnv.basis a <> Fnv.int Fnv.basis b));
    Alcotest.test_case "known-answer vectors" `Quick (fun () ->
        (* the published FNV-1a 64 test vectors *)
        check Alcotest.string "a" "af63dc4c8601ec8c"
          (Fnv.to_hex (Fnv.hash_string "a"));
        check Alcotest.string "foobar" "85944171f73967e8"
          (Fnv.to_hex (Fnv.hash_string "foobar"));
        check Alcotest.string "char" "af63dc4c8601ec8c"
          (Fnv.to_hex (Fnv.char Fnv.basis 'a')));
    qtest
      (QCheck.Test.make ~name:"a running hash equals the string's hash"
         ~count:300
         (QCheck.make QCheck.Gen.(triple string string nat))
         (fun (a, b, k) ->
           (* [a] in one run, [b] in two runs split at [k], each run cut
              out of a larger buffer *)
           let add acc s =
             let b = Bytes.of_string ("<" ^ s ^ ">") in
             Fnv.add_subbytes acc b 1 (String.length s)
           in
           let acc = Fnv.acc () in
           add acc a;
           let mid = Fnv.value acc in
           let k = if b = "" then 0 else k mod (String.length b + 1) in
           add acc (String.sub b 0 k);
           add acc (String.sub b k (String.length b - k));
           let rejected pos len =
             match Fnv.add_subbytes acc (Bytes.of_string b) pos len with
             | () -> false
             | exception Invalid_argument _ -> true
           in
           mid = Fnv.hash_string a
           && Fnv.value acc = Fnv.hash_string (a ^ b)
           && rejected (-1) 0
           && rejected 0 (String.length b + 1)
           && rejected (String.length b) (-1)
           && Fnv.value acc = Fnv.hash_string (a ^ b)));
  ]

(* --- Rng ---------------------------------------------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Rng.create 42L and b = Rng.create 42L in
        for _ = 1 to 100 do
          check Alcotest.int64 "step" (Rng.next_int64 a) (Rng.next_int64 b)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = Rng.create 1L and b = Rng.create 2L in
        check Alcotest.bool "diverge" true (Rng.next_int64 a <> Rng.next_int64 b));
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int: non-positive bound")
          (fun () -> ignore (Rng.int (Rng.create 0L) 0)));
    Alcotest.test_case "pick rejects empty" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
          (fun () -> ignore (Rng.pick (Rng.create 0L) ([] : int list))));
    qtest
      (QCheck.Test.make ~name:"int stays in bounds" ~count:500
         (QCheck.make QCheck.Gen.(pair int64 (int_range 1 1000)))
         (fun (seed, bound) ->
           let r = Rng.create seed in
           let v = Rng.int r bound in
           v >= 0 && v < bound));
    qtest
      (QCheck.Test.make ~name:"pick returns a member" ~count:300
         (QCheck.make QCheck.Gen.(pair int64 (list_size (int_range 1 20) int)))
         (fun (seed, l) ->
           List.mem (Rng.pick (Rng.create seed) l) l));
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a = Rng.create 7L in
        let b = Rng.split a in
        check Alcotest.bool "values differ" true
          (Rng.next_int64 a <> Rng.next_int64 b));
  ]

(* --- Framing -------------------------------------------------------------- *)

let framing_tests =
  [
    (* A frame header that declares a 2 GiB payload, followed by nothing:
       the reader must allocate what arrives, not what is declared. *)
    Alcotest.test_case "a declared length allocates only what arrives" `Quick
      (fun () ->
        let magic = "ICBDIST\x01" in
        let path = Filename.temp_file "icb-frame" ".bin" in
        let oc = open_out_bin path in
        output_string oc magic;
        output_binary_int oc 2;
        output_string oc (String.make 16 '\000');
        output_binary_int oc 0x7fffffff;
        close_out oc;
        let ic = open_in_bin path in
        let before = Gc.allocated_bytes () in
        let r = Framing.read_frame ic ~magic in
        let grown = Gc.allocated_bytes () -. before in
        close_in ic;
        Sys.remove path;
        check Alcotest.bool "truncated payload" true
          (r = Error (Framing.Truncated Framing.Payload));
        check Alcotest.bool
          (Printf.sprintf "%.0f bytes allocated" grown)
          true (grown < 1048576.));
    Alcotest.test_case "a payload larger than one read chunk round-trips"
      `Quick (fun () ->
        let path = Filename.temp_file "icb-frame" ".bin" in
        let payload = String.init 200_000 (fun i -> Char.chr (i land 0xff)) in
        Framing.write_file ~path ~magic:"TEST" ~version:1 ~payload;
        let r = Framing.read_file ~path ~magic:"TEST" () in
        Sys.remove path;
        check Alcotest.bool "same payload" true (r = Ok (1, payload)));
    Alcotest.test_case "a directory cannot be opened, not a truncation"
      `Quick (fun () ->
        let path = Filename.temp_file "icb-frame" ".ckpt" in
        Sys.remove path;
        Sys.mkdir path 0o700;
        let r = Framing.read_file ~path ~magic:"TEST" () in
        Sys.rmdir path;
        check Alcotest.bool "Cannot_open naming the directory" true
          (r = Error (Framing.Cannot_open (path ^ ": Is a directory"))));
  ]

(* --- Sigset ------------------------------------------------------------- *)

module Sigset = Icb_util.Sigset

(* Keys an open-addressing table could confuse: its free-slot marker 0L,
   the extremes, and runs that agree in their low 16 bits. *)
let special_keys =
  [ 0L; -1L; 1L; Int64.min_int; Int64.max_int ]
  @ List.init 8 (fun i -> Int64.shift_left (Int64.of_int (i + 1)) 16)
  @ List.init 8 (fun i ->
        Int64.logor 0xBEEFL (Int64.shift_left (Int64.of_int (i + 1)) 40))

let key_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl special_keys);
        (2, map Int64.of_int (int_range 0 3000));
        (1, ui64);
      ])

(* Sorted members, failing if [iter] yields one twice. *)
let members s =
  let seen = Hashtbl.create 64 in
  Sigset.iter
    (fun k ->
      if Hashtbl.mem seen k then Alcotest.failf "%Ld iterated twice" k;
      Hashtbl.add seen k ())
    s;
  List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let sigset_tests =
  [
    qtest
      (QCheck.Test.make ~name:"agrees with a Hashtbl model" ~count:200
         (QCheck.make
            QCheck.Gen.(list_size (int_range 0 2000) (pair bool key_gen)))
         (fun ops ->
           (* from 16 slots, a couple of thousand keys force several
              growths; [false] ops only probe *)
           let s = Sigset.create 1 in
           let m = Hashtbl.create 16 in
           List.for_all
             (fun (add, k) ->
               if add then begin
                 Sigset.add s k;
                 Hashtbl.replace m k ()
               end;
               Sigset.mem s k = Hashtbl.mem m k
               && Sigset.length s = Hashtbl.length m)
             ops
           && members s
              = List.sort Int64.compare
                  (Hashtbl.fold (fun k () acc -> k :: acc) m [])));
    Alcotest.test_case "every special key is a member like any other" `Quick
      (fun () ->
        let s = Sigset.create 4 in
        List.iter
          (fun k ->
            check Alcotest.bool (Printf.sprintf "%Ld absent" k) false
              (Sigset.mem s k);
            Sigset.add s k;
            Sigset.add s k)
          special_keys;
        check Alcotest.int "length" (List.length special_keys)
          (Sigset.length s);
        check (Alcotest.list Alcotest.int64) "members"
          (List.sort Int64.compare special_keys)
          (members s));
    Alcotest.test_case "reset empties the set" `Quick (fun () ->
        let s = Sigset.create 2 in
        List.iter (Sigset.add s) special_keys;
        Sigset.reset s;
        check Alcotest.int "empty" 0 (Sigset.length s);
        check Alcotest.bool "0L gone" false (Sigset.mem s 0L);
        check Alcotest.bool "max_int gone" false (Sigset.mem s Int64.max_int);
        Sigset.add s 7L;
        check (Alcotest.list Alcotest.int64) "usable" [ 7L ] (members s));
    Alcotest.test_case "collector snapshot, restore, snapshot keeps the set"
      `Quick (fun () ->
        let module Collector = Icb_search.Collector in
        let module J = Icb_obs.Json in
        let keys =
          special_keys
          @ List.init 5000 (fun i ->
                Int64.mul (Int64.of_int i) 0x9E3779B97F4A7C15L)
        in
        let col = Collector.create Collector.default_options in
        List.iter (Collector.touch col) keys;
        let visited snap =
          match J.find (Collector.snapshot_to_json snap) "visited" with
          | Some (J.List l) ->
            List.sort Int64.compare
              (List.map
                 (function
                   | J.String v -> Int64.of_string v
                   | _ -> Alcotest.fail "visited entry is not a string")
                 l)
          | _ -> Alcotest.fail "no visited list"
        in
        let s1 = Collector.snapshot col in
        let s2 =
          Collector.snapshot (Collector.restore Collector.default_options s1)
        in
        check Alcotest.int "distinct states"
          (List.length (List.sort_uniq Int64.compare keys))
          (Collector.snapshot_states s1);
        check Alcotest.int "states after restore"
          (Collector.snapshot_states s1)
          (Collector.snapshot_states s2);
        check (Alcotest.list Alcotest.int64) "same set" (visited s1)
          (visited s2));
  ]

let () =
  Alcotest.run "util"
    [
      ("bignat", bignat_tests);
      ("combin", combin_tests);
      ("fnv", fnv_tests);
      ("rng", rng_tests);
      ("frame", framing_tests);
      ("sigset", sigset_tests);
    ]
