(* A generator of small two-worker programs in the modelling language,
   for the suites that compare searches on generated inputs. *)

open QCheck.Gen

(* Actions over a fixed vocabulary: two data globals, one volatile, two
   mutexes, one manual event.  Locked blocks keep lock usage
   well-formed; bare data ops make races (and hence skipped comparisons)
   possible but not dominant. *)
(* each generated temporary gets a fresh name: locals are block-scoped
   with shadowing disallowed *)
let temp_counter = ref 0

let fresh_temp () =
  incr temp_counter;
  Printf.sprintf "t%d" !temp_counter

let action =
  frequency
    [
      ( 4,
        map2
          (fun m d ->
            Printf.sprintf
              "  lock(m%d);\n  d%d = d%d + 1;\n  unlock(m%d);\n" m d d m)
          (int_range 0 1) (int_range 0 1) );
      ( 2,
        map
          (fun d -> Printf.sprintf "  d%d = d%d + 2;\n" d d)
          (int_range 0 1) );
      ( 2,
        map
          (fun () ->
            let t = fresh_temp () in
            Printf.sprintf "  var %s: int;\n  %s = fetch_add(v, 1);\n" t t)
          unit );
      (1, return "  signal(ev);\n");
      (1, return "  wait(ev);\n");
      (1, return "  yield;\n");
      ( 1,
        map
          (fun d ->
            let a = fresh_temp () in
            Printf.sprintf
              "  atomic {\n    var %s: int = d%d;\n    d%d = %s + 3;\n  }\n" a
              d d a)
          (int_range 0 1) );
      ( 1,
        map
          (fun d ->
            let c = fresh_temp () in
            Printf.sprintf
              "  var %s: int;\n  lock(m0);\n  %s = d%d;\n  unlock(m0);\n\
               \  assert(%s < 9, \"counter overflow\");\n"
              c c d c)
          (int_range 0 1) );
    ]

let body = map (String.concat "") (list_size (int_range 1 3) action)

let program =
  map2
    (fun b1 b2 ->
      Printf.sprintf
        {|
var d0: int;
var d1: int;
volatile var v: int = 0;
mutex m0;
mutex m1;
event manual ev;

proc w1() {
%s}

proc w2() {
%s}

main {
spawn w1();
spawn w2();
}
|}
        b1 b2)
    body body
