(* Tests for cq_automata.Mealy: construction, runs, reachable enumeration,
   minimization, equivalence, access sequences, DOT export. *)

module Mealy = Cq_automata.Mealy

(* The LRU-2 machine of Example 2.2: state = line to evict next. *)
let lru2 =
  Mealy.make ~init:0 ~n_inputs:3
    ~next:[| [| 1; 0; 1 |]; [| 1; 0; 0 |] |]
    ~out:[| [| "_"; "_"; "0" |]; [| "_"; "_"; "1" |] |]

let test_make_validation () =
  Alcotest.check_raises "dangling transition"
    (Invalid_argument "Mealy: dangling transition") (fun () ->
      ignore (Mealy.make ~init:0 ~n_inputs:1 ~next:[| [| 5 |] |] ~out:[| [| 0 |] |]));
  Alcotest.check_raises "bad initial state"
    (Invalid_argument "Mealy: bad initial state") (fun () ->
      ignore (Mealy.make ~init:3 ~n_inputs:1 ~next:[| [| 0 |] |] ~out:[| [| 0 |] |]));
  Alcotest.check_raises "row size mismatch"
    (Invalid_argument "Mealy: transition row size mismatch") (fun () ->
      ignore (Mealy.make ~init:0 ~n_inputs:2 ~next:[| [| 0 |] |] ~out:[| [| 0 |] |]))

let test_run_example_2_2 () =
  (* Accessing Ln(0) makes line 1 the next victim. *)
  Alcotest.(check (list string)) "outputs" [ "_"; "1"; "_"; "0" ]
    (Mealy.run lru2 [ 0; 2; 1; 2 ])

let test_step_out_of_range () =
  Alcotest.check_raises "input range" (Invalid_argument "Mealy.step: input out of range")
    (fun () -> ignore (Mealy.step lru2 0 3))

let test_state_after () =
  Alcotest.(check int) "after Ln(0)" 1 (Mealy.state_after lru2 [ 0 ]);
  Alcotest.(check int) "after Ln(0) Ln(1)" 0 (Mealy.state_after lru2 [ 0; 1 ])

let test_of_fun_counter () =
  (* A mod-5 counter with one input. *)
  let m =
    Mealy.of_fun ~init:0 ~n_inputs:1
      ~step:(fun s _ -> ((s + 1) mod 5, s))
      ~max_states:100
  in
  Alcotest.(check int) "5 states" 5 (Mealy.n_states m);
  Alcotest.(check (list int)) "outputs cycle" [ 0; 1; 2; 3; 4; 0 ]
    (Mealy.run m [ 0; 0; 0; 0; 0; 0 ])

let test_of_fun_budget () =
  Alcotest.check_raises "budget enforced"
    (Failure "Mealy.of_fun: more than 3 reachable states") (fun () ->
      ignore
        (Mealy.of_fun ~init:0 ~n_inputs:1
           ~step:(fun s _ -> (s + 1, ()))
           ~max_states:3))

let test_minimize_collapses () =
  (* Two redundant copies of a 1-state machine. *)
  let m =
    Mealy.make ~init:0 ~n_inputs:1 ~next:[| [| 1 |]; [| 0 |] |]
      ~out:[| [| "x" |]; [| "x" |] |]
  in
  let mm = Mealy.minimize m in
  Alcotest.(check int) "collapsed" 1 (Mealy.n_states mm);
  Alcotest.(check bool) "still equivalent" true (Mealy.equivalent m mm)

let test_minimize_drops_unreachable () =
  let m =
    Mealy.make ~init:0 ~n_inputs:1 ~next:[| [| 0 |]; [| 1 |] |]
      ~out:[| [| "a" |]; [| "b" |] |]
  in
  Alcotest.(check int) "unreachable dropped" 1 (Mealy.n_states (Mealy.minimize m))

let test_counterexample_shortest () =
  (* Machines agreeing on the first input, differing on the second step. *)
  let a =
    Mealy.make ~init:0 ~n_inputs:1 ~next:[| [| 1 |]; [| 1 |] |]
      ~out:[| [| "x" |]; [| "y" |] |]
  in
  let b =
    Mealy.make ~init:0 ~n_inputs:1 ~next:[| [| 1 |]; [| 1 |] |]
      ~out:[| [| "x" |]; [| "z" |] |]
  in
  Alcotest.(check (option (list int))) "length-2 cex" (Some [ 0; 0 ])
    (Mealy.find_counterexample a b);
  Alcotest.(check (option (list int))) "self equivalent" None
    (Mealy.find_counterexample a a)

let test_counterexample_from_states () =
  (* Distinguish the two states of LRU-2: Evct outputs differ. *)
  Alcotest.(check (option (list int))) "Evct separates" (Some [ 2 ])
    (Mealy.find_counterexample ~from_a:(Some 0) ~from_b:(Some 1) lru2 lru2)

let test_isomorphic () =
  (* Same machine with states renumbered. *)
  let renamed =
    Mealy.make ~init:1 ~n_inputs:3
      ~next:[| [| 0; 1; 1 |]; [| 0; 1; 0 |] |]
      ~out:[| [| "_"; "_"; "1" |]; [| "_"; "_"; "0" |] |]
  in
  Alcotest.(check bool) "isomorphic" true (Mealy.isomorphic lru2 renamed)

let test_access_sequences () =
  let acc = Mealy.access_sequences lru2 in
  Alcotest.(check (option (list int))) "init" (Some []) acc.(0);
  (match acc.(1) with
  | Some w -> Alcotest.(check int) "state 1 reached" 1 (Mealy.state_after lru2 w)
  | None -> Alcotest.fail "state 1 unreachable");
  (* Unreachable states get None. *)
  let m =
    Mealy.make ~init:0 ~n_inputs:1 ~next:[| [| 0 |]; [| 1 |] |]
      ~out:[| [| 0 |]; [| 1 |] |]
  in
  Alcotest.(check (option (list int))) "unreachable" None (Mealy.access_sequences m).(1)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_to_dot () =
  let dot = Mealy.to_dot ~input_label:string_of_int ~output_label:Fun.id lru2 in
  Alcotest.(check bool) "digraph" true (String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "initial edge" true (contains ~needle:"__start -> s0" dot);
  Alcotest.(check bool) "labelled transition" true (contains ~needle:"s0 -> s1" dot)

(* --- qcheck ------------------------------------------------------------ *)

(* Random Mealy machine generator: (n_states, n_inputs, tables). *)
let gen_mealy =
  QCheck.Gen.(
    let* n = 1 -- 8 in
    let* k = 1 -- 4 in
    let* outs = list_size (return (n * k)) (0 -- 2) in
    let* nexts = list_size (return (n * k)) (0 -- (n - 1)) in
    let next =
      Array.init n (fun s -> Array.init k (fun i -> List.nth nexts ((s * k) + i)))
    in
    let out =
      Array.init n (fun s -> Array.init k (fun i -> List.nth outs ((s * k) + i)))
    in
    return (Mealy.make ~init:0 ~n_inputs:k ~next ~out))

let arb_mealy = QCheck.make gen_mealy

let gen_word k = QCheck.Gen.(list_size (1 -- 12) (0 -- (k - 1)))

let prop_minimize_equivalent =
  QCheck.Test.make ~name:"minimize preserves traces" ~count:200 arb_mealy
    (fun m -> Mealy.equivalent m (Mealy.minimize m))

let prop_minimize_idempotent =
  QCheck.Test.make ~name:"minimize is idempotent (state count)" ~count:200
    arb_mealy (fun m ->
      let m1 = Mealy.minimize m in
      Mealy.n_states (Mealy.minimize m1) = Mealy.n_states m1)

let prop_cex_is_real =
  QCheck.Test.make ~name:"counterexamples witness difference" ~count:200
    QCheck.(pair arb_mealy arb_mealy)
    (fun (a, b) ->
      QCheck.assume (Mealy.n_inputs a = Mealy.n_inputs b);
      match Mealy.find_counterexample a b with
      | None -> Mealy.equivalent a b
      | Some w -> Mealy.run a w <> Mealy.run b w)

let prop_run_length =
  QCheck.Test.make ~name:"output word length = input word length" ~count:200
    arb_mealy (fun m ->
      let w = QCheck.Gen.generate1 (gen_word (Mealy.n_inputs m)) in
      List.length (Mealy.run m w) = List.length w)

let prop_access_sequences_reach =
  QCheck.Test.make ~name:"access sequences reach their states" ~count:200
    arb_mealy (fun m ->
      let acc = Mealy.access_sequences m in
      Array.for_all Fun.id
        (Array.mapi
           (fun s w ->
             match w with None -> true | Some w -> Mealy.state_after m w = s)
           acc))

(* --- Compiled evaluation: differential fuzz against the reference --- *)

let gen_mealy_and_word =
  QCheck.Gen.(
    let* m = gen_mealy in
    let* w = list_size (0 -- 24) (0 -- (Mealy.n_inputs m - 1)) in
    return (m, w))

let arb_mealy_and_word = QCheck.make gen_mealy_and_word

let prop_compiled_stepper_agrees =
  QCheck.Test.make ~name:"compiled stepper and state_after match Mealy.run"
    ~count:500 arb_mealy_and_word (fun (m, w) ->
      let c = Mealy.compile m in
      let st = Mealy.stepper c in
      let outs = List.map (Mealy.stepper_step st) w in
      outs = Mealy.run m w
      && Mealy.stepper_state st = Mealy.state_after m w
      && Mealy.compiled_state_after c w = Mealy.state_after m w)

let prop_compiled_agrees_verdict =
  (* [agrees] accepts exactly the reference trace, and on a corrupted
     trace [first_disagreement] points at the corrupted position. *)
  QCheck.Test.make ~name:"agrees/first_disagreement verdicts" ~count:500
    arb_mealy_and_word (fun (m, w) ->
      let c = Mealy.compile m in
      let outs = Mealy.run m w in
      Mealy.agrees c w outs
      && Mealy.first_disagreement c w outs = None
      &&
      match outs with
      | [] -> true
      | _ ->
          let i = List.length outs / 2 in
          let corrupted = List.mapi (fun j o -> if j = i then o + 7 else o) outs in
          (not (Mealy.agrees c w corrupted))
          && Mealy.first_disagreement c w corrupted = Some i)

let suite =
  ( "mealy",
    [
      Alcotest.test_case "make validation" `Quick test_make_validation;
      Alcotest.test_case "run (Example 2.2)" `Quick test_run_example_2_2;
      Alcotest.test_case "step range" `Quick test_step_out_of_range;
      Alcotest.test_case "state_after" `Quick test_state_after;
      Alcotest.test_case "of_fun counter" `Quick test_of_fun_counter;
      Alcotest.test_case "of_fun budget" `Quick test_of_fun_budget;
      Alcotest.test_case "minimize collapses" `Quick test_minimize_collapses;
      Alcotest.test_case "minimize unreachable" `Quick test_minimize_drops_unreachable;
      Alcotest.test_case "shortest counterexample" `Quick test_counterexample_shortest;
      Alcotest.test_case "cex from states" `Quick test_counterexample_from_states;
      Alcotest.test_case "isomorphic" `Quick test_isomorphic;
      Alcotest.test_case "access sequences" `Quick test_access_sequences;
      Alcotest.test_case "to_dot" `Quick test_to_dot;
      QCheck_alcotest.to_alcotest prop_minimize_equivalent;
      QCheck_alcotest.to_alcotest prop_minimize_idempotent;
      QCheck_alcotest.to_alcotest prop_cex_is_real;
      QCheck_alcotest.to_alcotest prop_run_length;
      QCheck_alcotest.to_alcotest prop_access_sequences_reach;
      QCheck_alcotest.to_alcotest prop_compiled_stepper_agrees;
      QCheck_alcotest.to_alcotest prop_compiled_agrees_verdict;
    ] )
