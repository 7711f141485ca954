(* Tests for cq_learner: membership oracles (counting/caching), L* with
   Rivest–Schapire, the W-method and its characterization sets, and the
   random-walk equivalence oracle. *)

module Mealy = Cq_automata.Mealy
module Mo = Cq_learner.Moracle
module Eq = Cq_learner.Equivalence
module L = Cq_learner.Lstar

let gen_mealy =
  QCheck.Gen.(
    let* n = 1 -- 10 in
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

let test_cached_oracle_counts () =
  let stats = Mo.fresh_stats () in
  let truth = Mealy.make ~init:0 ~n_inputs:2 ~next:[| [| 0; 0 |] |] ~out:[| [| 1; 2 |] |] in
  let o = Mo.of_mealy truth |> Mo.counting stats |> Mo.cached ~stats in
  ignore (o.Mo.query [ 0; 1; 0 ]);
  ignore (o.Mo.query [ 0; 1; 0 ]);
  ignore (o.Mo.query [ 0; 1 ]);
  (* prefix: served by the trie *)
  Alcotest.(check int) "one real query" 1 (Cq_util.Metrics.value stats.Mo.queries);
  Alcotest.(check int) "two cache hits" 2 (Cq_util.Metrics.value stats.Mo.cache_hits)

let test_cached_detects_nondeterminism () =
  let flip = ref 0 in
  let o =
    Mo.cached
      (Mo.make ~n_inputs:1 (fun w -> incr flip; List.map (fun _ -> !flip) w))
  in
  ignore (o.Mo.query [ 0 ]);
  (* The second query returns different outputs for the same word. *)
  match o.Mo.query [ 0; 0 ] with
  | _ -> Alcotest.fail "nondeterminism not detected"
  | exception Mo.Inconsistent _ -> ()

let test_characterization_set_separates () =
  let m = Mealy.minimize (Cq_policy.Policy.to_mealy (Cq_policy.Lru.make 3)) in
  let w = Eq.characterization_set m in
  let n = Mealy.n_states m in
  let sigs =
    List.init n (fun s -> List.map (fun word -> Mealy.run_from m s word) w)
  in
  Alcotest.(check int) "all states separated" n
    (List.length (List.sort_uniq compare sigs))

let test_words_up_to () =
  let count n k = Seq.length (Eq.words_up_to n k) in
  Alcotest.(check int) "|I^{<=0}|" 1 (count 3 0);
  Alcotest.(check int) "|I^{<=1}|" 4 (count 3 1);
  Alcotest.(check int) "|I^{<=2}|" 13 (count 3 2);
  (* Shortest first, and re-traversable (same result twice). *)
  let words = List.of_seq (Eq.words_up_to 2 2) in
  Alcotest.(check bool) "shortest first" true
    (List.map List.length words = List.sort compare (List.map List.length words));
  Alcotest.(check bool) "re-traversable" true
    (List.of_seq (Eq.words_up_to 2 2) = words)

let learn_with_wmethod truth =
  let oracle = Mo.cached (Mo.of_mealy truth) in
  (L.learn ~oracle ~find_cex:(Eq.w_method ~depth:1 oracle) ()).L.machine

let test_lstar_learns_lru4 () =
  let truth = Cq_policy.Policy.to_mealy (Cq_policy.Lru.make 4) in
  let learned = learn_with_wmethod truth in
  Alcotest.(check int) "24 states" 24 (Mealy.n_states learned);
  Alcotest.(check bool) "equivalent" true (Mealy.equivalent truth learned)

let test_lstar_learns_plru8 () =
  let truth = Cq_policy.Policy.to_mealy (Cq_policy.Plru.make 8) in
  let learned = learn_with_wmethod truth in
  Alcotest.(check int) "128 states" 128 (Mealy.n_states learned)

let test_lstar_state_budget () =
  let truth = Cq_policy.Policy.to_mealy (Cq_policy.Lru.make 4) in
  let oracle = Mo.cached (Mo.of_mealy truth) in
  match L.learn ~max_states:5 ~oracle ~find_cex:(Eq.w_method ~depth:1 oracle) () with
  | _ -> Alcotest.fail "budget not enforced"
  | exception L.Diverged _ -> ()

let test_random_walk_finds_difference () =
  let truth = Cq_policy.Policy.to_mealy (Cq_policy.Lru.make 3) in
  (* A wrong hypothesis: FIFO of the same associativity. *)
  let wrong = Cq_policy.Policy.to_mealy (Cq_policy.Fifo.make 3) in
  let oracle = Mo.of_mealy truth in
  let find = Eq.random_walk ~prng:(Cq_util.Prng.of_int 3) ~max_tests:5000 oracle in
  match find wrong with
  | Some w -> Alcotest.(check bool) "real cex" true (Mealy.run truth w <> Mealy.run wrong w)
  | None -> Alcotest.fail "no counterexample found"

let test_wp_method_learns () =
  List.iter
    (fun (name, assoc) ->
      let truth = Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name ~assoc) in
      let oracle = Mo.cached (Mo.of_mealy truth) in
      let learned =
        (L.learn ~oracle ~find_cex:(Eq.wp_method ~depth:1 oracle) ()).L.machine
      in
      Alcotest.(check bool) (name ^ " learned with Wp") true
        (Mealy.equivalent truth learned))
    [ ("LRU", 4); ("MRU", 4); ("SRRIP-HP", 2); ("New1", 3); ("PLRU", 4) ]

let test_wp_suite_smaller_than_w () =
  (* Same completeness, fewer symbols: the reason the paper uses Wp. *)
  List.iter
    (fun (name, assoc) ->
      let h =
        Mealy.minimize (Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name ~assoc))
      in
      let w = Eq.suite_symbols (Eq.w_method_suite ~depth:1 h) in
      let wp = Eq.suite_symbols (Eq.wp_method_suite ~depth:1 h) in
      Alcotest.(check bool)
        (Printf.sprintf "%s-%d: |Wp| (%d) <= |W| (%d)" name assoc wp w)
        true (wp <= w))
    [ ("LRU", 4); ("MRU", 4); ("SRRIP-HP", 2); ("New1", 3) ]

let test_wp_identification_sets () =
  let m = Mealy.minimize (Cq_policy.Policy.to_mealy (Cq_policy.Mru.make 3)) in
  let w = Eq.characterization_set m in
  let wp = Eq.identification_sets m w in
  let n = Mealy.n_states m in
  (* Every state's identification set separates it from every other. *)
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then
        Alcotest.(check bool)
          (Printf.sprintf "W_%d separates %d from %d" s s t)
          true
          (List.exists
             (fun word -> Mealy.run_from m s word <> Mealy.run_from m t word)
             wp.(s))
    done
  done

let test_perfect_oracle () =
  let a = Cq_policy.Policy.to_mealy (Cq_policy.Lru.make 2) in
  Alcotest.(check bool) "equal machines pass" true (Eq.perfect a a = None);
  let b = Cq_policy.Policy.to_mealy (Cq_policy.Fifo.make 2) in
  Alcotest.(check bool) "different machines fail" true (Eq.perfect a b <> None)

(* The conformance suites, word for word: count, symbols and an MD5 over
   the words in order, for the Wp and W suites of three minimised policy
   machines and for the quotient-focused suite (read off the words
   [wp_quotient] queries when no counterexample exists) under a fixed
   synthetic representative set.  A change to what a suite contains or
   to its order moves these figures, and with them every learn's query
   counts. *)
let suite_fingerprint suite =
  let b = Buffer.create 4096 in
  let words = ref 0 and symbols = ref 0 in
  Seq.iter
    (fun w ->
      incr words;
      symbols := !symbols + List.length w;
      List.iter
        (fun i ->
          Buffer.add_string b (string_of_int i);
          Buffer.add_char b ',')
        w;
      Buffer.add_char b ';')
    suite;
  (!words, !symbols, Digest.to_hex (Digest.string (Buffer.contents b)))

let minimal_policy name assoc =
  Mealy.minimize (Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name ~assoc))

let quotient_suite_words h ~is_rep =
  let assoc = Mealy.n_inputs h - 1 in
  let sweep = List.init assoc (fun _ -> assoc) in
  let words = ref [] in
  let truth = Mo.of_mealy h in
  let oracle =
    {
      truth with
      Mo.query =
        (fun w ->
          words := w :: !words;
          truth.Mo.query w);
    }
  in
  Alcotest.(check bool) "suite passes on the truth" true
    (Eq.wp_quotient ~depth:1 ~is_rep ~sweep oracle h = None);
  List.to_seq (List.rev !words)

let test_suites_pinned () =
  let fingerprint = Alcotest.(triple int int string) in
  List.iter
    (fun (name, assoc, wp, w) ->
      let h = minimal_policy name assoc in
      Alcotest.check fingerprint
        (Printf.sprintf "Wp %s-%d" name assoc)
        wp
        (suite_fingerprint (Eq.wp_method_suite ~depth:1 h));
      Alcotest.check fingerprint
        (Printf.sprintf "W %s-%d" name assoc)
        w
        (suite_fingerprint (Eq.w_method_suite ~depth:1 h)))
    [
      ( "PLRU", 4,
        (912, 4174, "b690b55e08b02a1fbbdacb72fb44c825"),
        (960, 4280, "9803036dc8cab41e9b5624a8c7ee5e4b") );
      ( "LRU", 4,
        (4776, 31508, "f3344a5183a1c18a579e34c7d9bba372"),
        (6480, 41850, "d8a6250210edc29ccbeafed9a068fec6") );
      ( "New1", 4,
        (67881, 737368, "09ffca872d14144cb7e67df6052ac709"),
        (182400, 1983620, "6db8df05ad92b203d7988b11a8857a12") );
    ];
  (* LRU-4 (24 states x 5 inputs) is small enough that the full Wp suite
     follows the focused one; PLRU-8 (128 x 9) runs the focused suite
     alone. *)
  Alcotest.check fingerprint "quotient LRU-4, reps s mod 3 = 0"
    (5448, 35776, "5f0b040c50134cf81fe80b5dac2990f4")
    (suite_fingerprint
       (quotient_suite_words (minimal_policy "LRU" 4) ~is_rep:(fun s ->
            s mod 3 = 0)));
  Alcotest.check fingerprint "quotient PLRU-8, reps s mod 4 = 0"
    (6720, 66788, "f746f6305f9f30ab1c6a31dfa42d2dcd")
    (suite_fingerprint
       (quotient_suite_words (minimal_policy "PLRU" 8) ~is_rep:(fun s ->
            s mod 4 = 0)))

(* --- qcheck --------------------------------------------------------------- *)

let prop_lstar_perfect_eq_exact =
  QCheck.Test.make ~name:"L* with a perfect teacher learns exactly" ~count:100
    arb_mealy (fun truth ->
      let oracle = Mo.cached (Mo.of_mealy truth) in
      let r = L.learn ~oracle ~find_cex:(Eq.perfect truth) () in
      Mealy.equivalent truth r.L.machine
      && Mealy.n_states r.L.machine = Mealy.n_states (Mealy.minimize truth))

let prop_lstar_wmethod_corollary_3_4 =
  (* Corollary 3.4: with a depth-k conformance suite, the result is either
     exactly right or the truth has more than |learned| + k states.  (For
     random machines, depth 1 occasionally terminates early — that is the
     caveat the paper's guarantee spells out.) *)
  QCheck.Test.make ~name:"L* with W-method depth 1 satisfies Corollary 3.4"
    ~count:60 arb_mealy (fun truth ->
      let learned = learn_with_wmethod truth in
      Mealy.equivalent truth learned
      || Mealy.n_states (Mealy.minimize truth) > Mealy.n_states learned + 1)

let prop_wp_equals_w_verdict =
  (* On the machines the learner produces (minimal hypotheses), Wp must
     accept exactly when W accepts. *)
  QCheck.Test.make ~name:"Wp and W agree on the truth" ~count:100 arb_mealy
    (fun truth ->
      let minimized = Mealy.minimize truth in
      let oracle = Mo.of_mealy truth in
      (Eq.wp_method ~depth:1 oracle minimized = None)
      = (Eq.w_method ~depth:1 oracle minimized = None))

let prop_wmethod_passes_on_truth =
  QCheck.Test.make ~name:"W-method finds no counterexample for the truth"
    ~count:100 arb_mealy (fun truth ->
      let minimized = Mealy.minimize truth in
      let oracle = Mo.of_mealy truth in
      Eq.w_method ~depth:1 oracle minimized = None)

(* --- Quotient: the relabeling action ---------------------------------- *)

module Q = Cq_learner.Quotient

(* A random line permutation together with a random signature (a list of
   outputs as the eviction sweep produces them: [Some line] / [None]). *)
let gen_perm_and_signature =
  QCheck.Gen.(
    let* assoc = 2 -- 6 in
    let* keys = list_size (return assoc) (0 -- 1_000_000) in
    let perm =
      List.mapi (fun i k -> (k, i)) keys
      |> List.sort compare
      |> List.map snd
      |> Array.of_list
    in
    let* sig_len = 1 -- 12 in
    let* raw = list_size (return sig_len) (0 -- assoc) in
    let signature =
      List.map (fun v -> if v = assoc then None else Some v) raw
    in
    return (assoc, perm, signature))

let arb_perm_and_signature =
  QCheck.make
    ~print:(fun (assoc, perm, s) ->
      Fmt.str "assoc=%d perm=[%a] sig=[%a]" assoc
        Fmt.(list ~sep:(any ";") int)
        (Array.to_list perm)
        Fmt.(list ~sep:(any ";") (option int))
        s)
    gen_perm_and_signature

let prop_canonical_signature_invariant =
  (* The canonical form is constant on relabeling orbits: permuting the
     lines of a signature never changes it. *)
  QCheck.Test.make ~name:"canonical signature is permutation-invariant"
    ~count:500 arb_perm_and_signature (fun (assoc, perm, s) ->
      let a = Q.policy_action ~assoc in
      let permuted = List.map (a.Q.map_output perm) s in
      Q.canonical_signature a permuted = Q.canonical_signature a s)

let prop_derive_recovers_witness =
  (* [derive] proposes a witness permutation whenever the two signatures
     really are relabelings of each other, and the witness it proposes
     maps one onto the other exactly (it need not equal the permutation
     used — lines the signature never names are unconstrained). *)
  QCheck.Test.make ~name:"derive recovers a relabeling witness" ~count:500
    arb_perm_and_signature (fun (assoc, perm, s) ->
      let a = Q.policy_action ~assoc in
      let permuted = List.map (a.Q.map_output perm) s in
      match a.Q.derive s permuted with
      | None -> false
      | Some q -> List.map (a.Q.map_output q) s = permuted)

(* PR-7 regression, membership-oracle flavour: cached's pending-word
   table binds each word once; duplicates in one batch reach the system
   deduplicated and a repeat batch is served from the trie. *)
let test_cached_batch_dedup () =
  let stats = Mo.fresh_stats () in
  let truth =
    Mealy.make ~init:0 ~n_inputs:2 ~next:[| [| 0; 0 |] |] ~out:[| [| 1; 2 |] |]
  in
  let o = Mo.of_mealy truth |> Mo.counting stats |> Mo.cached ~stats in
  let w1 = [ 0; 1; 0 ] and w2 = [ 1; 1 ] in
  (match o.Mo.query_batch [ w1; w2; w1; w1; w2 ] with
  | [ a; b; a'; a''; b' ] ->
      Alcotest.(check bool) "duplicates answered identically" true
        (a = a' && a = a'' && b = b')
  | _ -> Alcotest.fail "expected five answers");
  Alcotest.(check int) "system saw each distinct word once" 2
    (Cq_util.Metrics.value stats.Mo.queries);
  ignore (o.Mo.query_batch [ w1; w2 ]);
  Alcotest.(check int) "repeat batch served from the trie" 2
    (Cq_util.Metrics.value stats.Mo.queries)

let suite =
  ( "learner",
    [
      Alcotest.test_case "cached oracle counts" `Quick test_cached_oracle_counts;
      Alcotest.test_case "cached batch dedup" `Quick test_cached_batch_dedup;
      Alcotest.test_case "cache detects nondeterminism" `Quick test_cached_detects_nondeterminism;
      Alcotest.test_case "characterization set" `Quick test_characterization_set_separates;
      Alcotest.test_case "words_up_to" `Quick test_words_up_to;
      Alcotest.test_case "L* learns LRU-4" `Quick test_lstar_learns_lru4;
      Alcotest.test_case "L* learns PLRU-8" `Quick test_lstar_learns_plru8;
      Alcotest.test_case "state budget" `Quick test_lstar_state_budget;
      Alcotest.test_case "random walk" `Quick test_random_walk_finds_difference;
      Alcotest.test_case "perfect oracle" `Quick test_perfect_oracle;
      Alcotest.test_case "Wp-method learns" `Quick test_wp_method_learns;
      Alcotest.test_case "Wp suite smaller than W" `Quick test_wp_suite_smaller_than_w;
      Alcotest.test_case "Wp identification sets" `Quick test_wp_identification_sets;
      QCheck_alcotest.to_alcotest prop_lstar_perfect_eq_exact;
      QCheck_alcotest.to_alcotest prop_lstar_wmethod_corollary_3_4;
      QCheck_alcotest.to_alcotest prop_wmethod_passes_on_truth;
      QCheck_alcotest.to_alcotest prop_wp_equals_w_verdict;
      QCheck_alcotest.to_alcotest prop_canonical_signature_invariant;
      QCheck_alcotest.to_alcotest prop_derive_recovers_witness;
      Alcotest.test_case "conformance suites pinned" `Quick test_suites_pinned;
    ] )
