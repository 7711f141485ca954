(* Tests for cq_cache: blocks, the cache LTS of Definition 2.3 / Figure 2,
   Proposition 3.2, and the oracle combinators. *)

module B = Cq_cache.Block
module CS = Cq_cache.Cache_set
module O = Cq_cache.Oracle

let cres = Alcotest.testable CS.pp_result ( = )

let test_block_names () =
  Alcotest.(check string) "A" "A" (B.to_string (B.of_index 0));
  Alcotest.(check string) "Z" "Z" (B.to_string (B.of_index 25));
  Alcotest.(check string) "AA" "AA" (B.to_string (B.of_index 26));
  Alcotest.(check string) "AB" "AB" (B.to_string (B.of_index 27));
  Alcotest.(check int) "roundtrip AB" 27 (B.index (B.of_string "AB"));
  Alcotest.(check string) "aux a" "a" (B.to_string (B.aux 0));
  Alcotest.(check int) "aux roundtrip" (B.index (B.aux 3)) (B.index (B.of_string "d"));
  Alcotest.(check bool) "aux disjoint" true (B.is_aux (B.of_string "m"));
  Alcotest.check_raises "bad name" (Invalid_argument "Block.of_string: bad character '1'")
    (fun () -> ignore (B.of_string "A1"))

let test_block_first () =
  Alcotest.(check (list string)) "first 3" [ "A"; "B"; "C" ]
    (List.map B.to_string (B.first 3))

let lru2_set () = CS.create (Cq_policy.Lru.make 2)

let test_hit_miss_rules () =
  (* Example 2.4: initial content A,B with LRU. *)
  let set = lru2_set () in
  Alcotest.(check cres) "B hits" CS.Hit (CS.access set (B.of_index 1));
  Alcotest.(check cres) "A hits" CS.Hit (CS.access set (B.of_index 0));
  Alcotest.(check cres) "C misses" CS.Miss (CS.access set (B.of_index 2));
  (* C replaced B (the LRU line after touching B then A): content {A, C}. *)
  Alcotest.(check cres) "A still cached" CS.Hit (CS.access set (B.of_index 0));
  Alcotest.(check cres) "B gone" CS.Miss (CS.access set (B.of_index 1))

let test_miss_updates_correct_line () =
  let set = lru2_set () in
  ignore (CS.access set (B.of_index 2));
  (* LRU of [A, B] with no touches: line 1 (B) ... initial recency makes
     line 1 the least recent. *)
  let content = Array.map B.to_string (CS.content set) in
  Alcotest.(check (array string)) "C replaced B" [| "A"; "C" |] content

let test_reset () =
  let set = lru2_set () in
  ignore (CS.access_seq set (B.first 2 @ [ B.of_index 5 ]));
  CS.reset set;
  Alcotest.(check (array string)) "content restored" [| "A"; "B" |]
    (Array.map B.to_string (CS.content set));
  Alcotest.(check cres) "A hits again" CS.Hit (CS.access set (B.of_index 0))

let test_initial_content_validation () =
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Cache_set.create: initial content must fill the set")
    (fun () ->
      ignore (CS.create ~initial_content:[| B.of_index 0 |] (Cq_policy.Lru.make 2)));
  Alcotest.check_raises "repeated blocks"
    (Invalid_argument "Cache_set.create: initial content has repeated blocks")
    (fun () ->
      ignore
        (CS.create
           ~initial_content:[| B.of_index 0; B.of_index 0 |]
           (Cq_policy.Lru.make 2)))

let test_accesses_counter () =
  let set = lru2_set () in
  ignore (CS.access_seq set (B.first 2));
  Alcotest.(check int) "2 accesses" 2 (CS.accesses set)

(* Proposition 3.2: different policies induce caches with different trace
   semantics (given same cc0 and associativity). *)
let test_proposition_3_2 () =
  let trace p blocks = CS.run_from_reset (CS.create p) blocks in
  let blocks =
    List.map B.of_index [ 4; 0; 5; 0; 1; 2; 3; 0; 1 ]
  in
  let lru = trace (Cq_policy.Lru.make 4) blocks in
  let fifo = trace (Cq_policy.Fifo.make 4) blocks in
  Alcotest.(check bool) "LRU cache <> FIFO cache" false (lru = fifo);
  (* And equivalent policies induce equal traces. *)
  let lru' = trace (Cq_policy.Lru.make 4) blocks in
  Alcotest.(check (list cres)) "same policy, same trace" lru lru'

(* --- Oracle combinators -------------------------------------------------- *)

let test_counting () =
  let stats = O.fresh_stats () in
  let o = O.counting stats (O.of_policy (Cq_policy.Lru.make 2)) in
  ignore (o.O.query (B.first 2));
  ignore (o.O.query [ B.of_index 4 ]);
  Alcotest.(check int) "queries" 2 (Cq_util.Metrics.value stats.O.queries);
  Alcotest.(check int) "accesses" 3 (Cq_util.Metrics.value stats.O.block_accesses)

let test_memoized_consistent () =
  let stats = O.fresh_stats () in
  let raw = O.of_policy (Cq_policy.Newpol.make_new1 4) in
  let memo = O.memoized ~stats (O.of_policy (Cq_policy.Newpol.make_new1 4)) in
  let q = List.map B.of_index [ 5; 0; 6; 1; 5; 2; 7 ] in
  let r1 = memo.O.query q in
  let r2 = memo.O.query q in
  Alcotest.(check (list cres)) "matches raw" (raw.O.query q) r1;
  Alcotest.(check (list cres)) "memo stable" r1 r2;
  Alcotest.(check int) "one memo hit" 1 (Cq_util.Metrics.value stats.O.memo_hits)

(* --- qcheck --------------------------------------------------------------- *)

let arb_blocks =
  QCheck.make QCheck.Gen.(list_size (1 -- 16) (map B.of_index (0 -- 7)))

let prop_cache_agrees_with_policy_machine =
  (* The cache's hit/miss trace must match what the policy's Mealy machine
     predicts through the Figure 2 rules (cross-validation of Cache_set
     against an independent reconstruction). *)
  QCheck.Test.make ~name:"cache trace matches policy semantics" ~count:300
    arb_blocks (fun blocks ->
      let policy = Cq_policy.Newpol.make_new2 4 in
      let set = CS.create policy in
      let actual = CS.run_from_reset set blocks in
      (* Independent model: simulate with Policy.run bookkeeping. *)
      let (Cq_policy.Policy.Policy p) = policy in
      let cc = Array.of_list (B.first 4) in
      let state = ref p.init in
      let expected =
        List.map
          (fun b ->
            let line = ref None in
            Array.iteri (fun i x -> if B.equal x b && !line = None then line := Some i) cc;
            match !line with
            | Some i ->
                let s', _ = p.step !state (Cq_policy.Types.Line i) in
                state := s';
                CS.Hit
            | None ->
                let s', out = p.step !state Cq_policy.Types.Evct in
                state := s';
                (match out with
                | Some v -> cc.(v) <- b
                | None -> failwith "no victim");
                CS.Miss)
          blocks
      in
      actual = expected)

let prop_memoized_transparent =
  QCheck.Test.make ~name:"memoized oracle is transparent" ~count:200 arb_blocks
    (fun blocks ->
      let raw = O.of_policy (Cq_policy.Srrip.make Cq_policy.Srrip.Hit_priority 4) in
      let memo = O.memoized (O.of_policy (Cq_policy.Srrip.make Cq_policy.Srrip.Hit_priority 4)) in
      memo.O.query blocks = raw.O.query blocks)

let prop_fresh_blocks_miss =
  QCheck.Test.make ~name:"a never-seen block always misses" ~count:200
    arb_blocks (fun blocks ->
      let o = O.of_policy (Cq_policy.Lru.make 4) in
      let fresh = B.of_index 99 in
      match List.rev (o.O.query (blocks @ [ fresh ])) with
      | last :: _ -> last = CS.Miss
      | [] -> false)

let suite =
  ( "cache",
    [
      Alcotest.test_case "block names" `Quick test_block_names;
      Alcotest.test_case "block first" `Quick test_block_first;
      Alcotest.test_case "hit/miss rules (Example 2.4)" `Quick test_hit_miss_rules;
      Alcotest.test_case "miss updates correct line" `Quick test_miss_updates_correct_line;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "initial content validation" `Quick test_initial_content_validation;
      Alcotest.test_case "access counter" `Quick test_accesses_counter;
      Alcotest.test_case "Proposition 3.2" `Quick test_proposition_3_2;
      Alcotest.test_case "counting oracle" `Quick test_counting;
      Alcotest.test_case "memoized oracle" `Quick test_memoized_consistent;
      QCheck_alcotest.to_alcotest prop_cache_agrees_with_policy_machine;
      QCheck_alcotest.to_alcotest prop_memoized_transparent;
      QCheck_alcotest.to_alcotest prop_fresh_blocks_miss;
    ] )
