(* Tests for cq_policy: Definition 2.1 well-formedness, the golden Table 2
   state counts, per-policy behaviours, and the zoo (construction +
   identification up to reset state and line permutation). *)

module P = Cq_policy.Policy
module T = Cq_policy.Types

let evct = T.Evct
let ln i = T.Line i

(* --- Table 2 golden state counts (the paper's ground truth) ------------- *)

let table2_counts =
  [
    ("FIFO", 2, 2); ("FIFO", 8, 8); ("FIFO", 16, 16);
    ("LRU", 2, 2); ("LRU", 4, 24);
    ("PLRU", 2, 2); ("PLRU", 4, 8); ("PLRU", 8, 128);
    ("MRU", 2, 2); ("MRU", 4, 14); ("MRU", 6, 62); ("MRU", 8, 254);
    ("LIP", 2, 2); ("LIP", 4, 24);
    ("SRRIP-HP", 2, 12); ("SRRIP-HP", 4, 178);
    ("SRRIP-FP", 2, 16); ("SRRIP-FP", 4, 256);
    ("New1", 4, 160); ("New2", 4, 175);
  ]

let test_table2_counts () =
  List.iter
    (fun (name, assoc, expected) ->
      let p = Cq_policy.Zoo.make_exn ~name ~assoc in
      Alcotest.(check int)
        (Printf.sprintf "%s assoc %d" name assoc)
        expected (P.n_minimal_states p))
    table2_counts

(* --- Per-policy behaviour ----------------------------------------------- *)

let victims p inputs = List.filter_map Fun.id (P.run p inputs)

let test_fifo_ignores_hits () =
  let p = Cq_policy.Fifo.make 4 in
  (* Hits interleaved with evictions do not change the round-robin order. *)
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3; 0 ]
    (victims p [ evct; ln 0; evct; ln 1; evct; ln 2; evct; ln 3; evct ])

let test_lru_promotes () =
  let p = Cq_policy.Lru.make 3 in
  (* Initial recency [0;1;2]: line 2 is LRU.  Touch 2, making 0 LRU. *)
  Alcotest.(check (list int)) "LRU victim after promote" [ 0 ]
    (victims p [ ln 2; ln 1; evct ]);
  (* The inserted block becomes MRU: two Evcts evict two different lines
     (victim 2 is promoted to MRU, so line 1 is the next LRU). *)
  Alcotest.(check (list int)) "insert is MRU" [ 2; 1 ] (victims p [ evct; evct ])

let test_lip_inserts_at_lru () =
  let p = Cq_policy.Lip.make 3 in
  (* Without re-reference the same line is evicted over and over. *)
  Alcotest.(check (list int)) "LIP thrashes one line" [ 2; 2; 2 ]
    (victims p [ evct; evct; evct ]);
  (* A hit on the inserted line promotes it. *)
  Alcotest.(check (list int)) "promoted after hit" [ 2; 1 ]
    (victims p [ evct; ln 2; evct ])

let test_plru_any_assoc () =
  Alcotest.check_raises "assoc 0 rejected"
    (Invalid_argument "Plru.make: associativity must be >= 1")
    (fun () -> ignore (Cq_policy.Plru.make 0));
  (* Ceil/floor tree over 3 lines: root splits {0,1} / {2}.  From the
     all-zero state the victim walk reaches line 0; three consecutive
     misses cover all three lines. *)
  let p = Cq_policy.Plru.make 3 in
  Alcotest.(check (list int)) "PLRU-3 sweep" [ 0; 2; 1 ]
    (victims p [ evct; evct; evct ])

let test_plru_victim_walk () =
  let p = Cq_policy.Plru.make 4 in
  (* From the all-zero tree, the victim walk goes to leaf 0. *)
  Alcotest.(check (list int)) "first victim" [ 0 ] (victims p [ evct ]);
  (* Touching line 0 points the whole path away from it. *)
  Alcotest.(check (list int)) "protected after touch" [ 2 ] (victims p [ ln 0; evct ])

let test_mru_bits () =
  let p = Cq_policy.Mru.make 4 in
  (* Init marks line 0; victims are the leftmost lines with a clear bit. *)
  Alcotest.(check (list int)) "leftmost clear" [ 1; 2 ] (victims p [ evct; evct ]);
  (* Setting the last clear bit resets the others. *)
  let out = victims p [ evct; evct; evct; evct ] in
  Alcotest.(check (list int)) "wraps after full" [ 1; 2; 3; 0 ] out

let test_srrip_hp_vs_fp () =
  let hp = Cq_policy.Srrip.make Cq_policy.Srrip.Hit_priority 4 in
  let fp = Cq_policy.Srrip.make Cq_policy.Srrip.Frequency_priority 4 in
  (* Both start all-distant: evict line 0 first. *)
  Alcotest.(check (list int)) "HP first victim" [ 0 ] (victims hp [ evct ]);
  Alcotest.(check (list int)) "FP first victim" [ 0 ] (victims fp [ evct ]);
  (* They are different policies: some trace separates them. *)
  Alcotest.(check bool) "HP <> FP" false (P.equivalent hp fp)

let test_srrip_aging () =
  let hp = Cq_policy.Srrip.make Cq_policy.Srrip.Hit_priority 2 in
  (* Fill both lines (ages 2,2 after two misses from 3,3), hit line 1
     (age 0), then a miss must age everyone before finding a 3: victim is
     line 0 (age 2 -> 3 first from the left). *)
  Alcotest.(check (list int)) "ages then evicts leftmost" [ 0; 1; 0 ]
    (victims hp [ evct; evct; ln 1; evct ])

let test_new1_figure5 () =
  let p = Cq_policy.Newpol.make_new1 4 in
  (* Initial state {3,3,3,0}: leftmost age-3 line is 0. *)
  Alcotest.(check (list int)) "first victims" [ 0; 1 ] (victims p [ evct; evct ])

let test_new2_figure5 () =
  let p = Cq_policy.Newpol.make_new2 4 in
  (* Initial state {3,3,3,3}. *)
  Alcotest.(check (list int)) "first victims" [ 0; 1 ] (victims p [ evct; evct ])

let test_new_policies_differ () =
  Alcotest.(check bool) "New1 <> New2" false
    (P.equivalent (Cq_policy.Newpol.make_new1 4) (Cq_policy.Newpol.make_new2 4));
  Alcotest.(check bool) "New1 <> SRRIP-HP" false
    (P.equivalent
       (Cq_policy.Newpol.make_new1 4)
       (Cq_policy.Srrip.make Cq_policy.Srrip.Hit_priority 4))

let test_bip_throttle () =
  let p = Cq_policy.Bip.make ~throttle:2 4 in
  (* Every second miss promotes the incoming block to MRU: the victim
     sequence is not LIP's constant line. *)
  let v = victims p [ evct; evct; evct; evct ] in
  Alcotest.(check bool) "not all equal" true
    (List.exists (fun x -> x <> List.hd v) v)

let test_brrip_counts () =
  let p = Cq_policy.Srrip.make_brrip ~throttle:2 2 in
  Alcotest.(check bool) "BRRIP has reachable machine" true
    (P.n_minimal_states p > 2)

(* --- Model validity ------------------------------------------------------ *)

let test_definition_2_1_checks () =
  (* A policy that evicts on a hit violates Definition 2.1(b). *)
  let bad =
    P.v ~name:"bad" ~assoc:2 ~init:()
      ~step:(fun () -> function T.Line _ -> ((), Some 0) | T.Evct -> ((), Some 0))
      ()
  in
  Alcotest.check_raises "hit with eviction rejected"
    (Invalid_argument "Policy: Line access must output ⊥") (fun () ->
      ignore (P.run bad [ ln 0 ]))

let test_advance_and_warmed () =
  let p = Cq_policy.Fifo.make 4 in
  (* After two evictions the pointer is at line 2. *)
  Alcotest.(check (list int)) "advanced pointer" [ 2 ]
    (victims (P.advance p [ evct; evct ]) [ evct ]);
  Alcotest.(check (list int)) "warmed wraps to 0" [ 0 ] (victims (P.warmed p) [ evct ])

let test_victim_after () =
  let p = Cq_policy.Lru.make 2 in
  Alcotest.(check int) "LRU victim" 0 (P.victim_after p [ ln 1 ]);
  Alcotest.(check int) "LRU victim after touch 0" 1 (P.victim_after p [ ln 0 ])

(* --- Zoo ------------------------------------------------------------------ *)

let test_zoo_make_errors () =
  (match Cq_policy.Zoo.make ~name:"NOPE" ~assoc:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy accepted");
  (* PLRU uses the ceil/floor split tree, so any assoc >= 1 is valid —
     including the non-power-of-two 6 and the scaling targets 12/16. *)
  (match Cq_policy.Zoo.make ~name:"PLRU" ~assoc:6 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("PLRU-6 rejected: " ^ e));
  match Cq_policy.Zoo.make ~name:"New1" ~assoc:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "New1-1 accepted"

let test_zoo_identify_direct () =
  let m = P.to_mealy (Cq_policy.Zoo.make_exn ~name:"New1" ~assoc:4) in
  Alcotest.(check (list string)) "New1 identified" [ "New1" ] (Cq_policy.Zoo.identify m)

let test_zoo_identify_permuted () =
  (* New1 conjugated by a line permutation and started from a later state
     must still be identified (the hardware-learning artefacts). *)
  let p = Cq_policy.Zoo.make_exn ~name:"New1" ~assoc:4 in
  let m = P.to_mealy (P.advance p [ evct; ln 2; evct ]) in
  let relabeled = Cq_policy.Zoo.relabel_lines 4 [ 3; 2; 1; 0 ] m in
  Alcotest.(check (list string)) "permuted New1 identified" [ "New1" ]
    (Cq_policy.Zoo.identify relabeled)

let test_zoo_identify_unknown () =
  (* A policy not in the zoo: LRU with a "sticky" line 0 never evicted. *)
  let weird =
    P.v ~name:"weird" ~assoc:2 ~init:()
      ~step:(fun () -> function T.Line _ -> ((), None) | T.Evct -> ((), Some 1))
      ()
  in
  Alcotest.(check (list string)) "nothing matches" []
    (Cq_policy.Zoo.identify (P.to_mealy weird))

(* --- qcheck --------------------------------------------------------------- *)

let arb_inputs assoc =
  QCheck.make
    QCheck.Gen.(list_size (1 -- 20) (map (fun i -> if i = assoc then evct else ln i) (0 -- assoc)))

let all_small_policies =
  List.concat_map
    (fun name ->
      List.filter_map
        (fun assoc ->
          match Cq_policy.Zoo.make ~name ~assoc with
          | Ok p -> Some p
          | Error _ -> None)
        [ 2; 4 ])
    Cq_policy.Zoo.names

let prop_outputs_well_formed =
  QCheck.Test.make ~name:"policies satisfy Definition 2.1" ~count:100
    (arb_inputs 4) (fun inputs ->
      List.for_all
        (fun p ->
          if P.assoc p <> 4 then true
          else
            List.for_all2
              (fun input output ->
                match (input, output) with
                | T.Evct, Some v -> v >= 0 && v < 4
                | T.Evct, None -> false
                | T.Line _, None -> true
                | T.Line _, Some _ -> false)
              inputs (P.run p inputs))
        all_small_policies)

let prop_plru_covers_all_ways =
  (* Under tree-PLRU, n consecutive misses evict n distinct ways, from any
     reachable state — this is what makes 1x-assoc eviction sweeps work. *)
  QCheck.Test.make ~name:"PLRU: n consecutive misses hit n distinct ways"
    ~count:200 (arb_inputs 8) (fun prefix ->
      let p = P.advance (Cq_policy.Plru.make 8) prefix in
      let vs = victims p (List.init 8 (fun _ -> evct)) in
      List.length (List.sort_uniq compare vs) = 8)

let prop_new1_always_has_age3 =
  (* The invariant that makes New1's eviction total. *)
  QCheck.Test.make ~name:"New1: eviction never gets stuck" ~count:200
    (arb_inputs 4) (fun inputs ->
      let p = Cq_policy.Newpol.make_new1 4 in
      match P.run p (inputs @ [ evct ]) with
      | _ -> true
      | exception Invalid_argument _ -> false)

let prop_mru_covers_within_2n =
  QCheck.Test.make ~name:"MRU: 2n misses cover all lines" ~count:200
    (arb_inputs 4) (fun prefix ->
      let p = P.advance (Cq_policy.Mru.make 4) prefix in
      let vs = victims p (List.init 8 (fun _ -> evct)) in
      List.length (List.sort_uniq compare vs) = 4)

(* --- canonical machine digest ------------------------------------------ *)

let test_machine_digest () =
  let module M = Cq_automata.Mealy in
  let m = P.to_mealy (Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:4) in
  let n = M.n_states m and k = M.n_inputs m in
  (* State s of [m] becomes state n-1-s of the copy. *)
  let rename s = n - 1 - s in
  let table f =
    Array.init n (fun s' -> Array.init k (fun i -> f (rename s') i))
  in
  let renumbered out =
    M.make ~init:(rename (M.init m)) ~n_inputs:k
      ~next:(table (fun s i -> rename (M.next_state m s i)))
      ~out
  in
  let copy = renumbered (table (M.output m)) in
  Alcotest.(check bool) "renumbered copy is a different table" false
    (M.to_dot ~input_label:string_of_int ~output_label:T.output_label m
    = M.to_dot ~input_label:string_of_int ~output_label:T.output_label copy);
  Alcotest.(check string) "isomorphic copies share a digest"
    (P.machine_digest m) (P.machine_digest copy);
  (* Redirect the initial state's eviction to another victim. *)
  let evct = k - 1 in
  let changed =
    renumbered
      (table (fun s i ->
           match M.output m s i with
           | Some v when s = M.init m && i = evct -> Some ((v + 1) mod evct)
           | o -> o))
  in
  Alcotest.(check bool) "one changed output changes the digest" false
    (P.machine_digest m = P.machine_digest changed)

let suite =
  ( "policy",
    [
      Alcotest.test_case "Table 2 state counts (golden)" `Quick test_table2_counts;
      Alcotest.test_case "FIFO ignores hits" `Quick test_fifo_ignores_hits;
      Alcotest.test_case "LRU promotion" `Quick test_lru_promotes;
      Alcotest.test_case "LIP LRU-insertion" `Quick test_lip_inserts_at_lru;
      Alcotest.test_case "PLRU any associativity" `Quick test_plru_any_assoc;
      Alcotest.test_case "PLRU victim walk" `Quick test_plru_victim_walk;
      Alcotest.test_case "MRU bits" `Quick test_mru_bits;
      Alcotest.test_case "SRRIP HP vs FP" `Quick test_srrip_hp_vs_fp;
      Alcotest.test_case "SRRIP aging" `Quick test_srrip_aging;
      Alcotest.test_case "New1 behaviour" `Quick test_new1_figure5;
      Alcotest.test_case "New2 behaviour" `Quick test_new2_figure5;
      Alcotest.test_case "New policies distinct" `Quick test_new_policies_differ;
      Alcotest.test_case "BIP throttle" `Quick test_bip_throttle;
      Alcotest.test_case "BRRIP states" `Quick test_brrip_counts;
      Alcotest.test_case "Definition 2.1 checks" `Quick test_definition_2_1_checks;
      Alcotest.test_case "advance / warmed" `Quick test_advance_and_warmed;
      Alcotest.test_case "victim_after" `Quick test_victim_after;
      Alcotest.test_case "zoo make errors" `Quick test_zoo_make_errors;
      Alcotest.test_case "zoo identify (direct)" `Quick test_zoo_identify_direct;
      Alcotest.test_case "zoo identify (permuted)" `Quick test_zoo_identify_permuted;
      Alcotest.test_case "zoo identify (unknown)" `Quick test_zoo_identify_unknown;
      Alcotest.test_case "machine digest is canonical" `Quick
        test_machine_digest;
      QCheck_alcotest.to_alcotest prop_outputs_well_formed;
      QCheck_alcotest.to_alcotest prop_plru_covers_all_ways;
      QCheck_alcotest.to_alcotest prop_new1_always_has_age3;
      QCheck_alcotest.to_alcotest prop_mru_covers_within_2n;
    ] )
