(* Tests for Polca (Algorithm 1) and the end-to-end learning loop:
   Theorem 3.1 (membership correctness), line/block translation, eviction
   discovery, nondeterminism detection, and Corollary 3.4 on small
   policies. *)

module Polca = Cq_core.Polca
module Learn = Cq_core.Learn
module T = Cq_policy.Types

let polca_for policy = Polca.create (Cq_cache.Oracle.of_policy policy)

(* Polca's outputs must match the policy machine's outputs on any word:
   that is exactly the abstraction Polca implements. *)
let check_word policy word =
  let polca = polca_for policy in
  let truth = Cq_policy.Policy.to_mealy policy in
  Polca.run polca word = Cq_automata.Mealy.run truth word

let test_outputs_match_lru () =
  let word = [ 4; 0; 4; 4; 1; 2; 4; 0; 4 ] in
  Alcotest.(check bool) "LRU-4" true (check_word (Cq_policy.Lru.make 4) word)

let test_outputs_match_new1 () =
  let word = [ 4; 4; 0; 4; 3; 4; 1; 4; 4; 2 ] in
  Alcotest.(check bool) "New1-4" true (check_word (Cq_policy.Newpol.make_new1 4) word)

let test_member_theorem_3_1 () =
  (* Positive traces are accepted, corrupted ones rejected. *)
  let policy = Cq_policy.Fifo.make 3 in
  let polca = polca_for policy in
  let good =
    [ (T.Evct, Some 0); (T.Line 1, None); (T.Evct, Some 1); (T.Evct, Some 2) ]
  in
  Alcotest.(check bool) "trace in semantics" true (Polca.member polca good);
  let bad = [ (T.Evct, Some 0); (T.Evct, Some 0) ] in
  Alcotest.(check bool) "wrong victim rejected" false (Polca.member polca bad);
  let bad2 = [ (T.Line 0, Some 1) ] in
  Alcotest.(check bool) "hit with victim rejected" false (Polca.member polca bad2)

let test_fresh_blocks_deterministic () =
  (* The same policy word maps to the same block trace (fresh blocks are
     drawn deterministically), so repeated runs agree. *)
  let polca = polca_for (Cq_policy.Mru.make 4) in
  let word = [ 4; 4; 1; 4; 0; 4 ] in
  Alcotest.(check bool) "repeatable" true (Polca.run polca word = Polca.run polca word)

let test_nondeterminism_detected () =
  (* An oracle that lies about the initial content makes tracked blocks
     miss; check_hits must catch it. *)
  let policy = Cq_policy.Lru.make 2 in
  let base = Cq_cache.Oracle.of_policy policy in
  let lying =
    { base with Cq_cache.Oracle.initial_content = [| Cq_cache.Block.of_index 7; Cq_cache.Block.of_index 8 |] }
  in
  let polca = Polca.create ~check_hits:true lying in
  match Polca.run polca [ 0 ] with
  | _ -> Alcotest.fail "expected Non_deterministic"
  | exception Polca.Non_deterministic _ -> ()

let test_moracle_n_inputs () =
  let polca = polca_for (Cq_policy.Lru.make 4) in
  Alcotest.(check int) "assoc+1 inputs" 5 (Polca.moracle polca).Cq_learner.Moracle.n_inputs

(* --- End-to-end learning (Corollary 3.4 in the small) -------------------- *)

let test_learn_simulated_exact () =
  List.iter
    (fun (name, assoc) ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
      let report = Learn.learn_simulated ~identify:false policy in
      Alcotest.(check bool)
        (Printf.sprintf "%s-%d learned exactly" name assoc)
        true
        (Learn.verify_against report policy))
    [ ("FIFO", 4); ("LRU", 3); ("PLRU", 4); ("MRU", 4); ("LIP", 3); ("SRRIP-HP", 2); ("New1", 3) ]

let test_learn_identifies () =
  let report = Learn.learn_simulated (Cq_policy.Zoo.make_exn ~name:"New2" ~assoc:4) in
  Alcotest.(check (list string)) "New2 identified" [ "New2" ] report.Learn.identified

let test_learn_with_random_walk () =
  let policy = Cq_policy.Zoo.make_exn ~name:"MRU" ~assoc:4 in
  let report =
    Learn.learn_simulated ~identify:false
      ~equivalence:(Learn.Random_walk { max_tests = 20_000; max_len = 30; seed = 5 })
      policy
  in
  Alcotest.(check bool) "random-walk equivalence also learns MRU-4" true
    (Learn.verify_against report policy)

let test_check_hits_ablation () =
  (* Disabling the redundant hit probes must not change the result on a
     well-behaved cache. *)
  let policy = Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:3 in
  let with_probes = Learn.learn_simulated ~identify:false ~check_hits:true policy in
  let without = Learn.learn_simulated ~identify:false ~check_hits:false policy in
  Alcotest.(check bool) "same machine" true
    (Cq_automata.Mealy.equivalent with_probes.Learn.machine without.Learn.machine);
  Alcotest.(check bool) "fewer cache queries without probes" true
    (without.Learn.cache_queries < with_probes.Learn.cache_queries)

(* --- qcheck --------------------------------------------------------------- *)

let arb_word assoc =
  QCheck.make QCheck.Gen.(list_size (1 -- 15) (0 -- assoc))

(* Machines and Polca instances are built once; only words vary. *)
let polca_fixtures =
  List.filter_map
    (fun name ->
      match Cq_policy.Zoo.make ~name ~assoc:4 with
      | Error _ -> None
      | Ok policy ->
          Some (name, polca_for policy, Cq_policy.Policy.to_mealy policy))
    Cq_policy.Zoo.names

let prop_polca_equals_policy_semantics =
  QCheck.Test.make ~name:"Polca output = policy machine output (all policies)"
    ~count:100 (arb_word 4) (fun word ->
      List.for_all
        (fun (_, polca, truth) ->
          Polca.run polca word = Cq_automata.Mealy.run truth word)
        polca_fixtures)

let prop_member_positive =
  QCheck.Test.make ~name:"Theorem 3.1: generated traces are members"
    ~count:200 (arb_word 3) (fun word ->
      let policy = Cq_policy.Newpol.make_new2 3 in
      let truth = Cq_policy.Policy.to_mealy policy in
      let outputs = Cq_automata.Mealy.run truth word in
      let trace =
        List.map2 (fun i o -> (T.input_of_int ~assoc:3 i, o)) word outputs
      in
      Polca.member (polca_for policy) trace)

let prop_member_negative =
  QCheck.Test.make ~name:"Theorem 3.1: corrupted traces are rejected"
    ~count:200
    QCheck.(pair (arb_word 3) small_int)
    (fun (word, pos) ->
      QCheck.assume (word <> []);
      let policy = Cq_policy.Mru.make 3 in
      let truth = Cq_policy.Policy.to_mealy policy in
      let outputs = Cq_automata.Mealy.run truth word in
      let pos = pos mod List.length word in
      (* Corrupt one output. *)
      let corrupted =
        List.mapi
          (fun i o ->
            if i = pos then
              match o with
              | None -> Some 0
              | Some v -> Some ((v + 1) mod 3)
            else o)
          outputs
      in
      QCheck.assume (corrupted <> outputs);
      let trace =
        List.map2 (fun i o -> (T.input_of_int ~assoc:3 i, o)) word corrupted
      in
      not (Polca.member (polca_for policy) trace))

(* The polca binary with [args]: its exit status and standard error. *)
let run_polca args =
  let exe = "../bin/polca_cli.exe" in
  let err = Filename.temp_file "polca" ".err" in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull devnull fd_err
  in
  Unix.close fd_err;
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, text)

(* Quotient conformance is always the focused Wp suite, so the W ablation
   cannot run under [--quotient]: polca refuses the pair instead of
   running Wp in its place.  Either flag alone still learns. *)
let test_cli_rejects_quotient_w () =
  let contains text sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
    in
    go 0
  in
  let status, err =
    run_polca
      [ "--simulate"; "PLRU"; "--assoc"; "2"; "--quotient"; "--equivalence"; "w" ]
  in
  Alcotest.(check bool) "usage error (exit 124)" true (status = Unix.WEXITED 124);
  Alcotest.(check bool) "names the combination" true
    (contains err "--equivalence w cannot be combined with --quotient");
  List.iter
    (fun flags ->
      let status, _ = run_polca ([ "--simulate"; "PLRU"; "--assoc"; "2" ] @ flags) in
      Alcotest.(check bool)
        (String.concat " " flags ^ " learns")
        true (status = Unix.WEXITED 0))
    [ [ "--equivalence"; "w" ]; [ "--quotient" ] ]

let suite =
  ( "polca",
    [
      Alcotest.test_case "outputs match (LRU)" `Quick test_outputs_match_lru;
      Alcotest.test_case "outputs match (New1)" `Quick test_outputs_match_new1;
      Alcotest.test_case "Theorem 3.1 membership" `Quick test_member_theorem_3_1;
      Alcotest.test_case "fresh blocks deterministic" `Quick test_fresh_blocks_deterministic;
      Alcotest.test_case "nondeterminism detected" `Quick test_nondeterminism_detected;
      Alcotest.test_case "moracle alphabet" `Quick test_moracle_n_inputs;
      Alcotest.test_case "learning is exact (small zoo)" `Quick test_learn_simulated_exact;
      Alcotest.test_case "learning identifies New2" `Quick test_learn_identifies;
      Alcotest.test_case "random-walk equivalence" `Quick test_learn_with_random_walk;
      Alcotest.test_case "check_hits ablation" `Quick test_check_hits_ablation;
      QCheck_alcotest.to_alcotest prop_polca_equals_policy_semantics;
      QCheck_alcotest.to_alcotest prop_member_positive;
      QCheck_alcotest.to_alcotest prop_member_negative;
      Alcotest.test_case "cli rejects --quotient --equivalence w" `Quick
        test_cli_rejects_quotient_w;
    ] )
