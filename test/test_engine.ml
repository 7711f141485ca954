(* Tests for the batched query engine: the prefix-sharing trie executor,
   Polca's session mode, the bounded memo tables, and end-to-end engine
   equivalence — every fast path must be observationally identical to
   sequential reset-and-replay. *)

module B = Cq_cache.Block
module CS = Cq_cache.Cache_set
module O = Cq_cache.Oracle
module M = Cq_hwsim.Machine
module Zoo = Cq_policy.Zoo

let random_word prng ~universe ~max_len =
  let len = 1 + Cq_util.Prng.int prng max_len in
  List.init len (fun _ -> B.of_index (Cq_util.Prng.int prng universe))

let random_batch prng ~batch ~universe ~max_len =
  List.init batch (fun _ -> random_word prng ~universe ~max_len)

(* Trie execution of a batch must be byte-identical to answering each
   query from reset, across policies with different metadata shapes. *)
let test_batch_matches_sequential () =
  List.iter
    (fun name ->
      let prng = Cq_util.Prng.of_int 42 in
      let oracle = O.of_policy (Zoo.make_exn ~name ~assoc:4) in
      for _ = 1 to 10 do
        let batch = random_batch prng ~batch:12 ~universe:8 ~max_len:10 in
        let batched = oracle.O.query_batch batch in
        let sequential = List.map oracle.O.query batch in
        Alcotest.(check bool)
          (name ^ ": batch = sequential") true
          (batched = sequential)
      done)
    [ "LRU"; "PLRU"; "SRRIP-HP" ]

(* Prefix sharing must be a real saving: a batch with overlapping prefixes
   costs strictly fewer physical accesses than naive replay, and exactly
   what [plan_cost] predicts. *)
let test_trie_saves_accesses () =
  let set = CS.create (Zoo.make_exn ~name:"PLRU" ~assoc:4) in
  let oracle = O.of_cache_set set in
  let prng = Cq_util.Prng.of_int 7 in
  let prefix = random_word prng ~universe:6 ~max_len:8 in
  let batch = List.init 8 (fun i -> prefix @ [ B.of_index (i mod 6) ]) in
  let before = CS.accesses set in
  let answers = oracle.O.query_batch batch in
  let physical = CS.accesses set - before in
  let naive = List.fold_left (fun acc q -> acc + List.length q) 0 batch in
  Alcotest.(check int) "every query answered" 8 (List.length answers);
  Alcotest.(check bool) "strictly fewer accesses" true (physical < naive);
  let plan_naive, plan_trie = Cq_cache.Batch.plan_cost batch in
  Alcotest.(check int) "plan_cost naive" naive plan_naive;
  Alcotest.(check int) "plan_cost trie = physical accesses" physical plan_trie

(* Polca's session mode (live trace + checkpointed findEvicted scans) must
   produce the same outputs as per-probe replay of Algorithm 1. *)
let test_session_matches_replay () =
  List.iter
    (fun name ->
      let prng = Cq_util.Prng.of_int 11 in
      let session =
        Cq_core.Polca.create (O.of_policy (Zoo.make_exn ~name ~assoc:4))
      in
      let replay =
        Cq_core.Polca.create ~batch_probes:false
          (O.of_policy (Zoo.make_exn ~name ~assoc:4))
      in
      let n = Cq_core.Polca.n_inputs session in
      for _ = 1 to 20 do
        let len = 1 + Cq_util.Prng.int prng 12 in
        let word = List.init len (fun _ -> Cq_util.Prng.int prng n) in
        Alcotest.(check bool)
          (name ^ ": session = replay") true
          (Cq_core.Polca.run session word = Cq_core.Polca.run replay word)
      done)
    [ "LRU"; "PLRU"; "FIFO"; "SRRIP-HP"; "LIP" ]

(* The machine-level checkpoint must restore the full architectural state,
   and its restore thunk must be reusable (the session-mode fan-out scans
   restore the same checkpoint up to [assoc] times). *)
let test_machine_checkpoint () =
  let m = M.create ~noise:M.quiet_noise Cq_hwsim.Cpu_model.toy in
  let addrs = List.init 12 (fun i -> i * 64) in
  List.iter (fun a -> ignore (M.load m a)) addrs;
  let restore = M.checkpoint m in
  let probe () =
    List.map (fun a -> M.load m a)
      (List.filteri (fun i _ -> i mod 3 = 0) addrs)
  in
  let first = probe () in
  restore ();
  Alcotest.(check (list int)) "identical replay after restore" first (probe ());
  restore ();
  Alcotest.(check (list int)) "restore thunk is reusable" first (probe ())

(* Bounded memo: overflow clears the table (and says so) without ever
   changing answers. *)
let test_memo_overflow () =
  let stats = O.fresh_stats () in
  let plain = O.of_policy (Zoo.make_exn ~name:"LRU" ~assoc:4) in
  let oracle = O.memoized ~stats ~max_entries:2 plain in
  let q i = [ B.of_index i; B.of_index ((i + 1) mod 6); B.of_index 0 ] in
  for i = 0 to 5 do
    ignore (oracle.O.query (q i))
  done;
  Alcotest.(check bool) "overflows recorded" true (Cq_util.Metrics.value stats.O.memo_overflows > 0);
  for i = 0 to 5 do
    Alcotest.(check bool) "answers unchanged by clears" true
      (oracle.O.query (q i) = plain.O.query (q i))
  done

(* End to end: both engines learn the same automaton, and the batched
   engine actually saves accesses while doing it. *)
let test_engines_agree () =
  let policy () = Zoo.make_exn ~name:"PLRU" ~assoc:4 in
  let learn engine =
    Cq_core.Learn.learn_simulated ~engine ~identify:false (policy ())
  in
  let seq = learn Cq_core.Learn.Sequential in
  let bat = learn Cq_core.Learn.Batched in
  Alcotest.(check int) "batched states" seq.Cq_core.Learn.states
    bat.Cq_core.Learn.states;
  Alcotest.(check bool) "batched machine equivalent" true
    (Cq_automata.Mealy.equivalent seq.Cq_core.Learn.machine
       bat.Cq_core.Learn.machine);
  Alcotest.(check bool) "batched engine saves accesses" true
    (bat.Cq_core.Learn.accesses_saved > 0);
  Alcotest.(check bool) "sequential engine saves nothing" true
    (seq.Cq_core.Learn.accesses_saved = 0)

(* Acceptance for the noise-hardened layer: with voting enabled the
   frontend still exposes the batched/session path, and it must answer
   exactly like per-query sequential execution on an equally-noisy
   machine. *)
let test_batch_matches_sequential_under_noise () =
  let module FE = Cq_cachequery.Frontend in
  let module BE = Cq_cachequery.Backend in
  let module CM = Cq_hwsim.Cpu_model in
  let mk () =
    let machine = M.create ~noise:M.default_noise CM.toy in
    let be = BE.create machine { BE.level = CM.L1; slice = 0; set = 0 } in
    ignore (BE.calibrate be);
    FE.create ~voting:(FE.Adaptive { max = 5 }) be
  in
  let words =
    List.map
      (List.map B.of_index)
      [ [ 0; 1; 0; 2 ]; [ 1; 1; 0 ]; [ 2; 0; 1; 2 ]; [ 0 ]; [ 2; 2; 1; 0; 1 ] ]
  in
  let fe_seq = mk () and fe_bat = mk () in
  Alcotest.(check bool) "voting keeps the session path available" true
    (Option.is_some (FE.oracle fe_bat).O.ops
    && (FE.oracle fe_bat).O.prefix_sharing);
  let seq = List.map (FE.oracle fe_seq).O.query words in
  let bat = (FE.oracle fe_bat).O.query_batch words in
  Alcotest.(check bool) "batched = sequential under noise" true (seq = bat)

let suite =
  ( "engine",
    [
      Alcotest.test_case "trie batch = sequential" `Quick
        test_batch_matches_sequential;
      Alcotest.test_case "trie saves accesses" `Quick test_trie_saves_accesses;
      Alcotest.test_case "session = replay (Polca)" `Quick
        test_session_matches_replay;
      Alcotest.test_case "machine checkpoint determinism" `Quick
        test_machine_checkpoint;
      Alcotest.test_case "bounded memo overflow" `Quick test_memo_overflow;
      Alcotest.test_case "engines agree" `Quick test_engines_agree;
      Alcotest.test_case "batched = sequential under noise" `Quick
        test_batch_matches_sequential_under_noise;
    ] )
