(* Tests for the batched query engine: Polca's session mode and end-to-end
   engine equivalence — the fast path must be observationally identical
   to sequential reset-and-replay. *)

module O = Cq_cache.Oracle
module M = Cq_hwsim.Machine
module Zoo = Cq_policy.Zoo

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
   frontend still exposes the session path, and Polca's word-trie sessions
   over it must answer exactly like per-probe replay (Algorithm 1) on an
   equally-noisy machine. *)
let test_session_matches_replay_under_noise () =
  let module FE = Cq_cachequery.Frontend in
  let module BE = Cq_cachequery.Backend in
  let module CM = Cq_hwsim.Cpu_model in
  let mk () =
    let machine = M.create ~noise:M.default_noise CM.toy in
    let be = BE.create machine { BE.level = CM.L1; slice = 0; set = 0 } in
    ignore (BE.calibrate be);
    FE.create ~voting:(FE.Adaptive { max = 5 }) be
  in
  let fe_session = mk () and fe_replay = mk () in
  Alcotest.(check bool) "voting keeps the session path available" true
    (Option.is_some (FE.oracle fe_session).O.ops);
  let session = Cq_core.Polca.create (FE.oracle fe_session) in
  let replay =
    Cq_core.Polca.create ~batch_probes:false (FE.oracle fe_replay)
  in
  let n = Cq_core.Polca.n_inputs session in
  let prng = Cq_util.Prng.of_int 13 in
  let words =
    List.init 24 (fun _ ->
        List.init
          (1 + Cq_util.Prng.int prng 8)
          (fun _ -> Cq_util.Prng.int prng n))
  in
  let by_session =
    (Cq_core.Polca.moracle session).Cq_learner.Moracle.query_batch words
  in
  let by_replay = List.map (Cq_core.Polca.run replay) words in
  Alcotest.(check bool) "session = replay under noise" true
    (by_session = by_replay)

let suite =
  ( "engine",
    [
      Alcotest.test_case "session = replay (Polca)" `Quick
        test_session_matches_replay;
      Alcotest.test_case "machine checkpoint determinism" `Quick
        test_machine_checkpoint;
      Alcotest.test_case "engines agree" `Quick test_engines_agree;
      Alcotest.test_case "batched = sequential under noise" `Quick
        test_session_matches_replay_under_noise;
    ] )
