(* Tests for the noise-hardened query layer (§4.3/§7.1): adaptive
   majority voting, bounded retry around nondeterminism, drift detection
   and threshold recalibration, the self-healing membership cache, and the
   stats accounting under voting. *)

module M = Cq_hwsim.Machine
module CM = Cq_hwsim.Cpu_model
module FE = Cq_cachequery.Frontend
module BE = Cq_cachequery.Backend
module B = Cq_cache.Block
module O = Cq_cache.Oracle
module Polca = Cq_core.Polca

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let backend_for ?(noise = M.quiet_noise) model level set =
  let machine = M.create ~noise model in
  let be = BE.create machine { BE.level; slice = 0; set } in
  ignore (BE.calibrate be);
  be

let report_of run =
  match run.Cq_core.Hardware.outcome with
  | Cq_core.Hardware.Learned { report; _ } -> report
  | Cq_core.Hardware.Partial { failure; _ } ->
      Alcotest.fail
        (Fmt.str "learn_set partial: %a" Cq_core.Learn.pp_failure failure)
  | Cq_core.Hardware.Failed { reason; _ } ->
      Alcotest.fail ("learn_set failed: " ^ reason)

(* --- Flagship: Haswell L1 (PLRU-8) under default noise ------------------- *)

(* Learning under the default noise model with adaptive voting must
   produce the same automaton as a noiseless run — the paper's Table 4
   workflow survives realistic measurement noise. *)
let test_haswell_l1_noise_matches_quiet () =
  let quiet =
    Cq_core.Hardware.learn_set
      (M.create ~noise:M.quiet_noise CM.haswell)
      CM.L1
  in
  let noisy =
    Cq_core.Hardware.learn_set
      ~voting:(FE.Adaptive { max = 5 })
      ~retries:3
      (M.create ~noise:M.default_noise CM.haswell)
      CM.L1
  in
  let q = report_of quiet and n = report_of noisy in
  Alcotest.(check int) "same state count" q.Cq_core.Learn.states
    n.Cq_core.Learn.states;
  Alcotest.(check bool) "same automaton as the quiet run" true
    (Cq_automata.Mealy.equivalent q.Cq_core.Learn.machine
       n.Cq_core.Learn.machine);
  Alcotest.(check bool) "vote re-measurements recorded" true
    (n.Cq_core.Learn.vote_runs > 0);
  Alcotest.(check bool) "timed loads include vote runs" true
    (noisy.Cq_core.Hardware.timed_loads > quiet.Cq_core.Hardware.timed_loads)

(* The report's timed loads are the backend counter's delta over the
   learn, whichever path issued them: Polca's session mode drives the
   frontend's access primitive directly, bypassing the query paths that
   used to do the counting.  The probe runs before every top-level
   query, so its first reading is the counter at the start of the
   learn. *)
let test_report_counts_session_loads () =
  let metrics = Cq_util.Metrics.create () in
  let loads () =
    Cq_util.Metrics.value
      (Cq_util.Metrics.counter metrics "backend.timed_loads")
  in
  let at_start = ref None in
  let probe _ = if !at_start = None then at_start := Some (loads ()) in
  let run =
    Cq_core.Hardware.learn_set ~quotient:true ~metrics
      ~probe
      (M.create ~noise:M.quiet_noise CM.haswell)
      CM.L1
  in
  let r = report_of run in
  let start = Option.get !at_start in
  Alcotest.(check bool) "loads counted" true (r.Cq_core.Learn.timed_loads > 0);
  Alcotest.(check int) "= backend.timed_loads delta over the learn"
    (loads () - start) r.Cq_core.Learn.timed_loads

(* A learn over the device exports one count of timed loads and one of
   vote re-runs, under whatever names: every [*.timed_loads] series equals
   the backend's counter and every [*.vote_runs] series the frontend's —
   no learn-side copy that nothing increments sits at 0 beside them. *)
let test_exported_device_counters_agree () =
  let metrics = Cq_util.Metrics.create () in
  ignore
    (Cq_core.Hardware.learn_set ~quotient:true ~metrics
       (M.create ~noise:M.quiet_noise CM.haswell)
       CM.L1);
  let value name =
    Cq_util.Metrics.value (Cq_util.Metrics.counter metrics name)
  in
  let loads = value "backend.timed_loads" in
  Alcotest.(check bool) "loads counted" true (loads > 0);
  List.iter
    (fun (name, v) ->
      match v with
      | Cq_util.Metrics.Counter_value n
        when Filename.check_suffix name ".timed_loads" ->
          Alcotest.(check int) name loads n
      | Cq_util.Metrics.Counter_value n
        when Filename.check_suffix name ".vote_runs" ->
          Alcotest.(check int) name (value "frontend.vote_runs") n
      | _ -> ())
    (Cq_util.Metrics.snapshot metrics)

(* Every report line is its own line, the noise lines included. *)
let test_report_lines () =
  let r =
    Cq_core.Learn.learn_simulated ~identify:false
      (Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:2)
  in
  let text =
    Fmt.str "%a" Cq_core.Learn.pp_report
      { r with Cq_core.Learn.timed_loads = 5; vote_runs = 3 }
  in
  Alcotest.(check bool) "timed loads on its own line" true
    (contains ~sub:"\ntimed loads: 5\n" text);
  Alcotest.(check bool) "vote re-runs on its own line" true
    (contains ~sub:"\nvote re-runs: 3\n" text)

(* Adaptive early stopping must beat a fixed repetition count on the same
   noisy target while learning the same machine (toy L1 keeps this
   quick). *)
let test_adaptive_cheaper_than_fixed () =
  let learn voting =
    Cq_core.Hardware.learn_set ~voting ~retries:3
      (M.create ~noise:M.default_noise CM.toy)
      CM.L1
  in
  let fixed = learn (FE.Fixed 5) in
  let adaptive = learn (FE.Adaptive { max = 5 }) in
  let rf = report_of fixed and ra = report_of adaptive in
  Alcotest.(check bool) "same automaton" true
    (Cq_automata.Mealy.equivalent rf.Cq_core.Learn.machine
       ra.Cq_core.Learn.machine);
  Alcotest.(check bool) "adaptive issues fewer timed loads" true
    (adaptive.Cq_core.Hardware.timed_loads < fixed.Cq_core.Hardware.timed_loads)

(* --- Bounded retry around Polca.Non_deterministic ------------------------ *)

(* An oracle that mis-reports exactly one outcome, once: the first answer
   of the first query is flipped, every re-execution is clean. *)
let flipping_oracle policy =
  let base = O.of_policy policy in
  let armed = ref true in
  let corrupt = function
    | r :: rest when !armed ->
        armed := false;
        (if Cq_cache.Cache_set.result_is_hit r then Cq_cache.Cache_set.Miss
         else Cq_cache.Cache_set.Hit)
        :: rest
    | rs -> rs
  in
  let query q = corrupt (base.O.query q) in
  { base with O.query; query_batch = List.map query; ops = None }

let test_transient_flip_absorbed () =
  let policy = Cq_policy.Lru.make 2 in
  let stats = O.fresh_stats () in
  let polca = Polca.create ~retries:2 ~stats (flipping_oracle policy) in
  let truth = Cq_policy.Policy.to_mealy policy in
  let word = [ 0; 1; 2; 0 ] in
  Alcotest.(check bool) "retry recovers the true answer" true
    (Polca.run polca word = Cq_automata.Mealy.run truth word);
  Alcotest.(check bool) "flip counted" true (Cq_util.Metrics.value stats.O.transient_flips >= 1);
  Alcotest.(check bool) "retry counted" true (Cq_util.Metrics.value stats.O.retry_attempts >= 1);
  (* The same flip is fatal without the retry layer. *)
  let polca0 = Polca.create (flipping_oracle policy) in
  match Polca.run polca0 word with
  | _ -> Alcotest.fail "expected Non_deterministic"
  | exception Polca.Non_deterministic _ -> ()

(* A prefetch whose session meets a transient flip: the failing word
   holds its failure, counts the session as its first attempt and is
   re-run once when queried — one retry, one backoff, one flip absorbed —
   while the other held answers are still consumed without a device run.
   The device's resets issue a timed load each, as a real reset does, so
   speculation is on. *)
let test_prefetch_flip_one_retry () =
  let policy = Cq_policy.Lru.make 2 in
  let base = O.of_policy policy in
  let ops = Option.get base.O.ops in
  let stats = O.fresh_stats () in
  let resets = ref 0 and armed = ref false in
  let flipping =
    {
      base with
      O.ops =
        Some
          {
            ops with
            Cq_cache.Batch.reset =
              (fun () ->
                incr resets;
                Cq_util.Metrics.incr stats.O.timed_loads;
                ops.Cq_cache.Batch.reset ());
            access =
              (fun b ->
                let r = ops.Cq_cache.Batch.access b in
                if not !armed then r
                else begin
                  armed := false;
                  if Cq_cache.Cache_set.result_is_hit r then Cq_cache.Cache_set.Miss
                  else Cq_cache.Cache_set.Hit
                end);
          };
    }
  in
  let backoffs = ref [] in
  let polca =
    Polca.create ~retries:2 ~stats
      ~backoff:(fun k -> backoffs := k :: !backoffs)
      flipping
  in
  let truth = Cq_policy.Policy.to_mealy policy in
  let m = Polca.moracle polca in
  (* Speculation starts once a reset has been seen to issue timed loads. *)
  ignore (m.Cq_learner.Moracle.query [ 2; 2 ]);
  let words = [ [ 0; 1 ]; [ 2; 0 ]; [ 1 ] ] in
  resets := 0;
  (* the first access of the prefetch session reads wrong *)
  armed := true;
  m.Cq_learner.Moracle.prefetch (List.to_seq words);
  List.iter
    (fun w ->
      Alcotest.(check bool) "true answer" true
        (m.Cq_learner.Moracle.query w = Cq_automata.Mealy.run truth w))
    words;
  Alcotest.(check int) "resets: the session and one retry" 2 !resets;
  Alcotest.(check (list int)) "one backoff, before attempt 1" [ 1 ] !backoffs;
  Alcotest.(check int) "retry attempts" 1
    (Cq_util.Metrics.value stats.O.retry_attempts);
  Alcotest.(check int) "transient flips" 1
    (Cq_util.Metrics.value stats.O.transient_flips)

(* On a software cache a reset is an array copy and speculation is off:
   a prefetch must not generate a word of its announcement, and the
   counting layer keeps one latency sample per query. *)
let test_prefetch_ignored_on_software () =
  let polca = Polca.create (O.of_policy (Cq_policy.Lru.make 2)) in
  let stats = Cq_learner.Moracle.fresh_stats () in
  let m = Cq_learner.Moracle.counting stats (Polca.moracle polca) in
  ignore (m.Cq_learner.Moracle.query [ 2 ]);
  m.Cq_learner.Moracle.prefetch (fun () -> Alcotest.fail "announcement generated");
  ignore (m.Cq_learner.Moracle.query [ 0 ]);
  Alcotest.(check int) "one latency sample per query" 2
    (Cq_util.Metrics.hist_count stats.Cq_learner.Moracle.latency)

let test_structural_nondeterminism_still_fails () =
  (* A broken reset (modelled as an oracle lying about the initial
     content) fails on every re-execution: retries must not mask it, and
     the error must carry the retry history. *)
  let base = O.of_policy (Cq_policy.Lru.make 2) in
  let lying =
    { base with O.initial_content = [| B.of_index 7; B.of_index 8 |] }
  in
  let polca = Polca.create ~retries:2 lying in
  match Polca.run polca [ 0 ] with
  | _ -> Alcotest.fail "expected Non_deterministic"
  | exception Polca.Non_deterministic msg ->
      Alcotest.(check bool) "message records the exhausted retries" true
        (contains ~sub:"persisted after 2 retries" msg)

(* --- Drift detection and recalibration ----------------------------------- *)

let test_recalibration_fires_under_drift () =
  let be = backend_for ~noise:M.drift_noise CM.haswell CM.L1 0 in
  let b = B.of_index 0 in
  (* Hammer one (hitting) block: drift pushes the hit population up by
     ~0.0002 cycles per load, and the EWMA detector must request a
     recalibration well before misclassification distance (~4 cycles). *)
  let fired = ref false in
  (try
     for _ = 1 to 20_000 do
       ignore (BE.classify be (BE.timed_load be b));
       if BE.recalibrate_due be then begin
         fired := true;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "drift detector fired" true !fired;
  Alcotest.(check bool) "recalibration honoured" true (BE.maybe_recalibrate be);
  Alcotest.(check int) "recalibration counted" 1 (BE.recalibrations be);
  Alcotest.(check bool) "request cleared" false (BE.recalibrate_due be)

let test_no_spurious_recalibration_when_quiet () =
  let be = backend_for ~noise:M.default_noise CM.haswell CM.L1 0 in
  let b = B.of_index 0 in
  for _ = 1 to 5_000 do
    ignore (BE.classify be (BE.timed_load be b))
  done;
  Alcotest.(check bool) "no recalibration without drift" false
    (BE.recalibrate_due be)

(* --- Memo regression: Hashtbl.replace, not add --------------------------- *)

let test_memo_requery_does_not_grow () =
  let fe = FE.create (backend_for CM.toy CM.L1 0) in
  let oracle = FE.oracle fe in
  let q = [ B.of_index 0; B.of_index 1; B.of_index 0 ] in
  let r1 = oracle.O.query q in
  let size1 = FE.memo_size fe in
  Alcotest.(check bool) "query memoized" true (size1 >= 1);
  let r2 = oracle.O.query q in
  Alcotest.(check bool) "memoized answer identical" true (r1 = r2);
  Alcotest.(check int) "re-query does not grow the memo" size1
    (FE.memo_size fe);
  Alcotest.(check bool) "memo hit recorded" true
    (Cq_util.Metrics.value (FE.stats fe).O.memo_hits >= 1)

(* --- Stats under voting: count actual executions ------------------------- *)

let test_stats_count_vote_executions () =
  let run voting =
    let fe = FE.create ~voting (backend_for CM.toy CM.L1 0) in
    ignore ((FE.oracle fe).O.query (List.map B.of_index [ 0; 1; 0 ]));
    FE.stats fe
  in
  let s1 = run (FE.Fixed 1) and s3 = run (FE.Fixed 3) in
  Alcotest.(check int) "two extra runs per profiled access" 6
    (Cq_util.Metrics.value s3.O.vote_runs);
  Alcotest.(check int) "timed loads count every repetition"
    (Cq_util.Metrics.value s1.O.timed_loads + Cq_util.Metrics.value s3.O.vote_runs)
    (Cq_util.Metrics.value s3.O.timed_loads);
  Alcotest.(check bool) "logical accesses also count re-measurements" true
    (Cq_util.Metrics.value s3.O.block_accesses
    > Cq_util.Metrics.value s1.O.block_accesses)

let test_frontend_rejects_even_voting () =
  let be = backend_for CM.toy CM.L1 0 in
  Alcotest.check_raises "even Fixed rejected"
    (Invalid_argument "Frontend: repetitions must be odd (even counts can tie)")
    (fun () -> ignore (FE.create ~voting:(FE.Fixed 4) be));
  Alcotest.check_raises "even Adaptive cap rejected"
    (Invalid_argument
       "Frontend: max repetitions must be odd (even counts can tie)")
    (fun () -> ignore (FE.create ~voting:(FE.Adaptive { max = 2 }) be));
  let fe = FE.create be in
  Alcotest.check_raises "even set_voting rejected"
    (Invalid_argument "Frontend: repetitions must be odd (even counts can tie)")
    (fun () -> FE.set_voting fe (FE.Fixed 6))

(* --- The self-healing membership cache ----------------------------------- *)

(* One flipped answer poisons the prefix cache; arbitration re-executes
   the conflicting word and overwrites the corrupt entry (two fresh runs
   outvote the single cached one). *)
let test_moracle_conflict_arbitration () =
  let module Mo = Cq_learner.Moracle in
  let truth w = List.map (fun i -> i * 10) w in
  let armed = ref true in
  let corrupting w =
    let o = truth w in
    if !armed then begin
      armed := false;
      match o with x :: rest -> (x + 1) :: rest | [] -> []
    end
    else o
  in
  let stats = Mo.fresh_stats () in
  let o =
    Mo.cached ~stats ~conflict_retries:2 (Mo.make ~n_inputs:3 corrupting)
  in
  (* First query caches the corrupt answer... *)
  Alcotest.(check (list int)) "poisoned first answer" [ 11 ] (o.Mo.query [ 1 ]);
  (* ...the longer word conflicts with it, and arbitration repairs both. *)
  Alcotest.(check (list int)) "conflict repaired" [ 10; 20 ] (o.Mo.query [ 1; 2 ]);
  Alcotest.(check (list int)) "cache overwritten" [ 10 ] (o.Mo.query [ 1 ]);
  Alcotest.(check bool) "conflict counted" true (Cq_util.Metrics.value stats.Mo.conflicts >= 1)

let test_moracle_persistent_conflict_raises () =
  let module Mo = Cq_learner.Moracle in
  let calls = ref 0 in
  (* Genuinely nondeterministic: a different answer on every execution. *)
  let nondet w =
    incr calls;
    List.map (fun i -> i + !calls) w
  in
  let o = Mo.cached ~conflict_retries:2 (Mo.make ~n_inputs:2 nondet) in
  ignore (o.Mo.query [ 0 ]);
  match o.Mo.query [ 0; 1 ] with
  | _ -> Alcotest.fail "expected Inconsistent"
  | exception Mo.Inconsistent msg ->
      Alcotest.(check bool) "message records the re-executions" true
        (contains ~sub:"re-executions" msg)

let suite =
  ( "noise",
    [
      Alcotest.test_case "Haswell L1: noisy = quiet automaton" `Slow
        test_haswell_l1_noise_matches_quiet;
      Alcotest.test_case "adaptive cheaper than fixed" `Quick
        test_adaptive_cheaper_than_fixed;
      Alcotest.test_case "report counts session-mode loads" `Quick
        test_report_counts_session_loads;
      Alcotest.test_case "exported device counters agree" `Quick
        test_exported_device_counters_agree;
      Alcotest.test_case "report lines" `Quick test_report_lines;
      Alcotest.test_case "transient flip absorbed" `Quick
        test_transient_flip_absorbed;
      Alcotest.test_case "prefetch flip costs one retry" `Quick
        test_prefetch_flip_one_retry;
      Alcotest.test_case "prefetch ignored on a software cache" `Quick
        test_prefetch_ignored_on_software;
      Alcotest.test_case "structural nondeterminism fails" `Quick
        test_structural_nondeterminism_still_fails;
      Alcotest.test_case "drift fires recalibration" `Quick
        test_recalibration_fires_under_drift;
      Alcotest.test_case "no spurious recalibration" `Quick
        test_no_spurious_recalibration_when_quiet;
      Alcotest.test_case "memo re-query bounded" `Quick
        test_memo_requery_does_not_grow;
      Alcotest.test_case "stats count vote executions" `Quick
        test_stats_count_vote_executions;
      Alcotest.test_case "even voting rejected" `Quick
        test_frontend_rejects_even_voting;
      Alcotest.test_case "moracle conflict arbitration" `Quick
        test_moracle_conflict_arbitration;
      Alcotest.test_case "moracle persistent conflict raises" `Quick
        test_moracle_persistent_conflict_raises;
    ] )
