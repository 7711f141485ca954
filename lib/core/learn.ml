(* The end-to-end learning loop (§3.4): Polca as membership oracle, L* as
   learner, Wp-method conformance testing (depth k) as equivalence oracle.

   Corollary 3.4 holds by construction: if learning returns policy P', then
   the policy under learning is trace-equivalent to P' or has more than
   |P'| + k states. *)

type equivalence =
  | W_method of int (* depth k of the conformance suite *)
  | Wp_method of int (* the paper's configuration: smaller suites, same guarantee *)
  | Random_walk of { max_tests : int; max_len : int; seed : int }

let default_equivalence = Wp_method 1

(* Query-engine selection:
   - [Sequential]: one query at a time, reset-and-replay, the sequential
     short-circuit findEvicted scan — the seed's behaviour, kept as the
     baseline for the engine benchmark and the determinism tests.
   - [Batched] (default): closure waves and findEvicted fan-outs go to the
     cache as prefix-shared batches (trie executor over snapshot/restore). *)
type engine = Sequential | Batched

(* Snapshot cadence for durable sessions: write at most every
   [every_queries] hardware queries AND at least every [every_seconds]
   seconds of wall clock (whichever trips first).

   A snapshot write that fails typed (Atomic_file.Write_error, or an
   injected crash) must degrade the session, never kill the learn — the
   snapshot is an optimisation of the failure path, and aborting hours of
   hardware queries because the *backup* could not be written inverts its
   purpose.  [on_degraded] observes the failure; [spill] names a fallback
   path (ideally another filesystem) tried before giving up on this
   cadence tick (always with a full base). *)
type snapshot_policy = {
  path : string;
  every_queries : int;
  every_seconds : float;
  spill : string option;
  on_degraded : (string -> unit) option;
}

let snapshot_policy ?(every_queries = 500) ?(every_seconds = 30.) ?spill
    ?on_degraded path =
  if every_queries < 1 then
    invalid_arg "Learn.snapshot_policy: every_queries must be >= 1";
  if every_seconds <= 0. then
    invalid_arg "Learn.snapshot_policy: every_seconds must be > 0";
  { path; every_queries; every_seconds; spill; on_degraded }

(* The supervisor's failure taxonomy.  Everything a learning run can die
   of maps onto one of these; anything else is a programming error and
   propagates as the raw exception. *)
type failure =
  | Transient of string
      (* noise-induced: Polca.Non_deterministic / Moracle.Inconsistent;
         a retry (with escalated voting) can succeed *)
  | Diverged of Cq_learner.Lstar.divergence (* the table never stabilised *)
  | Budget_exhausted of string (* wall-clock deadline or query budget *)
  | Invalid of string
      (* the learned automaton violates the policy axioms (the ~validate
         gate); like Transient, a retry with escalated voting can succeed *)

let pp_failure ppf = function
  | Transient m -> Fmt.pf ppf "transient: %s" m
  | Diverged d -> Fmt.pf ppf "diverged: %a" Cq_learner.Lstar.pp_divergence d
  | Budget_exhausted m -> Fmt.pf ppf "budget exhausted: %s" m
  | Invalid m -> Fmt.pf ppf "invalid automaton: %s" m

(* Distinct non-zero exit codes, so scripted campaigns can branch on the
   failure class without parsing stderr. *)
let failure_exit_code = function
  | Transient _ -> 10
  | Diverged _ -> 11
  | Budget_exhausted _ -> 12
  | Invalid _ -> 14

exception Out_of_budget of string
(* raised inside the oracle stack when the deadline or query budget trips;
   classified as [Budget_exhausted] by [run] *)

exception Invalid_automaton of string
(* raised by the post-learning validation gate ([~validate]) when the
   learned machine violates the policy axioms; classified as [Invalid] *)

type report = {
  machine : Cq_policy.Types.output Cq_automata.Mealy.t;
  states : int;
  seconds : float;
  rounds : int; (* equivalence queries issued *)
  suffixes : int; (* distinguishing suffixes added by Rivest–Schapire *)
  member_queries : int; (* membership queries reaching Polca *)
  member_symbols : int;
  cache_queries : int; (* block-trace queries reaching the cache oracle *)
  cache_accesses : int; (* total block accesses of those queries *)
  cache_batches : int; (* query batches reaching the cache oracle *)
  accesses_saved : int; (* block accesses avoided by prefix sharing *)
  identified : string list; (* known policies equivalent to the result *)
  quotient : Cq_learner.Quotient.stats option;
      (* symmetry-quotient merge statistics (state collapse, alias count,
         verification queries), when requested ([~quotient]) *)
  (* Noise-layer accounting (0 for quiet software oracles): *)
  timed_loads : int; (* physical timed loads, incl. vote re-measurements *)
  vote_runs : int; (* extra executions spent on majority voting *)
  transient_flips : int; (* Non_deterministic words absorbed by retry *)
  retry_attempts : int; (* word re-executions the retry layer issued *)
  validation : Cq_analysis.Automaton_check.report option;
      (* the post-learning model-checker verdict, when [~validate] ran
         (always a passing report here: violations abort the run) *)
  metrics : Cq_util.Metrics.t;
      (* the run's full metrics registry; the scalar fields above are
         views over it (frozen at completion) *)
}

(* The box closes after the optional lines: a break hint printed outside
   it prints nothing. *)
let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>states: %d@,time: %a@,equivalence rounds: %d@,suffixes added: \
     %d@,membership queries: %d (%d symbols)@,cache queries: %d (%d block \
     accesses)@,cache batches: %d (%d accesses saved)@,identified as: %s"
    r.states Cq_util.Clock.pp_duration r.seconds r.rounds r.suffixes
    r.member_queries r.member_symbols r.cache_queries r.cache_accesses
    r.cache_batches r.accesses_saved
    (match r.identified with [] -> "(unknown policy)" | l -> String.concat ", " l);
  (match r.quotient with
  | Some q -> Fmt.pf ppf "@,quotient: %a" Cq_learner.Quotient.pp q
  | None -> ());
  if r.vote_runs > 0 || r.retry_attempts > 0 || r.timed_loads > 0 then
    Fmt.pf ppf
      "@,timed loads: %d@,vote re-runs: %d@,retries: %d (%d transient flips \
       absorbed)"
      r.timed_loads r.vote_runs r.retry_attempts r.transient_flips;
  Fmt.pf ppf "@]"

(* What a supervised run salvaged when it could not complete: the failure
   class, the last hypothesis submitted to the equivalence oracle, and the
   snapshot a follow-up run can resume from. *)
type partial = {
  failure : failure;
  hypothesis : Cq_policy.Types.output Cq_automata.Mealy.t option;
  snapshot : string option;
  member_queries : int;
  seconds : float;
}

type outcome = Complete of report | Partial of partial

let default_meta () = Session.make_meta ~queries:0 ()

let snapshot_replay_histogram registry =
  Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 registry
    "learn.snapshot_replay_seconds"

let load_resume ~metrics path =
  Cq_util.Trace.with_span ~cat:"learn" "learn.resume.load" @@ fun () ->
  let snap, seconds = Cq_util.Clock.time (fun () -> Session.load ~path) in
  Cq_util.Metrics.observe (snapshot_replay_histogram metrics) seconds;
  snap

(* Learn the replacement policy behind a cache oracle.  [learn_core] is
   the one implementation: on failure it returns the original exception
   and its classification into the failure taxonomy; [run] keeps the
   classification, [learn_simulated] re-raises the exception. *)
let learn_core ?(equivalence = default_equivalence)
    ?(engine = Batched) ?(check_hits = true) ?(memoize = true)
    ?(max_states = 1_000_000) ?(identify = true) ?(validate = false)
    ?(quotient = false)
    ?(retries = 0) ?on_retry ?device_stats ?metrics ?snapshot ?resume
    ?resumed ?snapshot_meta ?(deadline = Cq_util.Clock.no_deadline)
    ?query_budget ?probe cache =
  (* One registry for the whole run: the learn-level oracle wrappers
     ("oracle.", "member.", "learn." prefixes) all register here.
     Callers pass the same registry to Backend/Frontend.create so the
     device layer's "backend."/"frontend." series land alongside. *)
  let registry =
    match metrics with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let snapshot_write_h =
    Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 registry
      "learn.snapshot_write_seconds"
  and snapshot_export_h =
    Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 registry
      "learn.snapshot_export_seconds"
  and snapshot_replay_h = snapshot_replay_histogram registry in
  let t0 = Cq_util.Clock.mono () in
  (* Resume: load the snapshot up front so a damaged file fails fast,
     before any hardware traffic — unless the caller already loaded it. *)
  let resumed : Cq_policy.Types.output Session.snapshot option =
    match resumed with
    | Some _ -> resumed
    | None -> Option.map (load_resume ~metrics:registry) resume
  in
  let batch_probes = engine = Batched in
  let cache =
    match engine with
    | Sequential -> Cq_cache.Oracle.sequential cache
    | Batched -> cache
  in
  (* [device_stats]: the device layer's own stats record (the CacheQuery
     frontend's).  Timed loads and votes are counted there, never by the
     wrappers below, so the learn-side stats share those two counters
     rather than register idle copies; their deltas over the learning run
     are the report's [timed_loads] and [vote_runs]. *)
  let cache_stats =
    Cq_cache.Oracle.fresh_stats ~registry
      ?timed_loads:(Option.map (fun d -> d.Cq_cache.Oracle.timed_loads) device_stats)
      ?vote_runs:(Option.map (fun d -> d.Cq_cache.Oracle.vote_runs) device_stats)
      ()
  in
  let dev_loads0 = Cq_util.Metrics.value cache_stats.Cq_cache.Oracle.timed_loads
  and dev_votes0 = Cq_util.Metrics.value cache_stats.Cq_cache.Oracle.vote_runs in
  let cache = Cq_cache.Oracle.counting cache_stats cache in
  let cache =
    if memoize then Cq_cache.Oracle.memoized ~stats:cache_stats cache
    else cache
  in
  let polca =
    Polca.create ~check_hits ~batch_probes ~retries ?backoff:on_retry
      ~stats:cache_stats cache
  in
  let mstats = Cq_learner.Moracle.fresh_stats ~registry () in
  let cached_oracle, handle =
    Polca.moracle polca
    |> Cq_learner.Moracle.counting mstats
    |> Cq_learner.Moracle.cached_session ~stats:mstats ~conflict_retries:retries
         ~journal:(Option.is_some snapshot)
  in
  (* Preload the prefix trie from the snapshot: every query the crashed
     run ever answered is now served locally, so the deterministic learner
     replays to the crash point at zero hardware cost and then continues —
     reaching the identical automaton a crash-free run would have. *)
  (match resumed with
  | Some snap ->
      let (), seconds =
        Cq_util.Clock.time (fun () ->
            handle.Cq_learner.Moracle.preload snap.Session.knowledge)
      in
      Cq_util.Metrics.observe snapshot_replay_h seconds
  | None -> ());
  let seed_rows =
    Option.bind resumed (fun snap ->
        Option.map
          (fun t -> t.Cq_learner.Lstar.rows)
          snap.Session.table)
  in
  (* Durability and supervision hooks around the cached oracle: [guard]
     runs before each top-level query (crash probe, deadline, budget);
     [maybe_snapshot] after it, when the trie is consistent.  Queries
     served by the trie never reach the hardware, so [mstats.queries] —
     the budget currency — only counts real traffic. *)
  let table_getter = ref None in
  let last_hypothesis = ref None in
  let snapshot_path_written = ref None in
  let last_snap_queries = ref 0 in
  let last_snap_time = ref t0 in
  let hw_queries () = Cq_util.Metrics.value mstats.Cq_learner.Moracle.queries in
  (* The snapshot file is a base plus an append-only log.  A run's first
     write, any write after a failed one, and a compaction (once the log
     outgrows its base) rewrite the base atomically; every other cadence
     tick appends the journal drained since the previous write.  The base
     at least doubles between compactions, so the bytes written stay
     linear in the run.  Only bases carry the L* table: its rows are a
     pure function of the oracle. *)
  let base_bytes = ref 0 and log_bytes = ref 0 and need_base = ref true in
  let bases = Cq_util.Metrics.counter registry "learn.snapshot_bases"
  and appends = Cq_util.Metrics.counter registry "learn.snapshot_appends" in
  let write_snapshot () =
    match snapshot with
    | None -> ()
    | Some p ->
        Cq_util.Trace.with_span ~cat:"learn" "learn.snapshot.write"
        @@ fun () ->
        let queries = hw_queries () in
        (* The drain is session work like the base's export: both are
           timed into [snapshot_export_h]. *)
        let entries, drain_s = Cq_util.Clock.time handle.Cq_learner.Moracle.drain in
        Cq_util.Metrics.observe snapshot_export_h drain_s;
        let base =
          lazy
            (let m =
               match snapshot_meta with
               | Some f -> f ()
               | None -> default_meta ()
             in
             let snap, seconds =
               Cq_util.Clock.time (fun () ->
                   {
                     Session.meta = { m with Session.queries };
                     knowledge = handle.Cq_learner.Moracle.export ();
                     table = Option.map (fun g -> g ()) !table_getter;
                   })
             in
             Cq_util.Metrics.observe snapshot_export_h seconds;
             snap)
        in
        let timed write =
          let bytes, seconds = Cq_util.Clock.time write in
          Cq_util.Metrics.observe snapshot_write_h seconds;
          bytes
        in
        let write_base path =
          let snap = Lazy.force base in
          let bytes = timed (fun () -> Session.write_base ~path snap) in
          Cq_util.Metrics.incr bases;
          snapshot_path_written := Some path;
          bytes
        in
        (* Bump the cadence trackers before attempting the write: a dead
           disk must not turn every subsequent query into a write
           attempt. *)
        last_snap_queries := queries;
        last_snap_time := Cq_util.Clock.mono ();
        (* A snapshot failure degrades the session, it never kills the
           learn: notify the observer, reroute a full base to the spill
           path, carry on, and rewrite the base on the next tick (the
           drained answers are in no record).  Only the typed shapes are
           absorbed — anything else is a programming error and
           propagates. *)
        try
          if !need_base || !log_bytes > !base_bytes then begin
            base_bytes := write_base p.path;
            log_bytes := 0
          end
          else begin
            log_bytes :=
              !log_bytes
              + timed (fun () -> Session.append ~path:p.path ~queries entries);
            Cq_util.Metrics.incr appends;
            snapshot_path_written := Some p.path
          end;
          need_base := false
        with
        | ( Cq_util.Atomic_file.Write_error _ | Cq_util.Faults.Injected _ ) as e
        ->
          need_base := true;
          (match p.on_degraded with
          | Some f -> ( try f (Printexc.to_string e) with _ -> ())
          | None -> ());
          (match p.spill with
          | None -> ()
          | Some sp -> (
              try ignore (write_base sp : int)
              with
              | Cq_util.Atomic_file.Write_error _ | Cq_util.Faults.Injected _
              ->
                ()))
  in
  let guard () =
    (match probe with
    | Some f -> f (hw_queries ())
    | None -> ());
    if Cq_util.Clock.expired deadline then
      raise
        (Out_of_budget
           (Printf.sprintf "wall-clock deadline exceeded after %d hardware \
                            queries"
              (hw_queries ())));
    match query_budget with
    | Some b when hw_queries () >= b ->
        raise
          (Out_of_budget (Printf.sprintf "query budget of %d exhausted" b))
    | _ -> ()
  in
  let maybe_snapshot () =
    match snapshot with
    | None -> ()
    | Some p ->
        if
          hw_queries () - !last_snap_queries >= p.every_queries
          || Cq_util.Clock.mono () -. !last_snap_time >= p.every_seconds
        then write_snapshot ()
  in
  let guarded oracle =
    {
      oracle with
      Cq_learner.Moracle.query =
        (fun w ->
          guard ();
          let r = oracle.Cq_learner.Moracle.query w in
          maybe_snapshot ();
          r);
      query_batch =
        (fun ws ->
          guard ();
          let r = oracle.Cq_learner.Moracle.query_batch ws in
          maybe_snapshot ();
          r);
      (* A chunk may keep the device busy for a while: check the budgets
         before it, unless it is the empty prefetch that only drops held
         answers. *)
      prefetch =
        (fun ws ->
          match ws () with
          | Seq.Nil -> oracle.Cq_learner.Moracle.prefetch Seq.empty
          | Seq.Cons _ as first ->
              guard ();
              oracle.Cq_learner.Moracle.prefetch (fun () -> first));
    }
  in
  (* The latest hypothesis' rep/alias decomposition, published by the
     quotient learner so the conformance suite can focus on representative
     states (aliased states only get a frame spot-check). *)
  let qview = ref None in
  let make_find_cex oracle =
    let quotient_conformance = quotient && Polca.assoc polca >= 2 in
    let find_cex =
      match equivalence with
      | Random_walk { max_tests; max_len; seed } ->
          Cq_learner.Equivalence.random_walk
            ~prng:(Cq_util.Prng.of_int seed)
            ~max_tests ~max_len oracle
      (* Quotient conformance is always the focused Wp suite; a W suite
         only lends it its depth. *)
      | W_method depth | Wp_method depth when quotient_conformance ->
          let assoc = Polca.assoc polca in
          let sweep = List.init assoc (fun _ -> assoc) in
          let is_rep s =
            match !qview with
            | None -> true
            | Some v ->
                s < Array.length v.Cq_learner.Lstar.is_rep_state
                && v.Cq_learner.Lstar.is_rep_state.(s)
          in
          Cq_learner.Equivalence.wp_quotient ~depth ~is_rep ~sweep oracle
      | W_method depth -> Cq_learner.Equivalence.w_method ~depth oracle
      | Wp_method depth -> Cq_learner.Equivalence.wp_method ~depth oracle
    in
    (* Counterexample verification (noise hardening): a transient measurement
       flip during conformance testing fabricates a counterexample the
       learner cannot process (no genuine distinguishing suffix exists).
       Re-execute the candidate fresh — repairing the prefix cache in
       passing — and only hand the learner a disagreement that
       reproduces; a spurious one costs a bounded re-run of the (mostly
       cached) suite. *)
    let refresh_word = handle.Cq_learner.Moracle.refresh in
    if retries = 0 then find_cex
    else fun h ->
      let rec verified budget =
        match find_cex h with
        | None -> None
        | Some w ->
            if refresh_word w <> Cq_automata.Mealy.run h w then Some w
            else if budget = 0 then None
            else verified (budget - 1)
      in
      verified retries
  in
  let finish ?validation (result : _ Cq_learner.Lstar.result) seconds =
    let v = Cq_util.Metrics.value in
    {
      machine = result.machine;
      states = Cq_automata.Mealy.n_states result.machine;
      seconds;
      rounds = result.rounds;
      suffixes = result.suffixes_added;
      member_queries = v mstats.Cq_learner.Moracle.queries;
      member_symbols = v mstats.Cq_learner.Moracle.symbols;
      cache_queries = v cache_stats.Cq_cache.Oracle.queries;
      cache_accesses = v cache_stats.Cq_cache.Oracle.block_accesses;
      cache_batches = v cache_stats.Cq_cache.Oracle.batches;
      accesses_saved = v cache_stats.Cq_cache.Oracle.accesses_saved;
      identified =
        (if identify then Cq_policy.Zoo.identify result.machine else []);
      quotient = result.Cq_learner.Lstar.quotient;
      timed_loads = v cache_stats.Cq_cache.Oracle.timed_loads - dev_loads0;
      vote_runs = v cache_stats.Cq_cache.Oracle.vote_runs - dev_votes0;
      transient_flips =
        v cache_stats.Cq_cache.Oracle.transient_flips
        + v mstats.Cq_learner.Moracle.conflicts;
      retry_attempts = v cache_stats.Cq_cache.Oracle.retry_attempts;
      validation;
      metrics = registry;
    }
  in
  match
    Cq_util.Clock.time (fun () ->
        Cq_util.Trace.with_span ~cat:"learn" "learn.run" @@ fun () ->
        let oracle = guarded cached_oracle in
        let find_cex = make_find_cex oracle in
        (* Equivalence queries are rare (one per hypothesis), so the span
           wrapper costs nothing measurable even when tracing is off. *)
        let find_cex h =
          Cq_util.Trace.with_span ~cat:"learn" "learn.equivalence" (fun () ->
              find_cex h)
        in
        (* Quotient mode hands the learner the line-relabeling action: the
           observation table merges states that are verified relabelings
           of each other and the hypothesis is the unfolding of the
           quotient machine — see Lstar/Quotient.  The published view
           focuses the conformance suite above on representative
           states. *)
        let qaction =
          if quotient && Polca.assoc polca >= 2 then
            Some (Cq_learner.Quotient.policy_action ~assoc:(Polca.assoc polca))
          else None
        in
        Cq_learner.Lstar.learn ~max_states ?seed_rows
          ~expose_table:(fun g -> table_getter := Some g)
          ~on_hypothesis:(fun h -> last_hypothesis := Some h)
          ?quotient:qaction
          ~on_quotient_view:(fun v -> qview := Some v)
          ~oracle ~find_cex ())
  with
  | result, seconds -> (
      (* Post-learning validation gate: model-check the learned machine
         against the policy axioms (hit consistency, reachability,
         minimality, line-permutation symmetry) before reporting success.
         Wp conformance against the producing oracle cannot catch a
         systematic measurement artefact; the axioms can. *)
      let validation =
        if validate && Cq_automata.Mealy.n_inputs result.machine >= 2 then
          let assoc = Cq_automata.Mealy.n_inputs result.machine - 1 in
          (* A quotient-learned machine carries the merge witness — state
             [s] behaves as state [s0] conjugated by a permutation — so
             the checker validates symmetry with anchored product walks
             instead of the brute-force relabeled-copy search. *)
          let symmetry_witness =
            match result.Cq_learner.Lstar.quotient with
            | Some st when st.Cq_learner.Quotient.witness <> [] ->
                Some st.Cq_learner.Quotient.witness
            | _ -> None
          in
          Some
            (Cq_analysis.Automaton_check.check ~registry ~assoc
               ?symmetry_witness result.machine)
        else None
      in
      match validation with
      | Some v when not (Cq_analysis.Automaton_check.ok v) ->
          let msg = Cq_analysis.Automaton_check.report_to_string v in
          (try write_snapshot () with _ -> ());
          Error
            ( Invalid_automaton msg,
              {
                failure = Invalid msg;
                hypothesis = Some result.machine;
                snapshot = !snapshot_path_written;
                member_queries = hw_queries ();
                seconds;
              } )
      | validation -> Ok (finish ?validation result seconds))
  | exception e -> (
      let seconds = Cq_util.Clock.mono () -. t0 in
      (* Preserve whatever was learned: the failure path writes a final
         snapshot, so a follow-up run resumes instead of starting over.
         A failing write must not mask the original failure. *)
      (try write_snapshot () with _ -> ());
      let failure =
        match e with
        | Cq_learner.Lstar.Diverged d -> Some (Diverged d)
        | Polca.Non_deterministic m ->
            (* Structured diagnosis: if the hypothesis the learner was
               working from already violates the policy axioms, the
               nondeterminism is structural (interference, a bad reset
               placement), not a transient measurement flip — say so. *)
            let diagnosis =
              match !last_hypothesis with
              | Some h when Cq_automata.Mealy.n_inputs h >= 2 -> (
                  let assoc = Cq_automata.Mealy.n_inputs h - 1 in
                  match Cq_analysis.Automaton_check.diagnose ~assoc h with
                  | Some d ->
                      "; current hypothesis already violates policy axioms \
                       (" ^ d ^ ")"
                  | None -> "")
              | _ -> ""
            in
            Some (Transient ("non-deterministic responses: " ^ m ^ diagnosis))
        | Cq_learner.Moracle.Inconsistent m ->
            Some (Transient ("non-deterministic responses: " ^ m))
        | Out_of_budget m -> Some (Budget_exhausted m)
        | _ -> None
      in
      match failure with
      | None -> raise e (* outside the taxonomy: a programming error *)
      | Some failure ->
          Error
            ( e,
              {
                failure;
                hypothesis = !last_hypothesis;
                snapshot = !snapshot_path_written;
                member_queries = hw_queries ();
                seconds;
              } ))

let run ?equivalence ?engine ?check_hits ?memoize ?max_states ?identify
    ?validate ?quotient ?retries ?on_retry ?device_stats ?metrics ?snapshot
    ?resume ?resumed ?snapshot_meta ?deadline ?query_budget ?probe cache =
  match
    learn_core ?equivalence ?engine ?check_hits ?memoize ?max_states ?identify
      ?validate ?quotient ?retries ?on_retry ?device_stats ?metrics ?snapshot
      ?resume ?resumed ?snapshot_meta ?deadline ?query_budget ?probe cache
  with
  | Ok report -> Complete report
  | Error (_, partial) -> Partial partial

(* Case study §6: learn a policy from a software-simulated cache. *)
let learn_simulated ?equivalence ?engine ?check_hits ?max_states ?identify
    ?validate ?quotient ?metrics ?snapshot ?resume ?deadline ?query_budget
    ?probe policy =
  match
    learn_core ?equivalence ?engine ?check_hits ?max_states ?identify
      ?validate ?quotient ?metrics ?snapshot ?resume ?deadline ?query_budget
      ?probe (Cq_cache.Oracle.of_policy policy)
  with
  | Ok report -> report
  | Error (e, _) -> raise e

(* Sanity check used in tests and experiments: the learned machine must be
   trace-equivalent to the (warm-started) ground-truth policy machine. *)
let verify_against report policy =
  Cq_automata.Mealy.equivalent report.machine (Cq_policy.Policy.to_mealy policy)
