(* Case study §7: learning replacement policies from (simulated) hardware.

   This driver reproduces the Table 4 workflow for one cache set:
   build a CacheQuery backend on the target set, calibrate the latency
   threshold, discover a reset sequence, learn through Polca + L*, and
   identify the resulting automaton against the policy zoo. *)

type outcome =
  | Learned of {
      report : Learn.report;
      reset : Cq_cachequery.Frontend.reset;
      threshold : int;
    }
  | Partial of {
      failure : Learn.failure;
      hypothesis : Cq_policy.Types.output Cq_automata.Mealy.t option;
      snapshot : string option;
      reset : Cq_cachequery.Frontend.reset option;
      member_queries : int;
      seconds : float;
    }
  | Failed of { reason : string; reset : Cq_cachequery.Frontend.reset option }

type run = {
  cpu : string;
  level : Cq_hwsim.Cpu_model.level;
  slice : int;
  set : int;
  assoc : int; (* effective associativity (CAT-reduced if requested) *)
  cat : bool;
  outcome : outcome;
  timed_loads : int; (* physical timed loads issued by the whole workflow *)
  recalibrations : int; (* drift-triggered threshold recalibrations *)
}

let pp_outcome ppf = function
  | Learned { report; reset; threshold } ->
      Fmt.pf ppf "learned %d states (reset %s, threshold %dc): %s" report.Learn.states
        (Cq_cachequery.Frontend.reset_to_string reset)
        threshold
        (match report.Learn.identified with
        | [] -> "previously undocumented policy"
        | l -> String.concat ", " l)
  | Partial { failure; hypothesis; snapshot; _ } ->
      Fmt.pf ppf "partial (%a)" Learn.pp_failure failure;
      (match hypothesis with
      | Some h ->
          Fmt.pf ppf ", last hypothesis: %d states" (Cq_automata.Mealy.n_states h)
      | None -> ());
      (match snapshot with
      | Some p -> Fmt.pf ppf ", resume from %s" p
      | None -> ())
  | Failed { reason; _ } -> Fmt.pf ppf "failed: %s" reason

(* Voting escalation used by the retry backoff: once a flip slipped
   through the current voting setting, raise the cap (sticky — the
   environment has proven noisier than assumed).  Escalates into adaptive
   voting so the extra repetitions are only paid for disputed accesses. *)
let escalate_voting = function
  | Cq_cachequery.Frontend.Fixed 1 -> Cq_cachequery.Frontend.Adaptive { max = 3 }
  | Cq_cachequery.Frontend.Fixed n ->
      Cq_cachequery.Frontend.Adaptive { max = min 15 (n + 2) }
  | Cq_cachequery.Frontend.Adaptive { max } ->
      Cq_cachequery.Frontend.Adaptive { max = min 15 (max + 2) }

(* Fresh attempts the supervisor grants a learn that failed [Transient] or
   [Invalid]. *)
let supervise_retries = 2

let learn_set ?(seed = 42) ?cat_ways ?(slice = 0) ?(set = 0) ?voting
    ?(retries = 3) ?equivalence ?(check_hits = false) ?(max_states = 100_000)
    ?validate ?quotient ?(reset_trials = 24) ?metrics ?snapshot ?resume ?deadline
    ?query_budget ?probe machine level =
  Cq_util.Trace.with_span ~cat:"hardware" "hardware.learn_set" @@ fun () ->
  (* One registry spans the whole stack: backend, frontend and the
     learning loop all register their series here, so the "backend." /
     "frontend." device counters land next to "oracle." / "member." /
     "learn." in a single export. *)
  let metrics =
    match metrics with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let model = Cq_hwsim.Machine.model machine in
  (match cat_ways with
  | Some ways -> Cq_hwsim.Machine.set_cat_ways machine ways
  | None -> ());
  (* Resuming?  Load the snapshot up front, once: the crashed run's PRNG
     seed must drive reset discovery again (same candidate order, same
     validation traces → same reset sequence), its calibration state
     replaces a fresh measurement (same latency classification), and the
     learner preloads its trie from the same loaded value. *)
  let resumed = Option.map (Learn.load_resume ~metrics) resume in
  let resumed_meta = Option.map (fun snap -> snap.Session.meta) resumed in
  let seed =
    match resumed_meta with
    | Some { Session.seed = Some s; _ } -> s
    | _ -> seed
  in
  let backend =
    Cq_cachequery.Backend.create ~metrics machine
      { Cq_cachequery.Backend.level; slice; set }
  in
  let threshold =
    match resumed_meta with
    | Some { Session.calibration = Some cal; _ } ->
        Cq_cachequery.Backend.restore_calibration backend cal;
        cal.Cq_cachequery.Backend.cal_threshold
    | _ ->
        let t, _, _ = Cq_cachequery.Backend.calibrate backend in
        t
  in
  let frontend =
    Cq_cachequery.Frontend.create ?voting ~metrics backend
  in
  let assoc = Cq_cachequery.Frontend.assoc frontend in
  let prng = Cq_util.Prng.of_int seed in
  (* One wall clock for the whole workflow: reset discovery and learning
     draw down the same deadline (Cq_util.Clock), mirroring the synthesis
     search's budget handling. *)
  let dl = Cq_util.Clock.deadline_of deadline in
  (* Retry backoff: the answer that raised Non_deterministic may sit
     corrupted in the frontend memo, where a plain re-run would just read
     it back — drop the memo, and escalate voting so the re-run is also
     less likely to flip again. *)
  let on_retry _k =
    Cq_cachequery.Frontend.clear_memo frontend;
    Cq_cachequery.Frontend.set_voting frontend
      (escalate_voting (Cq_cachequery.Frontend.voting frontend))
  in
  let label =
    Printf.sprintf "%s %s slice %d set %d" model.Cq_hwsim.Cpu_model.name
      (Cq_hwsim.Cpu_model.level_to_string level) slice set
  in
  let snapshot_meta () =
    Session.make_meta ~label ~seed
      ~calibration:(Cq_cachequery.Backend.calibration backend)
      ~queries:0 ()
  in
  let outcome =
    match
      Cq_util.Trace.with_span ~cat:"hardware" "hardware.reset_discovery"
        (fun () -> Reset.find ~trials:reset_trials ~deadline:dl ~prng frontend)
    with
    | None when Cq_util.Clock.expired dl ->
        Partial
          {
            failure =
              Learn.Budget_exhausted
                "wall-clock deadline exceeded during reset discovery";
            hypothesis = None;
            snapshot = None;
            reset = None;
            member_queries = 0;
            seconds = 0.;
          }
    | None ->
        Failed
          {
            reason =
              "no deterministic reset sequence found (non-deterministic set \
               behaviour)";
            reset = None;
          }
    | Some reset ->
        let oracle = Cq_cachequery.Frontend.oracle frontend in
        (* Supervisor: run the learner; a [Transient] failure (a noise
           flip that survived voting and retries) gets a bounded number of
           fresh attempts with escalated voting, each resuming from the
           latest snapshot so already-paid queries are not re-measured.
           The other failure classes are structural — retrying verbatim
           cannot help — and surface as a [Partial] report carrying the
           last hypothesis and the snapshot path. *)
        let finish_partial (p : Learn.partial) =
          match p.Learn.failure with
          | Learn.Transient reason -> Failed { reason; reset = Some reset }
          | failure ->
              Partial
                {
                  failure;
                  hypothesis = p.Learn.hypothesis;
                  snapshot = p.Learn.snapshot;
                  reset = Some reset;
                  member_queries = p.Learn.member_queries;
                  seconds = p.Learn.seconds;
                }
        in
        (* The retry state threads the resume snapshot forward: each
           attempt restarts from the latest snapshot so already-paid
           hardware queries are not re-measured — the first from the one
           loaded above, a retry from the path its failed attempt wrote.
           [Backoff.immediate] keeps the loop structure without sleeping
           — the backend is local, waiting buys nothing. *)
        let supervised =
          Cq_util.Backoff.retry ~policy:Cq_util.Backoff.immediate
            ~attempts:(supervise_retries + 1) ~init:(None, None)
            (fun ~attempt:_ (resume, _) ->
              let resumed = if resume = None then resumed else None in
              match
                Learn.run ?equivalence ~check_hits ~memoize:false ~max_states
                  ?validate ?quotient ~retries ~on_retry
                  ~device_stats:(Cq_cachequery.Frontend.stats frontend)
                  ~metrics ?snapshot ?resume ?resumed ~snapshot_meta
                  ~deadline:dl ?query_budget ?probe oracle
              with
              | Learn.Complete report ->
                  `Done (Learned { report; reset; threshold })
              | Learn.Partial p -> (
                  match p.Learn.failure with
                  (* [Invalid] retries like [Transient]: an automaton that
                     violates the policy axioms was built from flipped
                     measurements, and escalated voting can repair it.
                     The other classes are structural — retrying verbatim
                     cannot help. *)
                  | Learn.Transient _ | Learn.Invalid _ ->
                      on_retry 0;
                      let resume =
                        match p.Learn.snapshot with
                        | Some _ as s -> s
                        | None -> resume
                      in
                      `Retry (resume, Some p)
                  | _ -> `Done (finish_partial p)))
        in
        (match supervised with
        | Ok outcome -> outcome
        | Error (_, Some p) -> finish_partial p
        | Error (_, None) ->
            (* unreachable: `Retry always carries the partial *)
            Failed { reason = "supervisor retried nothing"; reset = Some reset })
  in
  {
    cpu = model.Cq_hwsim.Cpu_model.name;
    level;
    slice;
    set;
    assoc;
    cat = cat_ways <> None;
    outcome;
    timed_loads = Cq_cachequery.Backend.timed_loads backend;
    recalibrations = Cq_cachequery.Backend.recalibrations backend;
  }

(* Leader-A sets of a CPU's L3 (the learnable ones), per the Appendix B
   index formulas baked into the CPU model. *)
let l3_leader_sets ?(slice = 0) model =
  let spec = model.Cq_hwsim.Cpu_model.l3 in
  match spec.Cq_hwsim.Cpu_model.policy with
  | Cq_hwsim.Cpu_model.Fixed _ -> []
  | Cq_hwsim.Cpu_model.Adaptive { leader_a; _ } ->
      List.filter
        (fun set -> leader_a ~slice ~set)
        (List.init spec.Cq_hwsim.Cpu_model.sets_per_slice (fun i -> i))
