(** The end-to-end learning loop (§3.4 of the paper): Polca as membership
    oracle, L* as learner, Wp-method conformance testing as equivalence
    oracle.

    Two entry points: {!run} learns from any cache oracle and returns an
    {!outcome}; {!learn_simulated} learns from a software-simulated policy
    and raises on failure.

    Corollary 3.4 holds by construction: if learning a cache C(P, cc0, n)
    returns P', then ⟦P⟧ = ⟦P'⟧ or P has more than |P'| + k states. *)

type equivalence =
  | W_method of int  (** conformance-suite depth k *)
  | Wp_method of int  (** Wp-method, depth k: same guarantee, smaller suite *)
  | Random_walk of { max_tests : int; max_len : int; seed : int }

type engine =
  | Sequential
      (** one query at a time, reset-and-replay, short-circuit findEvicted
          — the baseline of the engine benchmark *)
  | Batched
      (** closure waves and findEvicted fan-outs reach the cache as
          prefix-shared batches (the default) *)

type snapshot_policy = {
  path : string;
      (** snapshot file: a base written atomically, then appended log
          records (see {!Session}) *)
  every_queries : int;  (** write after this many new hardware queries *)
  every_seconds : float;  (** ... or after this much wall clock *)
  spill : string option;
      (** fallback path tried when writing [path] fails typed — a
          different filesystem keeps snapshots flowing through a
          full/failing state dir; it always receives a full base *)
  on_degraded : (string -> unit) option;
      (** observer called with a diagnostic whenever a snapshot write
          fails typed (before the spill is tried): a snapshot failure
          degrades the session, it never kills the learn *)
}
(** Snapshot cadence for durable sessions: a write happens whenever either
    trigger trips, always between top-level oracle queries (when the
    prefix trie is consistent). *)

val snapshot_policy :
  ?every_queries:int ->
  ?every_seconds:float ->
  ?spill:string ->
  ?on_degraded:(string -> unit) ->
  string ->
  snapshot_policy
(** [snapshot_policy path] with defaults [every_queries = 500],
    [every_seconds = 30.], no spill, no observer. *)

type failure =
  | Transient of string
      (** noise-induced ({!Polca.Non_deterministic} /
          {!Cq_learner.Moracle.Inconsistent}); a retry with escalated
          voting can succeed *)
  | Diverged of Cq_learner.Lstar.divergence
      (** the observation table never stabilised *)
  | Budget_exhausted of string
      (** the wall-clock deadline or the query budget tripped *)
  | Invalid of string
      (** the learned automaton violates the policy axioms — the
          [~validate] model-checker gate rejected it; like [Transient],
          a retry with escalated voting can succeed *)

val pp_failure : Format.formatter -> failure -> unit

val failure_exit_code : failure -> int
(** Distinct non-zero exit codes for scripted campaigns:
    [Transient] → 10, [Diverged] → 11, [Budget_exhausted] → 12,
    [Invalid] → 14.  13 belonged to a retired failure class and is not
    reused. *)

exception Out_of_budget of string
(** Raised (from inside the oracle stack) when the deadline or query
    budget trips; {!run} classifies it as [Budget_exhausted]. *)

exception Invalid_automaton of string
(** Raised by the post-learning validation gate ([~validate]) when the
    learned machine violates the policy axioms
    (see {!Cq_analysis.Automaton_check}); {!run} classifies it as
    [Invalid]. *)

type report = {
  machine : Cq_policy.Types.output Cq_automata.Mealy.t;
  states : int;
  seconds : float;
  rounds : int;
  suffixes : int;
  member_queries : int;
  member_symbols : int;
  cache_queries : int;
  cache_accesses : int;  (** logical block accesses (pre prefix-sharing) *)
  cache_batches : int;  (** query batches reaching the cache oracle *)
  accesses_saved : int;  (** block accesses avoided by prefix sharing *)
  identified : string list;
      (** known policies trace-equivalent to the result (up to reset state
          and line permutation) *)
  quotient : Cq_learner.Quotient.stats option;
      (** symmetry-quotient merge statistics — representative/state
          counts (the collapse factor), alias edges, verification
          queries, and the merge witness — when [~quotient] was set;
          [None] when quotient learning was off *)
  timed_loads : int;
      (** physical timed loads including vote re-measurements: the delta
          of the device's load counter over the learn (0 for software
          oracles without a [device_stats] record) *)
  vote_runs : int;  (** extra executions spent on majority voting *)
  transient_flips : int;
      (** [Polca.Non_deterministic] words absorbed by the retry layer *)
  retry_attempts : int;  (** word re-executions the retry layer issued *)
  validation : Cq_analysis.Automaton_check.report option;
      (** the post-learning model-checker verdict when [~validate] ran
          (always a passing report here — violations abort the run with
          {!Invalid_automaton} / [Invalid]); [None] otherwise *)
  metrics : Cq_util.Metrics.t;
      (** the run's full metrics registry ("oracle.", "member.", "learn."
          series; plus the device layer's "frontend." /
          "backend." series when the caller shared one registry across
          the stack).  The scalar fields above are views over it, frozen
          at completion. *)
}

val pp_report : Format.formatter -> report -> unit

type partial = {
  failure : failure;
  hypothesis : Cq_policy.Types.output Cq_automata.Mealy.t option;
      (** the last hypothesis submitted to the equivalence oracle *)
  snapshot : string option;
      (** path of the snapshot written on the way down, if any — a
          follow-up run resumes from it instead of starting over *)
  member_queries : int;  (** hardware queries spent before failing *)
  seconds : float;
}
(** What a supervised run salvaged when it could not complete. *)

type outcome = Complete of report | Partial of partial

val load_resume :
  metrics:Cq_util.Metrics.t -> string -> Cq_policy.Types.output Session.snapshot
(** {!Session.load} under the ["learn.resume.load"] span, its time
    observed in [metrics]' ["learn.snapshot_replay_seconds"] — how a
    learn reads its [resume] snapshot.  @raise Session.Corrupt *)

val run :
  ?equivalence:equivalence ->
  ?engine:engine ->
  ?check_hits:bool ->
  ?memoize:bool ->
  ?max_states:int ->
  ?identify:bool ->
  ?validate:bool ->
  ?quotient:bool ->
  ?retries:int ->
  ?on_retry:(int -> unit) ->
  ?device_stats:Cq_cache.Oracle.stats ->
  ?metrics:Cq_util.Metrics.t ->
  ?snapshot:snapshot_policy ->
  ?resume:string ->
  ?resumed:Cq_policy.Types.output Session.snapshot ->
  ?snapshot_meta:(unit -> Session.meta) ->
  ?deadline:Cq_util.Clock.deadline ->
  ?query_budget:int ->
  ?probe:(int -> unit) ->
  Cq_cache.Oracle.t ->
  outcome
(** Learn the replacement policy behind a cache oracle.  Failures in the
    taxonomy come back as [Partial] (with the last hypothesis and the
    failure-time snapshot); exceptions outside it — programming errors,
    a corrupt [resume] file ({!Session.Corrupt}) — still raise.

    [equivalence] defaults to [Wp_method 1], the paper's configuration
    (§3.4).  [check_hits] (default true) is {!Polca.create}'s.  [memoize]
    (default true) interposes a query memo — disable it when the oracle
    already memoizes (the CacheQuery frontend does).  [engine] selects the
    query engine (default {!Batched}).

    [validate] (default false) model-checks the learned machine against
    the policy axioms ({!Cq_analysis.Automaton_check}: hit consistency,
    reachability, minimality, line-permutation symmetry) before reporting
    success — Wp conformance against the producing oracle cannot catch a
    systematic measurement artefact, the axioms can.  A violation ends the
    run as [Invalid]; the passing verdict lands in [report.validation].

    [quotient] (default false) switches the learner to symmetry-quotient
    mode ({!Cq_learner.Quotient}, {!Cq_learner.Lstar.learn}'s [quotient]
    parameter): the observation table merges states whose rows are
    verified line-relabelings of an existing representative's —
    collapsing the up-to-assoc! symmetric copies of each state into one.
    On a cache of associativity 2 or more, quotient conformance is always
    the focused Wp suite ({!Cq_learner.Equivalence.wp_quotient}: full
    phases on representative states, frame spot-checks on aliased ones),
    at the depth of [W_method] or [Wp_method] alike.  When [validate] also
    runs, the merge witness is passed to the model checker, which
    re-validates each surviving merge with an anchored product walk (see
    {!Cq_analysis.Automaton_check.check}).

    [retries] / [on_retry] plumb the bounded {!Polca.Non_deterministic}
    retry layer (see {!Polca.create}).  [device_stats] is the device
    layer's own stats record (e.g. {!Cq_cachequery.Frontend.stats}), whose
    timed-load / vote counters bypass the learning-side wrappers; their
    deltas over the run are the report's [timed_loads] / [vote_runs].

    Durability: [snapshot] writes the session state ({!Session.snapshot})
    to disk on the given cadence, and once more on any failure.  A run's
    first write is a full base ({!Session.save}); later ticks append the
    answers learned since ({!Session.append}), and the base is rewritten
    whenever the log has outgrown it or a write failed.  The
    ["learn.snapshot_bases"] / ["learn.snapshot_appends"] counters of the
    registry count the two kinds of successful write;
    ["learn.snapshot_write_seconds"] times every write and
    ["learn.snapshot_export_seconds"] every trie export behind a base.
    [resume] preloads the prefix trie and observation table from a
    snapshot, after which the learner replays deterministically —
    previously answered queries cost nothing and the final automaton is
    identical to a crash-free run's.  [resumed] is a snapshot the caller
    already loaded (e.g. to read its metadata); it takes the place of
    reading [resume] again.  [snapshot_meta] supplies the run metadata
    embedded in each snapshot (label, seed, calibration); [deadline] and
    [query_budget] bound the run ([Budget_exhausted] past the limit;
    budgeted queries are the {e hardware} queries, so a resumed replay is
    free).  [probe] is called with the current hardware-query count
    before each top-level oracle call — fault-injection hooks (tests, the
    recovery benchmark) raise from it to simulate a crash. *)

val learn_simulated :
  ?equivalence:equivalence ->
  ?engine:engine ->
  ?check_hits:bool ->
  ?max_states:int ->
  ?identify:bool ->
  ?validate:bool ->
  ?quotient:bool ->
  ?metrics:Cq_util.Metrics.t ->
  ?snapshot:snapshot_policy ->
  ?resume:string ->
  ?deadline:Cq_util.Clock.deadline ->
  ?query_budget:int ->
  ?probe:(int -> unit) ->
  Cq_policy.Policy.t ->
  report
(** Case study §6: learn a policy from a software-simulated cache, as
    {!run} over [Cq_cache.Oracle.of_policy policy], but a failure raises
    the exception behind it: {!Cq_learner.Lstar.Diverged},
    {!Polca.Non_deterministic}, {!Cq_learner.Moracle.Inconsistent},
    {!Out_of_budget} or {!Invalid_automaton}. *)

val verify_against : report -> Cq_policy.Policy.t -> bool
(** Is the learned machine trace-equivalent to the policy's ground truth? *)
