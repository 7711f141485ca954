(** Case study §7: learning replacement policies from (simulated) hardware.

    One call drives the full Table 4 workflow for a cache set: backend
    construction, latency calibration, reset-sequence discovery, learning
    through Polca + L*, and identification against the policy zoo. *)

type outcome =
  | Learned of {
      report : Learn.report;
      reset : Cq_cachequery.Frontend.reset;
      threshold : int;
    }
  | Partial of {
      failure : Learn.failure;
      hypothesis : Cq_policy.Types.output Cq_automata.Mealy.t option;
          (** last hypothesis submitted to the equivalence oracle *)
      snapshot : string option;  (** resume from here to continue the run *)
      reset : Cq_cachequery.Frontend.reset option;
      member_queries : int;
      seconds : float;
    }
      (** The supervised run could not complete (diverged, out of budget,
          or an invalid automaton after every retry) but salvaged its
          progress. *)
  | Failed of { reason : string; reset : Cq_cachequery.Frontend.reset option }

type run = {
  cpu : string;
  level : Cq_hwsim.Cpu_model.level;
  slice : int;
  set : int;
  assoc : int;  (** effective associativity (CAT-reduced if requested) *)
  cat : bool;
  outcome : outcome;
  timed_loads : int;
      (** physical timed loads issued by the whole workflow (calibration,
          reset discovery, learning, vote re-measurements) *)
  recalibrations : int;  (** drift-triggered threshold recalibrations *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val learn_set :
  ?seed:int ->
  ?cat_ways:int ->
  ?slice:int ->
  ?set:int ->
  ?voting:Cq_cachequery.Frontend.voting ->
  ?retries:int ->
  ?equivalence:Learn.equivalence ->
  ?check_hits:bool ->
  ?max_states:int ->
  ?validate:bool ->
  ?quotient:bool ->
  ?reset_trials:int ->
  ?metrics:Cq_util.Metrics.t ->
  ?snapshot:Learn.snapshot_policy ->
  ?resume:string ->
  ?deadline:float ->
  ?query_budget:int ->
  ?probe:(int -> unit) ->
  Cq_hwsim.Machine.t ->
  Cq_hwsim.Cpu_model.level ->
  run
(** Learn the policy of one cache set.  [cat_ways] virtually reduces the L3
    associativity via Intel CAT (fails on CPUs without CAT support).
    Failure modes mirror the paper's: no deterministic reset sequence
    (nondeterministic sets), diverging observations, state budget
    exhausted.  [metrics] is one registry spanning the whole stack
    (backend, frontend, learning loop); default is a private registry
    reachable through the report's [metrics] field.

    [voting] (default [Fixed 1]) selects the frontend's majority voting
    discipline.  [retries] (default 3) bounds the retry loop around
    {!Polca.Non_deterministic}; on each retry the frontend memo is cleared
    (the corrupted answer may be memoized) and voting escalates to the
    next adaptive cap, so transiently flipped words are absorbed while
    structural nondeterminism still fails.  [check_hits] (default false,
    unlike {!Learn.run}'s) is {!Polca.create}'s: the probes of accesses
    that must hit only detect nondeterminism, and on a device each costs
    timed loads.

    [validate] (default false) model-checks the learned automaton against
    the policy axioms before accepting it (see {!Learn.run});
    a rejected automaton ([Invalid]) is retried like a [Transient]
    failure, with escalated voting — it was built from flipped
    measurements, which better voting can repair.

    Supervision: [deadline] (seconds) is one wall clock for the whole
    workflow — reset discovery and learning draw it down together —
    and [query_budget] bounds the hardware queries; either tripping turns
    the run into a [Partial] outcome instead of an open-ended hang.
    [snapshot] makes the session durable (see {!Learn.snapshot_policy});
    [resume] continues a crashed run from its snapshot, restoring the
    crashed run's PRNG seed and calibration state so the resumed run
    re-derives the same reset sequence, classifies latencies identically
    and produces the {e identical} automaton.  [probe] is called with the
    current hardware-query count before each top-level oracle call (see
    {!Learn.run}) — the service daemon's scheduling,
    cancellation and fault-injection hook.  A [Transient] or [Invalid]
    failure is retried up to twice with escalated voting, each attempt
    resuming from the latest snapshot; the other failure classes surface
    immediately as [Partial]. *)

val l3_leader_sets : ?slice:int -> Cq_hwsim.Cpu_model.t -> int list
(** The vulnerable-leader set indices of a CPU's L3 per the Appendix B
    formulas (the learnable L3 sets); empty for non-adaptive L3s. *)
