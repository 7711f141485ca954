(** Static security analysis of learned replacement-policy automata.

    The paper's security discussion (§10) and the follow-up literature
    (RELOAD+REFRESH; Cañones/Köpf/Reineke, "Security Analysis of Cache
    Replacement Policies") motivate exactly this pass: once the policy
    automaton is known, eviction strategies, stealthy hit/miss-controlling
    sequences and leakage bounds are {e derivable} rather than found by
    blind testing.

    {2 Setting}

    One cache set of associativity [a], governed by a learned Mealy
    machine over inputs [Ln(0) .. Ln(a-1), Evct] and outputs [⊥ / evicted
    line].  The analysis starts from the {e primed} configuration: a cold
    set filled with the attacker's blocks [0 .. a-1] (block [w] in way
    [w]), the automaton in the state those fills establish.  Every
    synthesized word is therefore directly replayable — and is replayed,
    by {!verify} and {!verify_hwsim} — as a concrete block trace whose
    hit/miss stream must match the prediction byte for byte.

    {2 Threat models}

    - {e Eviction} (PRIME+PROBE): the victim's block sits in line
      [target]; the attacker may touch its own resident lines and insert
      fresh blocks, but never accesses the victim's line.  {!shortest}
      minimizes first the number of fresh blocks (the eviction-set size),
      then the sequence length.
    - {e Stealth} (RELOAD+REFRESH): the victim's line is shared read-only
      memory, so the attacker {e may} access it (the reload); the
      constraint is that no insertion ever evicts it.  The analysis
      searches the product of the automaton with the
      target-line-resident flag for the shortest controlling word —
      preferring a {e repeatable} cycle (the automaton returns to the
      cycle's entry state, so the pattern sustains forever), falling
      back to a one-shot word for policies, like FIFO, that admit no
      refresh cycle.
    - {e Leakage}: a bounded attacker primes the set, the victim performs
      [v] conflicting accesses, the attacker probes its blocks once in
      order and observes only its own hits and misses.  The number of
      distinguishable probe vectors over [v = 0 .. a] gives the evicted
      information (bits); the collapsed levels are the absorbed noise.
      A partition-refinement fixpoint over the reachable states gives the
      unbounded-adversary ceiling ({!leakage.residual_information}). *)

type strategy = {
  word : int list;  (** over the flattened alphabet; [assoc] = Evct *)
  length : int;
  accesses : int;  (** [Ln] inputs: touches of resident attacker lines *)
  misses : int;  (** [Evct] inputs: fresh-block insertions *)
}

type eviction = {
  target : int;
  strategy : strategy;  (** its last input is the evicting [Evct] *)
}

type stealthy = {
  starget : int;  (** the protected (victim) line *)
  setup : int list;  (** primed state -> cycle entry; may be [[]] *)
  body : int list;
      (** >= 1 controlled miss and >= 1 reload of the target, never
          evicting it *)
  repeatable : bool;
      (** [body] returns the automaton to the cycle entry state, so it
          can run forever without ever evicting the target *)
}

type leakage = {
  probe_classes : int;
      (** distinct probe vectors over victim intensities [0 .. assoc] *)
  evicted_information : float;  (** [log2 probe_classes], bits *)
  absorbed_noise : int;
      (** [(assoc + 1) - probe_classes]: victim intensities the policy
          renders indistinguishable to the probing attacker *)
  reachable_states : int;  (** states reachable from the primed state *)
  observation_classes : int;
      (** partition-refinement fixpoint classes over reachable states *)
  residual_information : float;
      (** unbounded-adversary bits: log2 of the number of observation
          classes among the states one victim access can reach *)
}

type report = {
  name : string;
  assoc : int;
  states : int;
  evictions : eviction list;  (** one per evictable target line *)
  eviction_set_size : int;
      (** worst case over targets of [strategy.misses] — the number of
          distinct fresh blocks the attacker must provision *)
  eviction_length : int;  (** worst case over targets of [strategy.length] *)
  stealthies : stealthy list;  (** one per target admitting stealth *)
  stealthy : stealthy option;
      (** the headline: repeatable preferred, then shortest *)
  leakage : leakage;
}

val pp_strategy : assoc:int -> Format.formatter -> strategy -> unit

val shortest_eviction :
  Cq_policy.Types.output Cq_automata.Mealy.t -> target:int -> eviction option
(** Shortest eviction word for one target line under the PRIME+PROBE
    model (the attacker never touches the target), minimizing fresh
    blocks first, then length — Dijkstra from the primed state.  [None]
    when the policy never evicts that line without the attacker touching
    it. *)

val analyze :
  ?name:string -> Cq_policy.Types.output Cq_automata.Mealy.t -> report
(** Analyze a policy automaton (alphabet [Ln(0..a-1), Evct]).  Purely
    deterministic: equal machines yield equal reports.  Raises
    [Invalid_argument] on machines that emit ⊥ on [Evct] (no such
    machine passes the learner's hit-consistency check). *)

val analyze_policy : Cq_policy.Policy.t -> report
(** [analyze (Policy.to_mealy p)] with the policy's name. *)

(** {2 Dynamic validation} *)

type concrete = {
  blocks : int array;
      (** priming fills [0 .. assoc-1], then the strategy's accesses *)
  predicted : Bytes.t;  (** one byte per access, [1] = hit *)
}

val concretize :
  ?probe:[ `Evicted of int | `Resident of int ] ->
  Cq_policy.Types.output Cq_automata.Mealy.t ->
  int list ->
  concrete
(** Lower an input word to a block trace from a cold set: the priming
    fills, then [Ln(i)] becomes an access to way [i]'s current resident
    (a hit) and [Evct] an access to a fresh block (a miss).  [probe]
    appends one access to the target line's original block, predicted to
    miss (after an eviction) or hit (under stealth) — turning the
    semantic claim into one more byte the replay must reproduce. *)

val verify : Cq_policy.Policy.t -> report -> (unit, string) result
(** Replay every synthesized strategy of [report] through
    {!Cq_workload.Replay.policy}, {!Cq_workload.Replay.machine} and
    {!Cq_workload.Replay.compiled} (cold start, fills touching the
    policy) and compare each stream against the prediction byte for
    byte.  The error names the first diverging strategy. *)

val verify_hwsim : Cq_policy.Policy.t -> report -> (unit, string) result
(** As {!verify}, but the streams come from a quiet, prefetcher-less
    {!Cq_hwsim.Machine} replaying the concrete traces against a
    single-slice CPU model whose L1 runs the policy — the synthesized attacks must work on the simulated
    silicon, not just on the abstract automaton. *)

(** {2 Report rendering} *)

val report_json : report -> Cq_util.Json.t
val pp_report : Format.formatter -> report -> unit

val pp_table : Format.formatter -> report list -> unit
(** One row per report, ranked most-leaky first (evicted information
    descending, then eviction-set size ascending, then name). *)

val machine_of_dot :
  string -> (Cq_policy.Types.output Cq_automata.Mealy.t, string) result
(** Parse a policy automaton from the DOT text [polca --dot] emits
    (labels ["Ln(i)" / "Evct"] and ["_" / line index]). *)
