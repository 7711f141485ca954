(** Active learning of Mealy machines: L* (Angluin/Niese) with
    Rivest–Schapire counterexample processing — the role LearnLib plays in
    the paper (§3.1/§3.4). *)

type 'o result = {
  machine : 'o Cq_automata.Mealy.t;
  rounds : int;  (** equivalence queries issued *)
  suffixes_added : int;  (** distinguishing suffixes added to E *)
  quotient : Quotient.stats option;
      (** merge statistics and symmetry witness when the learn ran in
          quotient mode (see [quotient] below) *)
}

type quotient_view = { is_rep_state : bool array }
(** The quotient decomposition of the current hypothesis, published via
    [on_quotient_view]: representative states deserve the full
    conformance suite, aliased states a spot-check — their behavior is
    by construction the verified image of their representative's. *)

type divergence = {
  reason : string;
  states : int;  (** representatives discovered when learning gave up *)
  queries : int;  (** membership queries this learn issued *)
  elapsed : float;  (** seconds since the learn started *)
}
(** What the learner had achieved when the table failed to stabilise —
    enough for a supervisor to decide between "retry with a bigger budget"
    and "give up". *)

exception Diverged of divergence
(** The observation table could not be stabilised: the system under
    learning is nondeterministic, the equivalence oracle returned a
    spurious counterexample, or the state budget was exhausted. *)

val pp_divergence : Format.formatter -> divergence -> unit

type 'o table_state = {
  suffixes : int list list;  (** E, in insertion order *)
  reps : int list array;  (** S: one access word per discovered state *)
  rows : (int list * 'o list list) list;  (** cached observation rows *)
}
(** A serializable view of the observation table, for session snapshots.
    On resume, [rows] re-seed the learner's row cache via [seed_rows] —
    rows are a pure function of the oracle, so seeding never changes what
    is learned, it only skips recomputation. *)

val learn :
  ?max_states:int ->
  ?expose_table:((unit -> 'o table_state) -> unit) ->
  ?seed_rows:(int list * 'o list list) list ->
  ?on_hypothesis:('o Cq_automata.Mealy.t -> unit) ->
  ?quotient:'o Quotient.action ->
  ?on_quotient_view:(quotient_view -> unit) ->
  oracle:'o Moracle.t ->
  find_cex:('o Cq_automata.Mealy.t -> int list option) ->
  unit ->
  'o result
(** Learn the machine behind [oracle].  [find_cex] is the equivalence
    oracle (e.g. {!Equivalence.wp_method}); learning terminates when it
    returns [None].  [max_states] (default 1,000,000) bounds the number of
    discovered states.  The missing cells of each closure
    wave are requested through [oracle.query_batch], so the layers below
    can prefix-share the induced traces.

    [expose_table] is called once, early, with a getter that returns a
    consistent copy of the live observation table — the session layer
    captures it for snapshots.  [seed_rows] pre-populates the row cache
    from a snapshot (rows longer than the current E are truncated).
    [on_hypothesis] observes every intermediate hypothesis before it is
    submitted to the equivalence oracle — supervisors keep the latest one
    for [Partial] reports.

    [quotient] switches the table to symmetry-quotient mode: the
    signature suffix ([Quotient.sweep]) is appended to the initial E, a
    one-step extension whose row is a verified relabeling of an existing
    representative's row becomes an alias edge instead of a new
    representative (collapsing the up-to-[assoc!] symmetric copies of
    each state into one), and each hypothesis is the unfolding of the
    permutation-labeled quotient machine.  Merges are re-derived whenever
    E grows and arbitrated by conformance testing.  [on_quotient_view]
    observes the rep/alias decomposition of each hypothesis so the
    conformance layer can focus its suite on representative states. *)
