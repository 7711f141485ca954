(** A model checker for learned replacement-policy automata.

    A machine claiming to be a replacement policy over associativity [n]
    (Definition 2.1) must satisfy structural axioms that Wp-conformance
    against the producing oracle cannot establish on its own:

    - {b alphabet}: exactly [n + 1] inputs ([Ln(0) .. Ln(n-1), Evct]);
    - {b hit consistency}: a line access never evicts (output [None] on
      every [Ln(i)]), and [Evct] always evicts a valid line (output
      [Some l] with [0 <= l < n]);
    - {b reachability}: every state is reachable from the initial state;
    - {b minimality}: no two states are trace-equivalent;
    - {b symmetry}: the policy does not hard-wire line roles.  Checked in
      two tiers.  {e Strict}: conjugating by each adjacent transposition
      [(i, i+1)] of line indices yields a machine trace-equivalent to the
      original from {e some} control state (the transposition generators
      suffice: conjugation is a group homomorphism) — LRU, MRU, LIP and
      the RRIP family are strict.  Some genuinely symmetric policies fail
      the strict test because their learned component bakes in the line
      ordering the reset established: FIFO's round-robin pointer and
      PLRU's tree pairing have conjugates that are the {e same policy
      under a different reset ordering} but overlap no state of the
      learned machine.  {e Up to reset order}: for those, the sound
      necessary condition is that every line is evicted in some reachable
      state; a machine with a permanently resident line (e.g. a
      constant-victim automaton) fails it under every reset ordering and
      is reported [Asymmetric].

    Every policy in the zoo satisfies all five; a learned automaton that
    does not was corrupted by noise, a bad reset sequence, or interference
    (the class of failures §6.3 of the paper diagnoses by hand). *)

type violation =
  | Bad_alphabet of { n_inputs : int; expected : int }
  | Line_evicts of { state : int; line : int; evicted : int }
      (** A hit on [Ln(line)] in [state] reports an eviction. *)
  | Evct_no_eviction of { state : int }
      (** [Evct] in [state] outputs [None]. *)
  | Evct_out_of_range of { state : int; line : int }
      (** [Evct] in [state] evicts a line index [>= assoc]. *)
  | Unreachable of { states : int }
      (** [states] states are unreachable from the initial state. *)
  | Not_minimal of { states : int; minimal : int }
      (** The machine has [states] states but is trace-equivalent to one
          with [minimal < states]. *)
  | Asymmetric of { line : int }
      (** No reachable state ever evicts [line]: the machine privileges a
          subset of the lines in a way no reset ordering can explain. *)

(** Outcome of the symmetry pass (see the module comment). *)
type symmetry_level =
  | Strict  (** every adjacent-transposition conjugate matches *)
  | Up_to_reset_order
      (** strict conjugation fails, but every line is evicted in some
          reachable state (FIFO, PLRU) *)
  | Broken  (** some line is never evicted; [Asymmetric] is reported *)
  | Not_checked
      (** pass skipped: disabled, [assoc < 2], or more than
          [max_symmetry_states] states *)

type report = {
  assoc : int;
  states : int;
  symmetry : symmetry_level;
  violations : violation list;
}

val ok : report -> bool

val symmetry_checked : report -> bool
(** Whether the symmetry pass ran ([symmetry <> Not_checked]).  It is
    skipped above [max_symmetry_states] (the some-start-state equivalence
    search is cubic in states). *)

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

val check :
  ?symmetry:bool ->
  ?max_symmetry_states:int ->
  ?symmetry_witness:(int * int * int list) list ->
  ?registry:Cq_util.Metrics.t ->
  assoc:int ->
  Cq_policy.Types.output Cq_automata.Mealy.t ->
  report
(** [check ~assoc m] runs every axiom check.  [?symmetry] (default [true])
    and [?max_symmetry_states] (default [512]) bound the symmetry pass;
    when it is skipped, the report carries [symmetry = Not_checked].

    [?symmetry_witness] is the merge witness of a quotient-learned
    machine (see {!Cq_learner.Quotient.stats}): each [(s, s0, perm)]
    triple claims state [s] behaves as state [s0] conjugated by [perm]
    (a line permutation, length [assoc]).  Each triple is re-validated
    with one anchored product walk against the [perm]-relabeled machine
    — O(states * inputs) instead of the cubic some-start-state search —
    so internal symmetry stays checkable past [max_symmetry_states],
    where the evictability scan then supplies the tier verdict (below
    the bound the full brute-force tiers still run, the walks are
    cheap).  A failing triple discards the witness and falls back to the
    brute-force tiers; at most 64 triples are checked.

    A wrong alphabet short-circuits the per-state checks (they would be
    meaningless), so a [Bad_alphabet] report carries that violation
    alone. *)

val diagnose :
  assoc:int -> Cq_policy.Types.output Cq_automata.Mealy.t -> string option
(** A one-line structural diagnosis of a hypothesis automaton, or [None]
    when it passes every axiom.  Used to annotate
    [Polca.Non_deterministic] failures: if the current hypothesis already
    violates policy axioms, the nondeterminism is structural (bad reset
    placement, interference), not transient noise. *)
