(** Equivalence oracles: conformance-testing approximations of the
    teacher's equivalence query (§3.3 of the paper).

    The Wp-method suite with depth [k] (the paper's, and the learner's
    default) and the W-method suite (kept for the suite ablation) are
    [(|H| + k)]-complete, yielding the guarantee of Theorem 3.3 /
    Corollary 3.4: if the suite passes, the system under learning is
    equivalent to the hypothesis or has more than [|H| + k] states. *)

type 'o t = 'o Cq_automata.Mealy.t -> int list option
(** An equivalence oracle maps a hypothesis to a counterexample word, or
    [None] when no disagreement is found.

    The suite-based oracles ({!w_method}, {!wp_method}, {!wp_quotient})
    query their suite one word at a time, in order, up to the first
    counterexample, and announce it to the oracle in chunks first
    ({!Moracle.t.prefetch}): 16 words, doubling with every passing chunk
    up to 1024.  The queries are those of a plain word-by-word walk; the
    chunks only let the system measure ahead. *)

val characterization_set : 'o Cq_automata.Mealy.t -> int list list
(** A set of input words separating every pair of states of a minimal
    machine.  On a non-minimal machine, pairs of equivalent states are
    left unseparated. *)

val words_up_to : int -> int -> int list Seq.t
(** [words_up_to n_inputs k]: all input words of length [<= k], shortest
    first (including the empty word), as a lazy (re-traversable)
    sequence — the O(n_inputs^k) middle layer of a test suite is never
    materialised. *)

val w_method_suite : depth:int -> 'o Cq_automata.Mealy.t -> int list Seq.t
(** The (|H|+depth)-complete test suite, lazily. *)

val w_method : ?depth:int -> 'o Moracle.t -> 'o t
(** Conformance testing with the W-method; [depth] defaults to 1 (the
    paper's k). *)

val identification_sets :
  'o Cq_automata.Mealy.t -> int list list -> int list list array
(** Per-state identification sets: for each state, a subset of the given
    characterization set distinguishing it from every other state. *)

val wp_method_suite : depth:int -> 'o Cq_automata.Mealy.t -> int list Seq.t
(** The Wp-method suite [Fujiwara et al. 1991] — the suite the paper's
    implementation uses; same (|H|+depth)-completeness as the W-method
    with (usually far) fewer symbols. *)

val wp_method : ?depth:int -> 'o Moracle.t -> 'o t

val wp_quotient :
  ?depth:int -> is_rep:(int -> bool) -> sweep:int list -> 'o Moracle.t -> 'o t
(** Conformance testing of a quotient-learned hypothesis: the Wp suite
    focused on the representative states ([is_rep]), with [sweep] first
    among the distinguishers and a [sweep] spot check of every aliased
    state (of a 1-in-4 sample of them once full spots would exceed 8192
    words).  While [|H| * n_inputs <= 512] the full {!wp_method_suite}
    runs after it. *)

val suite_symbols : int list Seq.t -> int
(** Total input symbols in a suite (the W-vs-Wp ablation metric). *)

val perfect : 'o Cq_automata.Mealy.t -> 'o t
(** Exact equivalence against a known ground truth (tests/ablations). *)
