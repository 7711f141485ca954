(** Deterministic Mealy machines over a dense integer input alphabet.

    Replacement policies (Definition 2.1 in the paper) are Mealy machines
    with inputs [{Ln(0), ..., Ln(n-1), Evct}]; the automata produced by the
    learner and consumed by the synthesiser all use this representation.
    States and inputs are integers ([0 ..]); outputs are polymorphic. *)

type 'o t

val make :
  init:int -> n_inputs:int -> next:int array array -> out:'o array array -> 'o t
(** [make ~init ~n_inputs ~next ~out] builds a machine from explicit tables.
    Raises [Invalid_argument] on malformed tables. *)

val n_states : 'o t -> int
val n_inputs : 'o t -> int
val init : 'o t -> int

val step : 'o t -> int -> int -> int * 'o
(** [step t s i] is the successor state and output for input [i] in state
    [s]. Raises [Invalid_argument] when [i] is out of range. *)

val next_state : 'o t -> int -> int -> int
val output : 'o t -> int -> int -> 'o

val run : 'o t -> int list -> 'o list
(** Output word for an input word from the initial state. *)

val run_from : 'o t -> int -> int list -> 'o list
val state_after : 'o t -> int list -> int

(** {2 Compiled evaluation}

    Conformance testing evaluates one fixed hypothesis on millions of
    words.  [compile] flattens the transition/output tables into
    preallocated one-dimensional vectors ([Bytes] when every state id fits
    a byte) built once per hypothesis; the walkers below are
    allocation-free on the agree/reject paths.  Conformance testing runs
    {!agrees}; the learner's counterexample processing runs
    {!first_disagreement}, {!compiled_state_after} and {!agrees_from}.
    The pre-encoded {!agrees_trace} is for callers that evaluate one
    recorded trace many times; today only [bench -- assoc] calls it. *)

type 'o compiled

val compile : 'o t -> 'o compiled

val compiled_n_states : 'o compiled -> int
val compiled_n_inputs : 'o compiled -> int

val agrees : 'o compiled -> int list -> 'o list -> bool
(** [agrees c word expected] is [run c word = expected], evaluated without
    allocating and stopping at the first mismatch. *)

val agrees_from : 'o compiled -> int -> int list -> 'o list -> bool
(** [agrees_from c s word expected] is [agrees] started in state [s]. *)

type trace
(** A fully pre-encoded (word, expected outputs) pair: the word packed
    into a range-checked int array, the outputs into dictionary codes
    (outputs the machine can never emit fail every comparison).  Build
    once per recorded trace with {!encode_trace}; each {!agrees_trace}
    evaluation is then a pure int-array walk with int comparisons only. *)

val encode_trace : 'o compiled -> int list -> 'o list -> trace
(** [encode_trace c word expected] pre-encodes a trace against [c]'s
    output dictionary.  Raises [Invalid_argument] if an input symbol is
    out of range — the walkers skip per-symbol bounds tests. *)

val agrees_trace : 'o compiled -> trace -> bool
(** [agrees_trace c tr] is [agrees] on the pre-encoded trace, with int
    comparisons only, no allocation, and no per-symbol bounds checks. *)

val first_disagreement : 'o compiled -> int list -> 'o list -> int option
(** Index of the first position where the machine's output differs from
    [expected] (or where one sequence ends early), [None] if none. *)

val compiled_state_after : 'o compiled -> int list -> int
(** [state_after] on the compiled tables. *)

(** {2 Streaming compiled stepper}

    The agree/reject walkers above answer one question per whole trace.
    Replay workloads need the machine's output {e per access}, millions of
    times, while interleaving their own bookkeeping (tag updates, miss
    attribution) between steps.  A {!stepper} is a compiled machine plus a
    mutable current state: each {!stepper_step} advances by one input and
    returns the output {e from the compiled table} — a physically shared
    value, so the walk allocates nothing per access. *)

type 'o stepper

val stepper : 'o compiled -> 'o stepper
(** A fresh stepper in the initial state.  Steppers are cheap; the
    compiled tables are shared, never copied. *)

val stepper_state : 'o stepper -> int
(** The current control state. *)

val stepper_step : 'o stepper -> int -> 'o
(** Advance by one input and return the emitted output (shared with the
    compiled table — no allocation).  Raises [Invalid_argument] when the
    input is out of range. *)

val of_fun :
  init:'s -> n_inputs:int -> step:('s -> int -> 's * 'o) -> max_states:int -> 'o t
(** Explicit reachable-state enumeration of an implicit machine. States of
    the implicit machine must be immutable and structurally comparable.
    The result numbers states in BFS order from the initial state. Fails if
    more than [max_states] states are reachable. *)

val minimize : 'o t -> 'o t
(** Minimal trace-equivalent machine, restricted to reachable states and
    numbered in BFS order (hence canonical for a given behaviour). *)

val find_counterexample :
  ?from_a:int option -> ?from_b:int option -> 'o t -> 'o t -> int list option
(** Shortest input word on which the two machines produce different outputs,
    or [None] when trace-equivalent. *)

val equivalent : 'o t -> 'o t -> bool
val canonicalize : 'o t -> 'o t
val isomorphic : 'o t -> 'o t -> bool

val access_sequences : 'o t -> int list option array
(** For each state, a shortest input word reaching it from the initial state
    ([None] for unreachable states). *)

val pp :
  ?pp_input:(Format.formatter -> int -> unit) ->
  pp_output:(Format.formatter -> 'o -> unit) ->
  Format.formatter ->
  'o t ->
  unit

val to_dot :
  ?name:string ->
  input_label:(int -> string) ->
  output_label:('o -> string) ->
  'o t ->
  string

val of_dot :
  input_of_label:(string -> int option) ->
  output_of_label:(string -> 'o option) ->
  string ->
  ('o t, string) result
(** Parse a machine from the DOT text {!to_dot} emits (node names [sN],
    a [__start] arrow marking the initial state, one ["in/out"]-labelled
    edge per transition).  The label parsers invert the exporter's
    [input_label]/[output_label]; a label either rejects ([None]) or
    yields the dense input index / output value.  The machine must be
    complete — every state needs exactly one edge per input index — and
    input indices must form [0 .. k-1].  Errors name the offending
    line. *)
