(** Replacement policies as Mealy machines (Definition 2.1 of the paper).

    A policy packages an existential control-state type with a pure step
    function.  States must be immutable and structurally comparable, which
    is what allows [to_mealy] to enumerate the reachable state space. *)

type t =
  | Policy : {
      name : string;
      assoc : int;
      init : 's;
      step : 's -> Types.input -> 's * Types.output;
      describe : string;
    }
      -> t

val v :
  ?describe:string ->
  name:string ->
  assoc:int ->
  init:'s ->
  step:('s -> Types.input -> 's * Types.output) ->
  unit ->
  t
(** Package a policy.  The step function's outputs are checked against
    Definition 2.1 at every use: [Evct] must name a line, line accesses
    must output ⊥. *)

val name : t -> string
val assoc : t -> int
val describe : t -> string

val run : t -> Types.input list -> Types.output list
(** Output word from the initial control state (checked). *)

val to_mealy : ?max_states:int -> t -> Types.output Cq_automata.Mealy.t
(** Explicit automaton of the reachable control states.  Fails
    ([Failure _]) beyond [max_states] (default 2,000,000). *)

val n_minimal_states : ?max_states:int -> t -> int
(** Reachable states after Mealy minimization — the numbers Table 2 of the
    paper reports. *)

val equivalent : t -> t -> bool
(** Trace equivalence of two policies of the same associativity. *)

val advance : t -> Types.input list -> t
(** Policy with its initial state advanced through an input word. *)

val warmed : t -> t
(** [advance p (Evct^assoc)]: the control state after an initial cache
    fill through evictions. *)

val victim_after : t -> Types.input list -> int
(** The line an [Evct] would free after the given warm-up word. *)

val machine_digest : Types.output Cq_automata.Mealy.t -> string
(** Hex MD5 of the machine's canonical form ([Mealy.canonicalize])
    rendered with [Mealy.to_dot] and the policy input/output labels.
    Equal for isomorphic machines, whatever their state numbering; the
    identity the daemon, the bench and the tests compare. *)
