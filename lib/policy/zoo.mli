(** The policy zoo: every concrete replacement policy by name, plus
    identification of learned automata against them. *)

type entry = {
  name : string;
  make : int -> Policy.t;
  valid_assoc : int -> bool;
}

val entries : entry list
val names : string list
val find : string -> entry option

val make : name:string -> assoc:int -> (Policy.t, string) result
val make_exn : name:string -> assoc:int -> Policy.t

val relabel_lines :
  int -> int list -> Types.output Cq_automata.Mealy.t -> Types.output Cq_automata.Mealy.t
(** Conjugate a policy machine by a permutation of the line indices:
    [relabel_lines assoc perm m] behaves on [Ln(j)] as [m] does on
    [Ln(perm(j))], with output lines renamed accordingly. *)

val matches_from_some_state :
  'o Cq_automata.Mealy.t -> 'o Cq_automata.Mealy.t -> bool
(** Does the second machine match the first started from *some* control
    state? *)

val identify :
  ?extra:Policy.t list ->
  ?max_perm_assoc:int ->
  Types.output Cq_automata.Mealy.t ->
  string list
(** Names of all known policies trace-equivalent to the machine, up to the
    observation artefacts of hardware learning: an arbitrary starting
    control state, and (for associativity [<= max_perm_assoc], default 5) an
    arbitrary permutation of the line indices introduced by the reset
    sequence's placement. *)
