(** Policy × trace evaluation harness shared by [bench -- workload] and
    the [cq-workload] CLI: replay a set of subjects over a set of traces
    and tabulate hit rates against the Belady-OPT bound. *)

type row = {
  subject : string;  (** policy or machine name *)
  trace : string;  (** trace label *)
  accesses : int;
  hits : int;
  rate : float;
  opt_hits : int;
  opt_rate : float;  (** Belady-OPT on the same trace and start (warm or cold) *)
}

val policies :
  ?cold:bool ->
  (string * Cq_policy.Policy.t) list ->
  Trace.t list ->
  row list
(** Replay every policy over every trace (policy-instance path). *)

val machines :
  ?cold:bool ->
  (string * Cq_policy.Types.output Cq_automata.Mealy.compiled) list ->
  Trace.t list ->
  row list
(** Replay every compiled machine over every trace (fast path). *)

val pp_table : Format.formatter -> row list -> unit
(** Aligned table: subject, trace, accesses, hits, hit%, OPT%, gap. *)

val pp_attribution :
  ?top:int -> Format.formatter -> Replay.attribution -> unit
(** The miss-attribution table: the states absorbing the most misses,
    with per-state hit counts and the victim-way histogram. *)
