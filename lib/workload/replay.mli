(** Trace replay through policies and learned automata.

    All replayers simulate one cache set with the semantics of
    [Cache_set.access] / [Cache_level.fill] with [fill_touches_policy]: a
    hit touches the governing automaton with [Line w]; a miss fills the
    lowest-index invalid way first, touching the automaton with
    [Line w] too, and evicts through the automaton ([Evct]) only once the
    set is full.  A warm set (the default) starts with blocks
    [0 .. assoc-1] in ways [0 .. assoc-1] ([Cache_set.create]); pass
    [~cold:true] for an empty set.  Block ids must be non-negative.  The
    three paths — concrete policy, explicit Mealy machine ([Mealy.step]),
    compiled machine ({!Cq_automata.Mealy.stepper}) — must produce
    byte-identical hit/miss streams; the differential tests hold them to
    that. *)

type outcome = {
  hits : int;
  misses : int;
  stream : Bytes.t;  (** one byte per access; [1] = hit *)
}

val hit_rate : outcome -> float
(** [hits / accesses]; [0.] for an empty trace. *)

(** {2 The shared set loop} *)

type stepper = {
  touch : int -> int -> unit;
      (** [touch j w]: access [j] hits the block resident in way [w]. *)
  fill : int -> int -> unit;
      (** [fill j w]: access [j] misses and its block fills the invalid
          way [w] (cold sets only). *)
  evict : int -> int;
      (** [evict j]: access [j] misses in a full set; return the victim
          way, which the missing block replaces. *)
}
(** What governs the set: told about every touch, asked for every
    victim.  The loop owns the tags, the block-to-way map and the
    stream; the stepper owns the replacement state. *)

val run :
  ?universe:int -> assoc:int -> cold:bool -> stepper -> int array -> outcome
(** [run ~assoc ~cold st blocks] replays [blocks] through one set of
    [assoc] ways governed by [st].  Raises [Invalid_argument] on a
    non-positive [assoc] or a negative block id.  A caller that already
    holds [universe ~assoc ~cold blocks] passes it as [~universe] to
    skip the rescan; a block id outside it raises [Invalid_argument]. *)

val universe : assoc:int -> cold:bool -> int array -> int
(** One more than the largest block id resident initially or accessed:
    the size of a table indexed by block.  Validates like {!run}. *)

val policy : ?cold:bool -> Cq_policy.Policy.t -> int array -> outcome
(** Replay through a fresh {!Cq_policy.Instance} of the policy. *)

val machine :
  ?cold:bool -> Cq_policy.Types.output Cq_automata.Mealy.t -> int array -> outcome
(** Replay through an explicit machine via [Mealy.step], on its own naive
    loop rather than {!run} — the slow, independent reference the other
    paths are diffed against. *)

(** {2 Compiled replay and miss attribution} *)

type attribution = {
  attr_states : int;
  state_hits : int array;  (** hits observed in each automaton state *)
  state_misses : int array;
      (** misses charged to the automaton state the set was in when the
          miss occurred (before the eviction/fill step) *)
  victims : int array;  (** evictions that landed on each way *)
}

val attribution : Cq_policy.Types.output Cq_automata.Mealy.compiled -> attribution
(** A zeroed accumulator sized for the machine.  Pass the same record to
    several {!compiled} calls to aggregate across traces. *)

val compiled :
  ?cold:bool ->
  ?attr:attribution ->
  Cq_policy.Types.output Cq_automata.Mealy.compiled ->
  int array ->
  outcome
(** The fast path: {!run} with the streaming compiled stepper,
    allocation-free per access.  When [attr] is given, each
    access also charges the current automaton state's hit/miss counter
    and the victim way's eviction counter. *)

val top_miss_states : attribution -> int -> (int * int * int) list
(** [(state, misses, hits)] rows of the [n] states absorbing the most
    misses, descending (ties by state id). *)
