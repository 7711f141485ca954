(** Membership oracle for Mealy-machine learning: answers output queries
    (input word -> output word from the fixed initial state of the system
    under learning).  Polca implements this interface over a cache
    (Algorithm 1 of the paper).

    [query_batch] answers several independent words at once, letting the
    layers below batch and prefix-share the induced block traces. *)

type 'o t = {
  n_inputs : int;
  query : int list -> 'o list;
  query_batch : int list list -> 'o list list;
}

exception Inconsistent of string
(** Raised by {!cached} when the underlying system returns conflicting
    outputs for the same input word and arbitration (if enabled) could not
    resolve the conflict — the system looks genuinely nondeterministic. *)

val make :
  ?query_batch:(int list list -> 'o list list) ->
  n_inputs:int ->
  (int list -> 'o list) ->
  'o t
(** Build an oracle; without [query_batch] a sequential fallback
    ([List.map query]) is derived, so plain oracles keep working. *)

type stats = {
  queries : Cq_util.Metrics.counter;
      (** queries reaching the underlying system *)
  symbols : Cq_util.Metrics.counter;
  cache_hits : Cq_util.Metrics.counter;
      (** queries answered by the prefix cache *)
  batches : Cq_util.Metrics.counter;
      (** [query_batch] calls reaching the system *)
  conflicts : Cq_util.Metrics.counter;
      (** prefix-cache conflicts observed (each one is a transient
          measurement flip somewhere, unless it escalates to
          {!Inconsistent}) *)
  latency : Cq_util.Metrics.histogram;
      (** seconds per membership query/batch reaching the system *)
}
(** Registry-backed accounting ({!Cq_util.Metrics}). *)

val fresh_stats : ?registry:Cq_util.Metrics.t -> ?prefix:string -> unit -> stats
(** Stats registered as ["<prefix>.<field>"] (default prefix ["member"])
    in [registry] (default: a fresh private registry). *)

val counting : stats -> 'o t -> 'o t

val cached : ?stats:stats -> ?conflict_retries:int -> 'o t -> 'o t
(** Prefix-tree cache: a query whose whole path is known is answered
    locally; batches forward only the (deduplicated) unknown words.

    When the underlying system returns outputs for a word that conflict
    with a cached prefix, the word is re-executed up to [conflict_retries]
    times (default 0) to arbitrate: a fresh run agreeing with the cache
    exonerates it (the conflicting run carried a transient measurement
    flip); two fresh runs agreeing with each other outvote the single
    cached execution, whose entry is overwritten.  Conflicts that persist
    raise {!Inconsistent} — the system looks genuinely nondeterministic. *)

val cached_refresh :
  ?stats:stats -> ?conflict_retries:int -> 'o t -> 'o t * (int list -> 'o list)
(** As {!cached}, but also returns a [refresh] handle that bypasses the
    cache: it re-executes a word on the underlying system (until two
    consecutive runs agree, bounded by [conflict_retries]), overwrites the
    cached path with the fresh answer and returns it.  Callers use it to
    repair entries they suspect of holding a transient measurement flip —
    e.g. before trusting a counterexample from conformance testing. *)

type 'o knowledge
(** A portable, ordered list of (word, outputs) paths that rebuilds
    prefix-trie contents when applied in order, each path overwriting what
    it overlaps: an export's maximal known paths, or a journal's
    mutations.  Marshal-safe: sessions persist it in snapshots and log
    records and feed it back through [preload] on resume, after which
    every previously answered query is served locally — the foundation of
    crash-resumable learning. *)

val knowledge_size : 'o knowledge -> int
(** Number of paths in the dump. *)

val knowledge_concat : 'o knowledge list -> 'o knowledge
(** The dumps applied one after the other (a base, then log records). *)

type 'o handle = {
  refresh : int list -> 'o list;  (** as returned by {!cached_refresh} *)
  export : unit -> 'o knowledge;  (** dump the trie's current contents *)
  preload : 'o knowledge -> unit;
      (** seed the trie from a dump (overwrites overlapping paths) *)
  drain : unit -> 'o knowledge;
      (** the trie mutations since the previous [drain], in order — every
          successful insert and every overwrite (arbitration, [refresh],
          [preload]); always empty without [~journal:true] *)
}

val cached_session :
  ?stats:stats ->
  ?conflict_retries:int ->
  ?journal:bool ->
  'o t ->
  'o t * 'o handle
(** As {!cached_refresh}, but the handle also exposes the trie for
    session snapshot / resume.  [journal] (default false) records every
    trie mutation for [drain], so a session can append the answers it
    learned since its last write instead of re-exporting the trie. *)

val of_mealy : 'o Cq_automata.Mealy.t -> 'o t
(** Oracle backed by an explicit machine (ground truth in tests). *)
