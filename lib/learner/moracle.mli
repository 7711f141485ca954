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
  prefetch : int list Seq.t -> unit;
      (** speculation: the words are likely to be queried next, one at a
          time, so the system may measure them together now and hold the
          answers until each is queried (once).  The sequence is generated
          as the system consumes it, so a long announcement is never held
          whole.  A prefetch never raises and answers nothing; it replaces
          the previous one, and an empty prefetch drops whatever is still
          held.  The conformance suites ({!Equivalence}) prefetch each
          chunk they are about to test. *)
}

exception Inconsistent of string
(** Raised by {!cached} when the underlying system returns conflicting
    outputs for the same input word and arbitration (if enabled) could not
    resolve the conflict — the system looks genuinely nondeterministic. *)

val make :
  ?query_batch:(int list list -> 'o list list) ->
  ?prefetch:(int list Seq.t -> unit) ->
  n_inputs:int ->
  (int list -> 'o list) ->
  'o t
(** Build an oracle; without [query_batch] a sequential fallback
    ([List.map query]) is derived, so plain oracles keep working, and
    without [prefetch] speculation is ignored. *)

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
(** Count the queries and symbols reaching [t].  A prefetch is not
    counted; its time is added to the [latency] sample of the query (or
    batch) after it. *)

val cached : ?stats:stats -> ?conflict_retries:int -> 'o t -> 'o t
(** Prefix-tree cache: a query whose whole path is known is answered
    locally; batches forward only the (deduplicated) unknown words.

    When the underlying system returns outputs for a word that conflict
    with a cached prefix, the word is re-executed up to [conflict_retries]
    times (default 0) to arbitrate: a fresh run agreeing with the cache
    exonerates it (the conflicting run carried a transient measurement
    flip); two fresh runs agreeing with each other outvote the single
    cached execution, whose entry is overwritten.  Conflicts that persist
    raise {!Inconsistent} — the system looks genuinely nondeterministic.

    A prefetch forwards only the words the trie cannot answer.  Its
    answers reach the trie only through the queries that consume them,
    so they never show in an export or a journal; arbitration
    re-executions and [refresh] drop the held answers first and always
    measure afresh. *)

type 'o knowledge
(** Portable prefix-trie contents, applied in order, each part
    overwriting what it overlaps: an export's nodes (flat arrays of
    parent, input and output, one entry per node), or a journal's
    (word, outputs) mutations.  Marshal-safe: sessions persist it in snapshots and log
    records and feed it back through [preload] on resume, after which
    every previously answered query is served locally — the foundation of
    crash-resumable learning. *)

val knowledge_size : 'o knowledge -> int
(** Number of paths in the dump: an export's maximal paths plus a
    journal's mutations. *)

val knowledge_concat : 'o knowledge list -> 'o knowledge
(** The dumps applied one after the other (a base, then log records). *)

type 'o handle = {
  refresh : int list -> 'o list;
      (** bypass the cache: re-execute a word on the underlying system
          (until two consecutive runs agree, bounded by
          [conflict_retries]), overwrite the cached path with the fresh
          answer and return it — how callers repair an entry suspected of
          holding a transient measurement flip, e.g. before trusting a
          counterexample from conformance testing *)
  export : unit -> 'o knowledge;  (** dump the trie's current contents *)
  preload : 'o knowledge -> unit;
      (** seed the trie from a dump (overwrites overlapping paths) *)
  drain : unit -> 'o knowledge;
      (** the part of the trie the mutations since the previous [drain]
          touched — every successful insert and every overwrite
          (arbitration, [refresh], [preload]) — with its current outputs;
          applied after the previous dumps it rebuilds the trie.  Always
          empty without [~journal:true] *)
}

val cached_session :
  ?stats:stats ->
  ?conflict_retries:int ->
  ?journal:bool ->
  'o t ->
  'o t * 'o handle
(** As {!cached}, plus a handle that repairs entries ([refresh]) and
    exposes the trie for session snapshot / resume.  [journal] (default false) records where
    every trie mutation ended for [drain], so a session can append the
    answers it learned since its last write instead of re-exporting the
    trie. *)

val of_mealy : 'o Cq_automata.Mealy.t -> 'o t
(** Oracle backed by an explicit machine (ground truth in tests). *)
