(** The cache-semantics oracle consumed by Polca (the paper's ⟦C⟧).

    A query is a block trace executed from the cache's fixed initial
    configuration; the oracle returns the outcome of every access.  The
    software-simulated cache (§6 of the paper) and CacheQuery over
    hardware (§7) both implement this interface.

    Prefix sharing happens above the oracle: Polca drives the device
    primitives in [ops] as word-trie sessions. *)

type t = {
  assoc : int;
  initial_content : Block.t array;  (** cc0, known to Polca *)
  query : Block.t list -> Cache_set.result list;
  query_batch : Block.t list list -> Cache_set.result list list;
      (** [List.map query]; kept only because perfbench builds oracles
          with it *)
  ops : (Block.t, Cache_set.result) Batch.ops option;
      (** the device primitives Polca's session mode drives.  [None] when
          the device cannot checkpoint; Polca then replays each probe
          through [query]. *)
}

type stats = {
  queries : Cq_util.Metrics.counter;
  block_accesses : Cq_util.Metrics.counter;
  memo_hits : Cq_util.Metrics.counter;
  batches : Cq_util.Metrics.counter;  (** Polca sessions run *)
  batched_queries : Cq_util.Metrics.counter;
      (** probes answered by those sessions *)
  accesses_saved : Cq_util.Metrics.counter;
      (** block accesses avoided by prefix sharing, relative to naive
          per-probe replay of the same words *)
  timed_loads : Cq_util.Metrics.counter;
      (** physical timed loads issued (hardware backends; counts every
          repetition, unlike the logical [block_accesses]) *)
  vote_runs : Cq_util.Metrics.counter;
      (** extra query/access executions spent on majority voting *)
  transient_flips : Cq_util.Metrics.counter;
      (** [Polca.Non_deterministic] words that a retry absorbed *)
  retry_attempts : Cq_util.Metrics.counter;
      (** word re-executions issued by the bounded-retry layer *)
  batch_depth : Cq_util.Metrics.histogram;
      (** probes answered per Polca session *)
  vote_escalations : Cq_util.Metrics.histogram;
      (** runs spent per voted access that entered the voting loop *)
}
(** Registry-backed accounting: every field is a named metric
    ({!Cq_util.Metrics}), so report fields and registry exports cannot
    disagree. *)

val fresh_stats :
  ?registry:Cq_util.Metrics.t ->
  ?prefix:string ->
  ?timed_loads:Cq_util.Metrics.counter ->
  ?vote_runs:Cq_util.Metrics.counter ->
  unit ->
  stats
(** Stats whose fields are registered as ["<prefix>.<field>"] (default
    prefix ["oracle"]) in [registry] (default: a fresh private registry).
    Two stats records sharing a registry must use distinct prefixes.
    [timed_loads] and [vote_runs] share existing counters instead of
    registering their own: a device layer passes its backend's load
    counter, and a learn over a device passes the device's two counters,
    so loads and votes are counted in one place whatever path issued
    them. *)

val of_policy : ?initial_content:Block.t array -> Cq_policy.Policy.t -> t

val counting : stats -> t -> t
(** Count queries and their accesses into [stats].  Session-mode probes
    do not pass through [query]; Polca counts them itself. *)

val memoized : ?stats:stats -> t -> t
(** Memoize whole queries (the role LevelDB plays in the paper's frontend).
    Sound because every query starts from the reset state. *)
