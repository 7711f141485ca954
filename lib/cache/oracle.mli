(** The cache-semantics oracle consumed by Polca (the paper's ⟦C⟧).

    A query is a block trace executed from the cache's fixed initial
    configuration; the oracle returns the outcome of every access.  The
    software-simulated cache (§6 of the paper) and CacheQuery over
    hardware (§7) both implement this interface.

    [query_batch] answers several independent queries at once; oracles
    built by {!of_cache_set} execute batches through the prefix-sharing
    trie executor ({!Batch}), making a batch cost O(trie edges) block
    accesses instead of O(Σ |qᵢ|). *)

type t = {
  assoc : int;
  initial_content : Block.t array;  (** cc0, known to Polca *)
  query : Block.t list -> Cache_set.result list;
  query_batch : Block.t list list -> Cache_set.result list list;
  prefix_sharing : bool;
      (** whether [query_batch] shares prefixes (drives the accesses-saved
          accounting in {!counting}) *)
  ops : (Block.t, Cache_set.result) Batch.ops option;
      (** the device primitives behind the executor, for consumers that
          drive their own adaptive prefix-sharing plans (Polca's session
          mode).  [None] when unsupported: the sequential ablation, noise
          wrappers that need whole-query replay, hardware oracles with
          repetitions > 1. *)
}

type stats = {
  queries : Cq_util.Metrics.counter;
  block_accesses : Cq_util.Metrics.counter;
  memo_hits : Cq_util.Metrics.counter;
  batches : Cq_util.Metrics.counter;  (** [query_batch] calls *)
  batched_queries : Cq_util.Metrics.counter;
      (** queries carried by those batches *)
  accesses_saved : Cq_util.Metrics.counter;
      (** block accesses avoided by prefix sharing, relative to naive
          per-query replay of the same batches *)
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
      (** queries carried per batch (trie fan-in / session probe count) *)
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

val sequential_batch :
  (Block.t list -> Cache_set.result list) ->
  Block.t list list ->
  Cache_set.result list list
(** Correct [query_batch] fallback for oracles without batch support. *)

val of_cache_set : Cache_set.t -> t
val of_policy : ?initial_content:Block.t array -> Cq_policy.Policy.t -> t

val sequential : t -> t
(** Replace batch execution with naive per-query replay — the sequential
    baseline of the engine benchmark. *)

val counting : stats -> t -> t
(** Count queries and accesses into [stats].  [block_accesses] counts the
    logical (per-query) cost even for batches; the prefix-sharing win is
    recorded separately in [accesses_saved]. *)

val memoized : ?stats:stats -> t -> t
(** Memoize whole queries (the role LevelDB plays in the paper's frontend).
    Sound because every query starts from the reset state. *)

val noisy : prng:Cq_util.Prng.t -> p:float -> t -> t
(** Flip each individual outcome with probability [p] (fault injection). *)
