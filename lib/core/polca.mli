(** Polca (Algorithm 1 of the paper): a membership oracle for the
    replacement policy, built on top of a cache oracle.

    Polca translates the policy alphabet (cache lines) into the cache
    alphabet (memory blocks) by tracking the cache content: [Ln(i)] maps to
    the block currently in line [i], [Evct] to a fresh block, and a miss's
    victim line is recovered by probing the trace extended with each
    tracked block ([findEvicted]). *)

type t

exception Non_deterministic of string
(** Raised when the cache's answers are inconsistent with a deterministic
    policy over the assumed initial content — the symptom of a broken
    reset sequence or noisy measurements (§7.1). *)

val create :
  ?check_hits:bool ->
  ?batch_probes:bool ->
  ?retries:int ->
  ?backoff:(int -> unit) ->
  ?stats:Cq_cache.Oracle.stats ->
  Cq_cache.Oracle.t ->
  t
(** [check_hits] (default [true]) probes the cache even for accesses that
    must hit by construction, exactly as Algorithm 1 is written; those
    probes only serve to detect nondeterminism and can be disabled for a
    ~2x cheaper oracle (see the ablation in EXPERIMENTS.md).

    [batch_probes] (default [true]) prefix-shares the probes of each word.
    When the cache exposes its device primitives ({!Cq_cache.Oracle.t.ops})
    the whole word runs as one live session: each logical probe is answered
    by the single access extending the trace, and the [findEvicted] fan-out
    becomes a checkpoint/restore scan at the trace tip — a word of length L
    costs O(L + scans) device accesses instead of the O(L²) of per-probe
    replay.  Several words ({!moracle}'s [query_batch] and [prefetch]) run
    over their word trie: one reset per session, each shared prefix
    executed once.  A session is capped at 256 trie nodes, or 16 once the
    device has had to re-measure an access (a reset is where a drifting
    device recalibrates).  Disabled, or without [ops], every probe is
    replayed from reset through the cache's [query], with [findEvicted]
    stopping at the first miss: Algorithm 1 as written, and the sequential
    engine.

    [retries] (default 0) bounds a retry loop around {!Non_deterministic}:
    the offending word is re-executed from reset up to [retries] extra
    times, distinguishing transient measurement flips (the retry succeeds;
    counted in [stats.transient_flips]) from structural nondeterminism
    such as a broken reset sequence (every attempt fails; re-raised with
    the retry history in the message).  [backoff] is invoked before retry
    [k] (1-based) — the hook where the hardware layer clears suspect memo
    entries and escalates voting.

    [stats] receives the accounting for session-mode probes, which bypass
    the cache oracle's query path and are therefore invisible to
    {!Cq_cache.Oracle.counting}: logical per-probe cost in
    [block_accesses], physical accesses saved in [accesses_saved], one
    batch per word.  Retries land in [retry_attempts] /
    [transient_flips]. *)

val assoc : t -> int
val n_inputs : t -> int

val run : t -> int list -> Cq_policy.Types.output list
(** Output query: the policy's outputs along a word over the flattened
    input alphabet (0..n-1 = Ln(i), n = Evct). *)

val moracle : t -> Cq_policy.Types.output Cq_learner.Moracle.t
(** The membership oracle consumed by the learner.  Its [query_batch] runs
    the words as trie sessions; its [prefetch] does the same ahead of
    time and holds each answer until [query] consumes it (once).  The next
    prefetch replaces the held answers, and a retry drops them.  Prefetches
    are run only on a device whose reset issues timed loads (as counted in
    [stats]): on a software cache a reset costs less than the
    speculation's bookkeeping.  A node
    that fails with {!Non_deterministic} fails the words through it; that
    is one [backoff], and each of those words counts it as its first
    attempt (a held failure survives that backoff), so a word that keeps
    failing raises exactly what {!run} raises for it.  A word is counted
    in [retry_attempts] when it is re-run. *)

val member : t -> (Cq_policy.Types.input * Cq_policy.Types.output) list -> bool
(** Theorem 3.1: trace membership in the policy semantics ⟦P⟧. *)
