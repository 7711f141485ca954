(** One level of the simulated cache hierarchy: a lazily-allocated
    collection of cache sets, each holding tag content (line addresses)
    plus one or two replacement-policy instances.

    Adaptive levels (the L3s, cf. Appendix B of the paper) distinguish
    three set kinds: leader-A sets run the "thrash-vulnerable" fixed
    policy, leader-B sets the "thrash-resistant" one, and follower sets
    track {e both} policy instances and take the victim from whichever
    the machine's global PSEL counter currently selects. *)

type set_kind = Plain | Leader_a | Leader_b | Follower

type t

val create :
  ?effective_assoc:int ->
  prng:Cq_util.Prng.t ->
  Cpu_model.level ->
  Cpu_model.level_spec ->
  t
(** [effective_assoc] reduces the associativity below the spec's (Intel
    CAT way masking); default is the spec's.  Raises [Invalid_argument]
    outside [1 .. spec.assoc].  [prng] drives the nondeterministic
    leader-B behaviour (Haswell), nothing else. *)

val effective_assoc : t -> int
val level : t -> Cpu_model.level
val spec : t -> Cpu_model.level_spec

val kind : t -> slice:int -> set:int -> set_kind

val invalid : int
(** [-1]: the "no line" / "no way" value of {!find} and {!fill}. *)

val find : t -> slice:int -> set:int -> line:int -> int
(** The way holding [line], or {!invalid} if it is not cached.  Allocates
    nothing. *)

val hit : t -> slice:int -> set:int -> way:int -> unit
(** Touch the replacement state (both instances, in follower sets) for a
    hit on [way]. *)

val fill : t -> slice:int -> set:int -> line:int -> use_b:bool -> int
(** Install [line], filling an invalid way if one exists, otherwise
    evicting the policy's victim; [use_b] selects the secondary policy's
    victim in follower sets (driven by the machine's PSEL counter).
    Returns the evicted line, or {!invalid}, so the machine can maintain
    inclusivity. *)

val invalidate : t -> slice:int -> set:int -> line:int -> unit
(** clflush semantics: drop [line] wherever it sits in the set. *)

val flush_content : t -> unit
(** wbinvd semantics: drop all cached content.  Replacement state is
    {e not} reset — real hardware leaves the (now stale) replacement
    metadata in place. *)

val checkpoint : t -> unit -> unit
(** Checkpoint the whole level (tag content, policy instances, counters,
    PRNG position); the returned thunk restores it, dropping sets
    allocated after the checkpoint (they reappear lazily, pristine —
    exactly the state they had when the checkpoint was taken).

    Both are O(1) whatever the number of allocated sets: the sets live in
    a persistent map and a set is copied on its first write after a
    checkpoint, so no write reaches a captured map.  Restore thunks may run in any order and any
    number of times; each one returns the level to its own checkpoint. *)

(** {1 Introspection (tests, diagnostics)} *)

val peek_content : t -> slice:int -> set:int -> int option array
val evictions : t -> int
