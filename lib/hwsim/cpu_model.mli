(** Models of the three processors analysed in the paper (Table 3),
    together with the microarchitectural details the paper
    reverse-engineered: per-level replacement policies, adaptive-L3
    leader-set selection (Appendix B), reset behaviour, CAT support and
    load latencies.

    These models are the "silicon" our CacheQuery implementation talks
    to; they are the ground truth the learning pipeline must
    rediscover. *)

type level = L1 | L2 | L3

val level_to_string : level -> string
val all_levels : level list

(** How the sets of a level choose their replacement policy. *)
type set_policy =
  | Fixed of (int -> Cq_policy.Policy.t)
      (** every set runs this policy (given the effective associativity) *)
  | Adaptive of {
      leader_a : slice:int -> set:int -> bool;
          (** "thrash-vulnerable" fixed-policy leader sets *)
      leader_b : slice:int -> set:int -> bool;
          (** "thrash-resistant" fixed-policy leader sets *)
      policy_a : int -> Cq_policy.Policy.t;
      policy_b : int -> Cq_policy.Policy.t;
      noisy_b : bool;
          (** Haswell's resistant leaders look nondeterministic
              (Appendix B): when set, leader-B fills randomly re-touch
              the inserted way *)
    }

type level_spec = {
  assoc : int;
  slices : int;
  sets_per_slice : int;
  hit_latency : int;  (** cycles for a hit served by this level *)
  policy : set_policy;
  fill_touches_policy : bool;
      (** whether installing a block into an {e invalid} way updates the
          replacement state as if the way had been accessed.  When false,
          Flush+Refill does not reset the policy state and a custom reset
          sequence is needed — this is what forces the ['@ @'] reset on
          Haswell L1 and the ['D C B A @'] reset on Skylake/Kaby Lake L2
          (Table 4). *)
}

type t = {
  name : string;
  codename : string;
  line_size : int;
  l1 : level_spec;
  l2 : level_spec;
  l3 : level_spec;
  memory_latency : int;
  supports_cat : bool;
  slice_masks : int array;  (** XOR-fold masks; one per slice-index bit *)
}

val spec : t -> level -> level_spec

(** {1 Appendix B leader-set selection formulas}

    Exposed so tests and set-enumeration code can evaluate them directly
    (they also sit inside the models' [Adaptive] specs). *)

val skl_leader_a : slice:int -> set:int -> bool
val skl_leader_b : slice:int -> set:int -> bool
val hsw_leader_a : slice:int -> set:int -> bool
val hsw_leader_b : slice:int -> set:int -> bool

val haswell : t  (** i7-4790 *)

val skylake : t  (** i5-6500 *)

val kaby_lake : t  (** i7-8550U *)

val toy : t
(** A miniature CPU for tests: tiny caches with the same structural
    features (three levels, slices, an adaptive L3 with leader sets,
    CAT) so the whole pipeline runs in milliseconds. *)

val all : t list
(** The paper's three CPUs ([toy] is deliberately excluded). *)

val by_name : string -> t option
(** Case-insensitive lookup by [name] or [codename], over {!all}. *)

val pp_specs : Format.formatter -> t -> unit
(** Table 3, for the benchmark harness. *)
