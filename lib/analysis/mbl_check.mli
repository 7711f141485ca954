(** Static analysis of MBL expressions: an abstract interpreter that
    predicts what {!Cq_mbl.Expand.expand} would do without running it.

    The analysis is exact, not approximate: it mirrors the expansion
    semantics (including the placement of the [max_queries] guard and the
    evaluation order of subterms) constructor by constructor, so

    - [check] returns [Ok summary] iff expansion succeeds, and then
      [summary.cardinality] is exactly the number of queries expansion
      would produce;
    - [check] returns [Error diagnostic] iff expansion raises
      [Expansion_error] (or would exhaust memory trying), and the
      diagnostic names the reason and the offending subterm.

    This is what lets the frontend reject a pathological program in
    microseconds instead of materialising (a prefix of) a 65536-query
    expansion first.  The differential properties in [test/test_analysis.ml]
    and [test/test_mbl.ml] hold the checker to this contract against the
    real expander. *)

(** {1 Diagnostics} *)

type code =
  | Bad_block_name of string
      (** A block name [Cq_cache.Block.of_string] rejects. *)
  | Double_tag
      (** A [?]/[!] tag applied to a subterm that already produces tagged
          accesses ("tag applied to an already-tagged query"). *)
  | Negative_power of int  (** [(s)k] with [k < 0]. *)
  | Cardinality_overflow of { bound : int; at_least : int }
      (** Expansion is guaranteed to trip the [max_queries] guard: some
          intermediate query set reaches [at_least > bound] queries. *)
  | Excess_blocks of { distinct : int; capacity : int }
      (** Only with [?capacity]: the program touches more distinct
          non-auxiliary blocks than the given capacity.  Not an expansion
          error — thrashing queries do this deliberately — so it is
          opt-in. *)

type diagnostic = {
  code : code;
  path : int list;
      (** Child-index path from the root to the offending subterm
          ([[]] is the root; for [Seq]/[Set] the index is the item
          position, for [Extend] base is [0] and extension [1], for
          [Tagged]/[Power] the child is [0]). *)
}

val diagnostic_to_string : diagnostic -> string

(** {1 The summary computed for accepted programs} *)

type summary = {
  cardinality : int;  (** Exact number of queries expansion produces. *)
  total_accesses : int;
      (** Total memory accesses across all queries (saturating). *)
  profiled_accesses : int;
      (** How many of those carry the [?] profile tag (saturating). *)
  max_query_len : int;  (** Length of the longest query (saturating). *)
  footprint : Cq_cache.Block.t list;
      (** Distinct blocks touched by any query, sorted. *)
  main_blocks : int;  (** Non-auxiliary blocks in the footprint. *)
  aux_blocks : int;  (** Auxiliary (lowercase) blocks in the footprint. *)
  associativity_pressure : float;
      (** [main_blocks /. assoc]: > 1.0 means the program cannot fit its
          working set in one cache set and will evict. *)
}

val pp_summary : Format.formatter -> summary -> unit

(** {1 Checking} *)

val check :
  ?max_queries:int ->
  ?capacity:int ->
  ?registry:Cq_util.Metrics.t ->
  assoc:int ->
  Cq_mbl.Ast.t ->
  (summary, diagnostic) result
(** [check ~assoc e] analyses [e] exactly as
    [Cq_mbl.Expand.expand ?max_queries ~assoc e] would expand it
    (default [max_queries] 65536, matching the expander).  [?capacity]
    additionally enables the [Excess_blocks] policy check.  Raises
    [Invalid_argument] when [assoc < 1], like the expander. *)

val check_string :
  ?max_queries:int ->
  ?capacity:int ->
  ?registry:Cq_util.Metrics.t ->
  assoc:int ->
  string ->
  (summary, diagnostic) result
(** [check] after {!Cq_mbl.Parser.parse}.  Raises [Parser.Parse_error] on
    syntax errors, like [Expand.expand_string]. *)

(** {1 Simplification} *)

val simplify : ?max_queries:int -> assoc:int -> Cq_mbl.Ast.t -> Cq_mbl.Ast.t
(** A semantics-preserving rewrite: flattens nested [Seq]/[Set], drops
    empty-sequence items, collapses singleton wrappers and trivial powers
    ([(e)0], [(e)1], [((e)j)k]).  The contract — verified by differential
    tests — is that the result expands to the {e identical} query list
    (same queries, same order) and fails iff the original fails:

    - if [check] rejects the program, [simplify] returns it unchanged
      (error behaviour trivially preserved);
    - if the rewritten program would change acceptance (possible when a
      zero-cardinality subterm masked a guard overflow), the rewrite is
      discarded and the original returned. *)
