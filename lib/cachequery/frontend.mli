(** The CacheQuery frontend (§4.2 of the paper): MBL expansion, reset
    sequences, repetition with majority voting, the LevelDB-style query
    memo, and the cache-oracle view that Polca consumes. *)

type reset =
  | No_reset
  | Flush_refill  (** clflush everything, then access ['@'] *)
  | Sequence of Cq_mbl.Ast.t  (** e.g. [@ @] or [D C B A @] *)
  | Flush_then of Cq_mbl.Ast.t  (** clflush everything, then the sequence *)

val reset_to_string : reset -> string

type voting =
  | Fixed of int  (** always this many repetitions; [Fixed 1] = no voting *)
  | Adaptive of { max : int }
      (** early-stopping vote: stop re-measuring once the
          majority-of-[max] outcome is decided for every profiled
          position; never exceed [max] repetitions *)

(** Repetition counts other than 1 must be odd — an even cap can tie, and
    any fixed tie-break silently biases the vote.  Constructors and
    setters raise [Invalid_argument] on even counts. *)

type t

val create :
  ?reset:reset ->
  ?voting:voting ->
  ?metrics:Cq_util.Metrics.t ->
  Backend.t ->
  t
(** [voting] defaults to [Fixed 1] (no voting).  [metrics] receives the
    frontend's counters and histograms under the ["frontend."] prefix;
    default is a private registry readable through {!stats}. *)

val backend : t -> Backend.t

val assoc : t -> int
(** Effective associativity of the target level (CAT-aware). *)

val stats : t -> Cq_cache.Oracle.stats
(** Under voting, [block_accesses] counts *actual* executions including
    vote re-measurements; [vote_runs] isolates the re-measurement
    overhead.  [timed_loads] is the backend's own load counter
    ({!Backend.load_counter}), so it counts every timed load the
    backend issued — session-mode accesses, resets and calibration
    included. *)

val set_reset : t -> reset -> unit
(** The sequence is expanded here (and in {!create}), once: both raise
    [Invalid_argument] if it does not expand to a single query. *)

val set_voting : t -> voting -> unit
val voting : t -> voting

val set_repetitions : t -> int -> unit
(** Shorthand for [set_voting t (Fixed n)]. *)

val set_memo : t -> bool -> unit
val clear_memo : t -> unit

val memo_size : t -> int
(** Number of memoized queries ([Hashtbl.length] of the memo table). *)

val check :
  t ->
  string ->
  (Cq_analysis.Mbl_check.summary, Cq_analysis.Mbl_check.diagnostic) result
(** Statically analyse an MBL expression at the target's associativity —
    exact expansion cardinality, footprint and profiled-access counts, or
    a typed rejection — without expanding or executing anything.  Raises
    [Cq_mbl.Parser.Parse_error] on syntax errors. *)

val expand : t -> string -> Cq_mbl.Expand.query list
(** Parse and expand an MBL expression at the target's associativity,
    after the static simplification pre-pass (see
    {!Cq_analysis.Mbl_check.simplify}; the query list is unchanged by
    it). *)

val run_mbl :
  t -> string -> (Cq_mbl.Expand.query * Cq_cache.Cache_set.result list) list
(** Run an MBL expression: each expanded query executes from reset, with
    whole-query majority voting per the voting discipline; profiled
    accesses' outcomes are returned. *)

val oracle : t -> Cq_cache.Oracle.t
(** The cache oracle Polca talks to: every access profiled, queries
    memoized.  The batched path and the session-mode [ops] stay available
    at every voting setting — voting happens inside the access primitive,
    re-running only disputed accesses from a pre-access machine
    checkpoint. *)
