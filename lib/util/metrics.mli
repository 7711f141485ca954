(** A typed metrics registry: counters, gauges, and fixed log-scale-bucket
    histograms, addressed by name.

    One registry can be shared across every pipeline layer (backend,
    frontend, Polca, the learner, the service): registration is
    idempotent by name, so a layer asking for an already-registered
    metric receives the existing handle.  Asking for an existing name
    with a different metric kind — or a histogram with a different
    bucket shape — raises [Invalid_argument].

    Counters are atomic (the daemon's worker threads increment shared
    counters); gauges and histograms are plain mutable state. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Register (or look up) the counter [name]. *)

val gauge : t -> string -> gauge

val histogram :
  ?buckets:int -> ?base:float -> ?start:float -> t -> string -> histogram
(** Register (or look up) a histogram with [buckets] (default 32)
    log-scale buckets: bucket 0 holds values [<= start] (default 1.0),
    bucket [i] holds values in [(start*base^(i-1), start*base^i]]
    (default base 2.0), and the last bucket is unbounded above. *)

(** {2 Counters} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {2 Gauges} *)

val set : gauge -> float -> unit

(** {2 Histograms} *)

val observe : histogram -> float -> unit
(** Record one observation.  Non-positive and NaN values land in bucket 0
    (never dropped), so [hist_count] always equals the number of calls. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val bucket_counts : histogram -> int array

val bucket_upper_bound : histogram -> int -> float option
(** Upper bound of bucket [i]; [None] for the (unbounded) last bucket.
    Raises [Invalid_argument] when [i] is out of range. *)

val merge_histogram : into:histogram -> histogram -> unit
(** Bucket-wise merge.  Raises [Invalid_argument] when the shapes
    (bucket count, base, start) differ. *)

(** {2 Snapshot and export} *)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float option * int) array;  (** (upper bound, count) *)
}

type value_snapshot =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

val snapshot : t -> (string * value_snapshot) list
(** Every registered metric with its current value, sorted by name. *)

val json : t -> Json.t
(** The registry as one JSON object, keys sorted: counters as integers,
    gauges as floats, histograms as
    [{"count", "sum", "buckets": [{"le", "n"}]}] ([le] is [null] on the
    unbounded last bucket). *)

val to_json : t -> string
(** {!json} through {!Json.to_string_pretty}, newline-terminated. *)

val write_json : path:string -> t -> unit
(** [to_json] through {!Atomic_file.write}. *)
