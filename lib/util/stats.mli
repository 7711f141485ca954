(** Streaming statistics and simple thresholding used by timing calibration
    and the benchmark harness. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
(** Sample variance (Bessel-corrected); [0.] for fewer than two samples. *)

val min_value : t -> float
val max_value : t -> float
val of_list : float list -> t

val median : float list -> float
val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation. *)

val otsu_threshold : int list -> int option
(** Bimodal split of an integer sample (e.g. load latencies in cycles):
    returns [Some thr] such that values [<= thr] belong to the lower class
    (cache hits) and values [> thr] to the upper class (misses); [None] when
    the sample is degenerate. *)
