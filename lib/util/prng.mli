(** Deterministic splitmix64 pseudo-random number generator.

    All stochastic behaviour in the repository (simulator timing jitter,
    random-walk equivalence testing, workload generation) is driven by this
    generator so that experiments replay exactly from a seed. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] when
    [bound <= 0]. Unbiased (rejection sampling). *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** One draw from a normal distribution (Box–Muller). *)

val sample_cdf : t -> float array -> len:int -> int array
(** [sample_cdf t cdf ~len] draws [len] indices by inversion of the
    cumulative weights [cdf] (non-decreasing, finite, non-empty).  Draw
    [j] is exactly what a binary search over {!float} returns: the first
    [i] with [cdf.(i) >= float t *. cdf.(n-1)], clamped to [n-1] — same
    values, same stream position afterwards.  A guide table of
    [min (16 n) 4096] buckets, rebuilt per call and dropped on return,
    puts each draw within a step or two of its answer, and an exact
    backward/forward walk finishes it.  Allocates only the table and the
    result.  Raises [Invalid_argument] on an empty [cdf] or a negative
    [len]. *)

val split : t -> t
(** Derive an independent generator (for parallel subsystems). *)

val checkpoint : t -> unit -> unit
(** [checkpoint t] captures the current stream position; calling the
    returned thunk rewinds [t] to it (simulator state snapshots). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)
