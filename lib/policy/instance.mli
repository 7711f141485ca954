(** A running instance of a policy: a mutable wrapper around the pure step
    function.  Cache simulators keep one instance per cache set. *)

type t

val create : Policy.t -> t
val policy : t -> Policy.t
val assoc : t -> int

val step : t -> Types.input -> Types.output
(** Advance the instance by one input, returning the output. *)

val reset : t -> unit
(** Return to the policy's initial control state. *)

val checkpoint : t -> unit -> unit
(** Capture the current control state; the returned thunk restores it.
    Checkpoints nest. *)

val copy : t -> t
(** An independent instance in the same control state. *)

val touch : t -> int -> unit
(** [step] with [Line i], discarding the (⊥) output. *)

val evict : t -> int
(** [step] with [Evct], returning the victim line. *)
