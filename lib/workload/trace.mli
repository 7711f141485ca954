(** Synthetic single-set access traces.

    A trace is a sequence of block ids over a bounded universe, aimed at
    one cache set: the replayer maps ids to ways (or to congruent
    addresses, for hwsim).  Every generator is driven by {!Cq_util.Prng},
    so a trace is a pure function of its spec string — CI and the
    property tests regenerate traces from specs alone. *)

type t = {
  label : string;  (** human-readable name, e.g. ["zipf(n=64,α=1.2)"] *)
  spec : string;  (** canonical spec; [of_spec spec] rebuilds the trace *)
  universe : int;  (** block ids lie in [0, universe) *)
  blocks : int array;
}

(** {2 Spec grammar}

    One shell-safe token describes a trace:

    {v
    zipf:n=64,alpha=1.2,len=10000,seed=1
    uniform:n=64,len=10000,seed=1
    seq:n=16,len=10000
    stride:n=64,stride=3,len=10000
    anti:ws=9,len=10000
    v}

    Every key is optional; unspecified keys take the defaults above.
    [anti] without [ws] defaults to [assoc + 1] when [of_spec] is given
    the target associativity (else [9]). *)

val of_spec : ?assoc:int -> string -> (t, string) result
(** Parse and generate.  [Error] carries a human-readable diagnostic,
    for a malformed spec and for an out-of-range value alike (a
    non-positive size, a negative or non-finite [alpha]). *)

val of_spec_exn : ?assoc:int -> string -> t

val spec_syntax : string
(** One-line grammar summary for [--help] texts. *)
