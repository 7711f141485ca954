(** A minimal JSON tree: the one value every emitter in the repository
    builds.

    The repository deliberately has no JSON dependency.  The daemon's
    wire format ({!to_string}), the metrics registry and trace exporters,
    the analysis reports and the bench artifacts ({!to_string_pretty})
    all build a [t] and print it here, so there is one escaping rule and
    one clamp for non-finite floats.  The parser is the smallest
    recursive descent that reads all of them back.  Integers are kept distinct from floats
    so session ids and query counts survive a round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} on malformed input; the message carries a byte
    offset. *)

val parse : string -> t
(** Parse one JSON document.  Trailing non-whitespace input is an error
    (frames carry exactly one document). *)

val parse_opt : string -> t option

val to_string : t -> string
(** Compact (single-line) serialization, the daemon's wire format.
    Floats print with [%.17g]; NaN and infinities, which JSON cannot
    spell, are clamped to [0] and [±1e308]. *)

val to_string_pretty : t -> string
(** Multi-line serialization for files, without a trailing newline:
    ["key": value] pairs, two-space indent, one element per line — except
    that a list or object holding only scalars stays on one line.  Floats
    print with the first of [%.15g], [%.16g] and [%.17g] that reads back
    as the same value. *)

val shortest_float : float -> string
(** The fewest significant digits that read back as the same float
    (the first of [%.15g], [%.16g], [%.17g] that round-trips; any float
    whose [%g] form round-trips keeps that form): what files print for
    finite floats, and how trace specs spell their parameters. *)

val pp : Format.formatter -> t -> unit

(** {1 Accessors}

    All partial accessors return [option]; [member] on a non-object is
    [None] (absent and wrong-shape look the same to the protocol layer,
    which answers [bad_request] either way). *)

val member : string -> t -> t option
val to_int : t -> int option
(** [Int n] and integral [Float]s both convert. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option

val of_int_list : int list -> t
val int_list : t -> int list option
(** [Some] only if the value is a list of integers. *)
