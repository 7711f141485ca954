(** Input/output alphabets of replacement policies (Table 1 of the paper).

    For automata learning the input alphabet is flattened to
    [0 .. assoc]: inputs [0 .. assoc-1] are [Line i], input [assoc] is
    [Evct]. *)

type input = Line of int | Evct

type output = int option
(** [None] is the paper's ⊥ (on line accesses); [Some i] is the evicted
    line index (on [Evct]). *)

val input_to_int : assoc:int -> input -> int
val input_of_int : assoc:int -> int -> input
val n_inputs : assoc:int -> int

val pp_input : Format.formatter -> input -> unit
val pp_output : Format.formatter -> output -> unit

val input_label : assoc:int -> int -> string
(** Label of a flattened input ("Ln(i)" or "Evct"), for DOT export. *)

val output_label : output -> string

