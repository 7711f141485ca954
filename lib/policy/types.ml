(* Input/output alphabets of replacement policies (Table 1 in the paper).

   A policy of associativity [n] consumes inputs [Line i] (the i-th cache
   line was touched) and [Evct] (a line must be freed), and emits either
   [None] (the paper's ⊥) or [Some i] (line [i] is to be evicted).  For
   automata learning the input alphabet is flattened to [0 .. n]: inputs
   [0 .. n-1] are [Line i] and input [n] is [Evct]. *)

type input = Line of int | Evct

type output = int option
(* [None] is the paper's ⊥ (on line accesses); [Some i] is the evicted line
   index (on [Evct]). *)

let input_to_int ~assoc = function
  | Line i ->
      if i < 0 || i >= assoc then invalid_arg "Types.input_to_int: line out of range";
      i
  | Evct -> assoc

let input_of_int ~assoc i =
  if i < 0 || i > assoc then invalid_arg "Types.input_of_int: out of range"
  else if i = assoc then Evct
  else Line i

let n_inputs ~assoc = assoc + 1

let pp_input ppf = function
  | Line i -> Fmt.pf ppf "Ln(%d)" i
  | Evct -> Fmt.string ppf "Evct"

let pp_output ppf = function
  | None -> Fmt.string ppf "_" (* ⊥ *)
  | Some i -> Fmt.int ppf i

let input_label ~assoc i =
  if i = assoc then "Evct" else Printf.sprintf "Ln(%d)" i

let output_label = function None -> "_" | Some i -> string_of_int i

