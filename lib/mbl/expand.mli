(** Expansion of MBL expressions into sets of concrete queries — the formal
    semantics of Appendix A of the paper. *)

type element = { block : Cq_cache.Block.t; tag : Ast.tag option }

type query = element list
(** A sequence of memory operations: block plus optional tag
    ([?] profile, [!] flush). *)

exception Expansion_error of string

val expand : ?max_queries:int -> assoc:int -> Ast.t -> query list
(** Expand at the given associativity.  Raises [Expansion_error] when the
    result would exceed [max_queries] (default 65536) or the expression is
    ill-tagged. *)

val expand_string : ?max_queries:int -> assoc:int -> string -> query list
(** Parse ([Parser.parse]) and expand. *)

val query_to_string : query -> string

val blocks : query -> Cq_cache.Block.t list
(** Blocks in access order, tags stripped. *)

val profiled_indices : query -> int list
(** Positions of the ['?']-tagged accesses. *)
