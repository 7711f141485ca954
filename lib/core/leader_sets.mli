(** Appendix B: detecting adaptive policies and leader sets by thrashing
    probes and set-dueling manipulation.

    Protocol: measure each set's thrash signature (how much of a working
    set survives a sweep of 2x-associativity fresh blocks), drive the PSEL
    duel in both directions by pounding each signature group, and
    re-measure: sets whose signature never moves are fixed (leaders),
    the rest are followers. *)

type classification =
  | Fixed_vulnerable  (** leader running the thrash-vulnerable policy (New2) *)
  | Fixed_resistant  (** leader running the thrash-resistant policy *)
  | Follower  (** adaptive: follows the PSEL duel *)

val classification_to_string : classification -> string

type scan_result = {
  slice : int;
  set : int;
  signatures : int list;  (** surviving blocks per probe round *)
  classification : classification;
}

val scan :
  ?slice:int -> ?pound_rounds:int -> Cq_hwsim.Machine.t -> int list -> scan_result list
(** Classify the given L3 set indices of [slice]. *)

val check_against_model :
  Cq_hwsim.Cpu_model.t -> ?slice:int -> scan_result list -> int list * int list
(** [(detected, expected)]: detected vulnerable leaders vs. the model's
    ground-truth index formula, over the scanned sets. *)
