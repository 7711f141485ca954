(* Replacement policies as Mealy machines (Definition 2.1).

   A policy is packaged with an existential state type: concrete
   implementations keep whatever control state they like (permutation lists
   for LRU, tree bits for PLRU, age vectors for RRIP-family policies), as
   long as states are immutable and structurally comparable, which lets us
   enumerate the reachable state space into an explicit automaton. *)

type t =
  | Policy : {
      name : string;
      assoc : int;
      init : 's;
      step : 's -> Types.input -> 's * Types.output;
      describe : string;
    }
      -> t

let v ?(describe = "") ~name ~assoc ~init ~step () =
  if assoc < 1 then invalid_arg "Policy.v: associativity must be >= 1";
  Policy { name; assoc; init; step; describe }

let name (Policy p) = p.name
let assoc (Policy p) = p.assoc
let describe (Policy p) = p.describe

(* Check the well-formedness conditions (a)/(b) of Definition 2.1 on a
   single step: Evct must name a line, Line accesses must output ⊥. *)
let checked_step ~assoc step s input =
  let s', out = step s input in
  (match (input, out) with
  | Types.Evct, Some i when i >= 0 && i < assoc -> ()
  | Types.Evct, _ -> invalid_arg "Policy: Evct must output a line index"
  | Types.Line _, None -> ()
  | Types.Line _, Some _ -> invalid_arg "Policy: Line access must output ⊥");
  (s', out)

let run (Policy p) inputs =
  let state = ref p.init in
  List.map
    (fun input ->
      let s', out = checked_step ~assoc:p.assoc p.step !state input in
      state := s';
      out)
    inputs

let to_mealy ?(max_states = 2_000_000) (Policy p) =
  let n_inputs = Types.n_inputs ~assoc:p.assoc in
  Cq_automata.Mealy.of_fun ~init:p.init ~n_inputs
    ~step:(fun s i ->
      checked_step ~assoc:p.assoc p.step s (Types.input_of_int ~assoc:p.assoc i))
    ~max_states

let n_minimal_states ?max_states p =
  Cq_automata.Mealy.n_states (Cq_automata.Mealy.minimize (to_mealy ?max_states p))

let equivalent a b =
  assoc a = assoc b && Cq_automata.Mealy.equivalent (to_mealy a) (to_mealy b)

(* Advance the initial state through an input word.  [warmed p] advances
   through associativity-many [Evct] inputs: this is the control state after
   the initial cache fill, which is where Polca-based learning starts (the
   oracle needs a full cache).  State counts in Table 2 refer to the machine
   reachable from this warmed-up state. *)
let advance (Policy p) inputs =
  let init =
    List.fold_left
      (fun s input -> fst (checked_step ~assoc:p.assoc p.step s input))
      p.init inputs
  in
  Policy { p with init }

let warmed p = advance p (List.init (assoc p) (fun _ -> Types.Evct))

(* The victim a policy chooses from its initial state after a given warm-up
   input word; handy in tests. *)
let victim_after (Policy p) inputs =
  let state =
    List.fold_left (fun s input -> fst (p.step s input)) p.init inputs
  in
  match p.step state Types.Evct with
  | _, Some i -> i
  | _, None -> invalid_arg "Policy.victim_after: policy returned ⊥ on Evct"

(* Identity of a learned machine: MD5 of the DOT rendering of its
   canonical form.  Unlike [Marshal] bytes, this text depends only on
   the behaviour, not on state numbering, sharing or the compiler. *)
let machine_digest m =
  let assoc = Cq_automata.Mealy.n_inputs m - 1 in
  Digest.to_hex
    (Digest.string
       (Cq_automata.Mealy.to_dot ~input_label:(Types.input_label ~assoc)
          ~output_label:Types.output_label
          (Cq_automata.Mealy.canonicalize m)))
