(* Registry of all concrete policies, keyed by name.  Used by the CLIs, by
   the Table 2 / Table 5 benchmark sweeps, and by policy identification
   (matching a learned automaton against known policies, which is how the
   paper recognised PLRU in L1 and labelled New1/New2 as undocumented). *)

type entry = {
  name : string;
  make : int -> Policy.t; (* associativity -> policy *)
  valid_assoc : int -> bool;
}

let entries : entry list =
  [
    { name = "FIFO"; make = Fifo.make; valid_assoc = (fun n -> n >= 1) };
    { name = "LRU"; make = Lru.make; valid_assoc = (fun n -> n >= 1) };
    { name = "PLRU"; make = Plru.make; valid_assoc = (fun n -> n >= 1) };
    { name = "MRU"; make = Mru.make; valid_assoc = (fun n -> n >= 2) };
    { name = "LIP"; make = Lip.make; valid_assoc = (fun n -> n >= 1) };
    { name = "BIP"; make = (fun n -> Bip.make n); valid_assoc = (fun n -> n >= 1) };
    {
      name = "SRRIP-HP";
      make = Srrip.make Srrip.Hit_priority;
      valid_assoc = (fun n -> n >= 1);
    };
    {
      name = "SRRIP-FP";
      make = Srrip.make Srrip.Frequency_priority;
      valid_assoc = (fun n -> n >= 1);
    };
    { name = "BRRIP"; make = (fun n -> Srrip.make_brrip n); valid_assoc = (fun n -> n >= 1) };
    { name = "New1"; make = Newpol.make_new1; valid_assoc = (fun n -> n >= 2) };
    { name = "New2"; make = Newpol.make_new2; valid_assoc = (fun n -> n >= 2) };
  ]

let names = List.map (fun e -> e.name) entries

let find name = List.find_opt (fun e -> String.equal e.name name) entries

let make ~name ~assoc =
  match find name with
  | None -> Error (Printf.sprintf "unknown policy %S (known: %s)" name (String.concat ", " names))
  | Some e ->
      if e.valid_assoc assoc then Ok (e.make assoc)
      else Error (Printf.sprintf "policy %s does not support associativity %d" name assoc)

let make_exn ~name ~assoc =
  match make ~name ~assoc with Ok p -> p | Error msg -> invalid_arg msg

(* Identify an automaton: return the names of all known policies that are
   trace-equivalent to it *up to the observation artefacts of hardware
   learning*:

   - the learner starts from the state the reset sequence establishes, so
     the reference may match from any of its control states;
   - the reset sequence may place the initial blocks in permuted lines
     (e.g. 'D C B A @' reverses them), so the learned machine may be the
     reference conjugated by a permutation of the line indices.

   State counts differ across the zoo (they are the paper's Table 2
   values), so the minimal-state prefilter eliminates almost every
   candidate before the expensive search. *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs

(* Conjugate machine [m] (alphabet Ln(0..n-1), Evct) by line permutation
   [perm]: input Ln(j) of the result behaves as Ln(perm(j)) of [m], and
   output line [i] is renamed to the j with perm(j) = i. *)
let relabel_lines assoc perm (m : Types.output Cq_automata.Mealy.t) =
  let inverse = Array.make assoc 0 in
  List.iteri (fun j i -> inverse.(i) <- j) perm;
  let perm = Array.of_list perm in
  let n = Cq_automata.Mealy.n_states m in
  let k = Cq_automata.Mealy.n_inputs m in
  let map_in j = if j = assoc then assoc else perm.(j) in
  let map_out = function None -> None | Some i -> Some inverse.(i) in
  let next =
    Array.init n (fun s -> Array.init k (fun j -> Cq_automata.Mealy.next_state m s (map_in j)))
  in
  let out =
    Array.init n (fun s ->
        Array.init k (fun j -> map_out (Cq_automata.Mealy.output m s (map_in j))))
  in
  Cq_automata.Mealy.make ~init:(Cq_automata.Mealy.init m) ~n_inputs:k ~next ~out

(* Does [m] match [reference] started from *some* control state? *)
let matches_from_some_state reference m =
  let n = Cq_automata.Mealy.n_states reference in
  let rec go s =
    s < n
    && (Cq_automata.Mealy.find_counterexample ~from_a:(Some s) reference m = None
       || go (s + 1))
  in
  go 0

let identify ?(extra = []) ?(max_perm_assoc = 5) (m : Types.output Cq_automata.Mealy.t) =
  let assoc = Cq_automata.Mealy.n_inputs m - 1 in
  let m = Cq_automata.Mealy.minimize m in
  let m_states = Cq_automata.Mealy.n_states m in
  let candidates =
    List.filter_map
      (fun e -> if e.valid_assoc assoc then Some (e.make assoc) else None)
      entries
    @ extra
  in
  let perms =
    let identity = List.init assoc (fun i -> i) in
    if assoc <= max_perm_assoc then permutations identity else [ identity ]
  in
  List.filter_map
    (fun p ->
      (* Candidates far bigger than the learned machine cannot match; bound
         the reference enumeration so that giants (SRRIP-FP at assoc 8 has
         4^8 states) are rejected cheaply.  The slack accommodates
         transient reference states that a reset state cannot reach. *)
      let budget = max (4 * m_states) (m_states + 64) in
      match Policy.to_mealy ~max_states:budget p with
      | exception Failure _ -> None
      | reference ->
      let reference = Cq_automata.Mealy.minimize reference in
      (* A machine learned from a reset state can reach at most as many
         states as the full reference (transient reference states may be
         unreachable from the reset state, e.g. SRRIP's initial ages). *)
      if Cq_automata.Mealy.n_states reference < m_states then None
      else if
        List.exists
          (fun perm -> matches_from_some_state reference (relabel_lines assoc perm m))
          perms
      then Some (Policy.name p)
      else None)
    candidates
