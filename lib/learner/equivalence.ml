(* Equivalence oracles: approximations of the teacher's equivalence query
   by conformance testing (§3.3).

   The main oracle is the Wp-method with depth parameter [k]; it and the
   W-method (kept for the suite ablation) build (|H| + k)-complete test
   suites, giving the guarantee of Theorem 3.3 / Corollary 3.4 — if the
   suite passes, the true machine is equivalent to the hypothesis or has
   more than |H| + k states.

   A random-walk oracle is provided as the cheaper heuristic alternative
   the paper mentions, and a "perfect" oracle (ground truth available) is
   used in tests and ablations. *)

type 'o t = 'o Cq_automata.Mealy.t -> int list option

(* Shortest distinguishing words for every pair of [states] of [m].  Built
   incrementally: while two of them are unseparated, find a shortest
   distinguishing word via product BFS and add it. *)
let separators m states =
  let w = ref [] in
  let signature s =
    List.map (fun word -> Cq_automata.Mealy.run_from m s word) !w
  in
  (* Pairs of states no input word separates.  An honest L* hypothesis has
     none (rows are distinct), but a transient measurement flip can corrupt
     a table cell into distinguishing two rows whose machine states are
     equivalent.  Aborting here would kill the whole learn; instead leave
     such pairs unseparated — the conformance suite built from the partial
     set still exercises the corrupt hypothesis and surfaces a
     counterexample, which lets the learner repair its table. *)
  let unseparable : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
  let finished = ref false in
  while not !finished do
    let groups : ('a, int) Hashtbl.t = Hashtbl.create 97 in
    let clash = ref None in
    (* Find two states with equal signatures (ignoring unseparable pairs). *)
    List.iter
      (fun s ->
        if !clash = None then begin
          let sg = Cq_util.Deep.pack (signature s) in
          match Hashtbl.find_opt groups sg with
          | Some s' ->
              if not (Hashtbl.mem unseparable (s', s)) then clash := Some (s', s)
          | None -> Hashtbl.add groups sg s (* cq-lint: allow hashtbl-add: find_opt miss *)
        end)
      states;
    match !clash with
    | None -> finished := true
    | Some (p, q) -> (
        match
          Cq_automata.Mealy.find_counterexample ~from_a:(Some p)
            ~from_b:(Some q) m m
        with
        | Some word -> w := word :: !w
        | None -> Hashtbl.replace unseparable (p, q) ())
  done;
  !w

let all_states m = List.init (Cq_automata.Mealy.n_states m) Fun.id

(* Characterization set: a set of input words separating every pair of
   states of [m]. *)
let characterization_set m = separators m (all_states m)

(* All input words of length [len], lexicographic. *)
let words_of_length n_inputs len =
  let rec go len =
    if len = 0 then Seq.return []
    else
      Seq.concat_map
        (fun w -> Seq.init n_inputs (fun i -> w @ [ i ]))
        (go (len - 1))
  in
  go len

(* All input words of length <= k, shortest first, lazily: suites built on
   top of this never materialise the O(n_inputs^k) middle layer, and a
   conformance-testing round that fails early only pays for the prefix it
   actually walked. *)
let words_up_to n_inputs k =
  Seq.concat (Seq.init (k + 1) (fun len -> words_of_length n_inputs len))

(* W-method test suite for hypothesis [h] with depth [k]:
   { access(s) · i · m · w  |  s state, i input, m ∈ I^{<=k}, w ∈ W ∪ {ε} }.
   Returned lazily as a Seq so the caller can stop at the first failure. *)
let w_method_suite ~depth h =
  let n_inputs = Cq_automata.Mealy.n_inputs h in
  let access = Cq_automata.Mealy.access_sequences h in
  let w_set = [] :: characterization_set h in
  let middles = words_up_to n_inputs depth in
  let states = List.init (Cq_automata.Mealy.n_states h) (fun s -> s) in
  (* Order tests roughly by length: iterate middles outermost (they grow),
     then states, inputs, and suffixes. *)
  middles
  |> Seq.concat_map (fun m ->
         List.to_seq states
         |> Seq.concat_map (fun s ->
                let acc = Option.value (access.(s)) ~default:[] in
                Seq.init n_inputs (fun i ->
                    List.to_seq w_set |> Seq.map (fun w -> acc @ (i :: m) @ w))
                |> Seq.concat))

(* Run a test word against the oracle and the (compiled) hypothesis.  The
   hypothesis is compiled once per conformance round — [Mealy.agrees]
   walks the flattened tables without allocating, where [Mealy.run] paid a
   tuple and an output-list cell per symbol. *)
let run_test (oracle : 'o Moracle.t) compiled word =
  not (Cq_automata.Mealy.agrees compiled word (oracle.Moracle.query word))

(* The first suite word on which the oracle and [h] disagree.  The suite
   is walked in chunks: each chunk is announced to the oracle
   ([Moracle.prefetch]), then its words are queried one at a time, in
   order, stopping at the first counterexample — so the queries, and
   everything counted on them, are exactly those of a word-at-a-time
   walk, while the device may run a whole chunk in one session.  Chunks
   start small, since a wrong hypothesis usually fails early, and double
   with every passing chunk.  The schedule depends on nothing but the
   suite, so traced, untraced and resumed runs issue the same chunks.  A
   chunk's words are generated twice, for the announcement and for the
   walk, rather than held. *)
let find (oracle : 'o Moracle.t) h suite =
  let c = Cq_automata.Mealy.compile h in
  let rec walk n suite =
    if n = 0 then `Next suite
    else
      match Seq.uncons suite with
      | None -> `Found None
      | Some (w, rest) ->
          if run_test oracle c w then `Found (Some w) else walk (n - 1) rest
  in
  let rec go size suite =
    oracle.Moracle.prefetch (Seq.take size suite);
    match walk size suite with
    | `Found cex -> cex
    | `Next rest -> go (min 1024 (2 * size)) rest
  in
  Fun.protect
    ~finally:(fun () -> oracle.Moracle.prefetch Seq.empty)
    (fun () -> go 16 suite)

let w_method ?(depth = 1) (oracle : 'o Moracle.t) : 'o t =
 fun h -> find oracle h (w_method_suite ~depth h)


(* The Wp-method [Fujiwara et al. 1991], the suite the paper actually uses
   (§3.4): phase 1 tests the state cover against the full characterization
   set W; phase 2 tests the transition cover against the *state
   identification set* W_s of the state each test word reaches — a subset
   of W sufficient to tell s apart from every other state.  Same
   (|H|+k)-completeness as the W-method, usually far fewer symbols. *)

(* For each of [states], a minimal-ish subset of W distinguishing it from
   every other of [states]: greedily pick words that split off the
   remaining confusable states.  Other states get the empty set. *)
let identification_sets_of m states w_set =
  let response s w = Cq_automata.Mealy.run_from m s w in
  let wp = Array.make (Cq_automata.Mealy.n_states m) [] in
  List.iter
    (fun s ->
      let confusable = ref (List.filter (fun t -> t <> s) states) in
      let chosen = ref [] in
      List.iter
        (fun w ->
          if !confusable <> [] then begin
            let rs = response s w in
            let still = List.filter (fun t -> response t w = rs) !confusable in
            if List.length still < List.length !confusable then begin
              chosen := w :: !chosen;
              confusable := still
            end
          end)
        w_set;
      (* W separates every separable pair; states that survive are
         genuinely equivalent in a corrupt (non-minimal) hypothesis — see
         [separators] — and no identification word can help. *)
      wp.(s) <- List.rev !chosen)
    states;
  wp

let identification_sets m w_set = identification_sets_of m (all_states m) w_set

(* The one Wp suite generator: phases 1 and 2 over the states [covered]
   marks, in state order.  Without [sweep] every state is covered and
   this is the Wp suite proper.

   With [sweep] it is the focused suite of a quotient-learned hypothesis,
   where [covered] marks the representative states.  A full Wp suite
   over the unfolded machine defeats the point of the quotient: its cost
   scales with the |assoc|!-sized orbit closure, and the identification
   sets alone are quadratic in states.  Instead the suite trusts the
   structure the table verified and spends accordingly:

   - representative states get the full treatment, with the sweep (which
     fingerprints a state's line frame) first among the distinguishers;
     a transition landing on an aliased state is identified by the sweep
     alone — it fingerprints the state's frame, which is exactly what the
     alias asserted;
   - aliased states get a spot-check: access word . sweep confirms the
     state's claimed frame, access word . input . sweep each outgoing
     transition's output and target frame.

   This trades the (|H|+k)-completeness bound for a suite whose size
   scales with states x inputs instead of states^2 — wrong merges still
   surface (the sweep pins the frame the merge asserted), and the learned
   machine is re-validated independently by Automaton_check and policy
   identification. *)
let wp_suite ~depth ~covered ?sweep h =
  let n_inputs = Cq_automata.Mealy.n_inputs h in
  let access = Cq_automata.Mealy.access_sequences h in
  let acc s = Option.value access.(s) ~default:[] in
  let states = List.filter (fun s -> covered.(s)) (all_states h) in
  let w_set =
    let w = separators h states in
    match sweep with Some sw -> sw :: w | None -> w
  in
  let w_all = [] :: w_set in
  let wp = identification_sets_of h states w_set in
  let uncovered = match sweep with Some sw -> [ sw ] | None -> [ [] ] in
  let middles = words_up_to n_inputs depth in
  let phase1 =
    (* state cover x I^{<=k} x (W ∪ {ε}) *)
    List.to_seq states
    |> Seq.concat_map (fun s ->
           let acc = acc s in
           middles
           |> Seq.concat_map (fun m ->
                  List.to_seq w_all |> Seq.map (fun w -> acc @ m @ w)))
  in
  let phase2 =
    (* transition cover x I^{<=k} x Wp(reached state) *)
    List.to_seq states
    |> Seq.concat_map (fun s ->
           let acc = acc s in
           Seq.init n_inputs (fun i ->
               middles
               |> Seq.concat_map (fun m ->
                      let prefix = acc @ (i :: m) in
                      let reached = Cq_automata.Mealy.state_after h prefix in
                      let ws =
                        if not covered.(reached) then uncovered
                        else match wp.(reached) with [] -> [ [] ] | ws -> ws
                      in
                      List.to_seq ws |> Seq.map (fun w -> prefix @ w)))
           |> Seq.concat)
  in
  (* Each [Seq.append] layer costs every word beneath it a cell and a
     closure, so the Wp suite proper gets no empty spot layer. *)
  match sweep with
  | None -> Seq.append phase1 phase2
  | Some sweep ->
      (* Every aliased state has its claimed frame confirmed.  Outgoing
         transitions are the frame-conjugates of the representative's
         (all of which phase2 tests in full), so per-transition spots
         only guard the conjugation itself: they run in full while
         affordable, and fall back to a deterministic 1-in-4 sample of
         the aliased states once the unfolding is large enough that full
         spots would scale with the orbit closure instead of the
         quotient. *)
      let aliased = List.filter (fun s -> not covered.(s)) (all_states h) in
      let full_spots = List.length aliased * n_inputs <= 8192 in
      let spot =
        List.to_seq (List.mapi (fun j s -> (j, s)) aliased)
        |> Seq.concat_map (fun (j, s) ->
               if full_spots || j mod 4 = 0 then
                 Seq.cons
                   (acc s @ sweep)
                   (Seq.init n_inputs (fun i -> acc s @ (i :: sweep)))
               else Seq.return (acc s @ sweep))
      in
      Seq.append phase1 (Seq.append phase2 spot)

let wp_method_suite ~depth h =
  wp_suite ~depth ~covered:(Array.make (Cq_automata.Mealy.n_states h) true) h

let wp_method ?(depth = 1) (oracle : 'o Moracle.t) : 'o t =
 fun h -> find oracle h (wp_method_suite ~depth h)

let wp_quotient ?(depth = 1) ~is_rep ~sweep (oracle : 'o Moracle.t) : 'o t =
 fun h ->
  (* While the unfolding is small, completeness is affordable — and the
     two suites catch different wrong machines.  The full Wp suite is
     (|H|+depth)-complete, which bites when a wrong merge still unfolds
     to at least the true machine's size (LIP); the focused suite's
     sweep distinguishers catch under-sized hypotheses whose state count
     voids that bound (BIP's 6-state impostor).  Run both when small;
     for unfoldings big enough that the full suite would scale with the
     orbit closure, the focused suite alone carries the test. *)
  let n = Cq_automata.Mealy.n_states h in
  let small = n * Cq_automata.Mealy.n_inputs h <= 512 in
  let focused = wp_suite ~depth ~covered:(Array.init n is_rep) ~sweep h in
  find oracle h
    (if small then Seq.append focused (wp_method_suite ~depth h) else focused)

(* Random walks: [max_tests] random words of length up to [max_len]. *)
let random_walk ~prng ?(max_tests = 10_000) ?(max_len = 30)
    (oracle : 'o Moracle.t) : 'o t =
 fun h ->
  let n_inputs = oracle.Moracle.n_inputs in
  let c = Cq_automata.Mealy.compile h in
  let rec go t =
    if t >= max_tests then None
    else
      let len = 1 + Cq_util.Prng.int prng max_len in
      let word = List.init len (fun _ -> Cq_util.Prng.int prng n_inputs) in
      if run_test oracle c word then Some word else go (t + 1)
  in
  go 0

(* Ground truth available: exact equivalence via product BFS. *)
let perfect (truth : 'o Cq_automata.Mealy.t) : 'o t =
 fun h -> Cq_automata.Mealy.find_counterexample truth h

(* Total number of input symbols in a suite — the cost metric for the
   W-vs-Wp ablation. *)
let suite_symbols suite =
  Seq.fold_left (fun acc w -> acc + List.length w) 0 suite
