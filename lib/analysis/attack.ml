(* Static security analysis of learned replacement-policy automata.

   Everything here is search and fixpoint over the policy automaton —
   no randomness, no wall clock — so equal machines produce equal
   reports, and the reports are validated dynamically by replaying the
   synthesized words as concrete block traces (see [concretize]):
   through the three Cq_workload.Replay paths and through a hwsim
   machine built around the policy ([verify], [verify_hwsim]).

   The analysis starts from the *primed* configuration: a cold set
   filled with attacker blocks 0..assoc-1 (block w in way w), the
   automaton in the state those fills establish (fills touch the policy,
   hwsim's fill_touches_policy).  That makes the primed state the shared
   anchor of the searches, the leakage experiments and the replays. *)

module Mealy = Cq_automata.Mealy
module Types = Cq_policy.Types
module Policy = Cq_policy.Policy
module Replay = Cq_workload.Replay

type strategy = { word : int list; length : int; accesses : int; misses : int }
type eviction = { target : int; strategy : strategy }

type stealthy = {
  starget : int;
  setup : int list;
  body : int list;
  repeatable : bool;
}

type leakage = {
  probe_classes : int;
  evicted_information : float;
  absorbed_noise : int;
  reachable_states : int;
  observation_classes : int;
  residual_information : float;
}

type report = {
  name : string;
  assoc : int;
  states : int;
  evictions : eviction list;
  eviction_set_size : int;
  eviction_length : int;
  stealthies : stealthy list;
  stealthy : stealthy option;
  leakage : leakage;
}

let strategy_of_word assoc word =
  {
    word;
    length = List.length word;
    accesses = List.length (List.filter (fun i -> i < assoc) word);
    misses = List.length (List.filter (fun i -> i = assoc) word);
  }

let pp_strategy ~assoc ppf s =
  Fmt.pf ppf "%s  (%d accesses, %d misses)"
    (String.concat " "
       (List.map
          (fun i -> if i = assoc then "miss" else Printf.sprintf "Ln(%d)" i)
          s.word))
    s.accesses s.misses

let assoc_of m =
  let a = Mealy.n_inputs m - 1 in
  if a < 1 then invalid_arg "Attack: machine has no Evct input";
  a

(* The state a cold fill of blocks 0..assoc-1 establishes. *)
let primed_state m =
  let assoc = assoc_of m in
  let s = ref (Mealy.init m) in
  for w = 0 to assoc - 1 do
    s := Mealy.next_state m !s w
  done;
  !s

let evct_output m s =
  let assoc = assoc_of m in
  match Mealy.output m s assoc with
  | Some v when v >= 0 && v < assoc -> v
  | Some _ -> invalid_arg "Attack: Evct output out of range"
  | None -> invalid_arg "Attack: machine emits ⊥ on Evct"

(* --- eviction synthesis ------------------------------------------------ *)

(* Shortest eviction word under the PRIME+PROBE model: the attacker never
   touches the victim's line; cost is lexicographic (fresh blocks
   spent, then word length), so the result's miss count *is* the minimal
   eviction-set size from the primed state.  Dijkstra over the automaton
   with edge costs (0,1) for Ln and (1,1) for Evct. *)
module Pq = Set.Make (struct
  type t = int * int * int (* misses, length, state *)

  let compare = compare
end)

let shortest_eviction m ~target =
  let assoc = assoc_of m in
  if target < 0 || target >= assoc then
    invalid_arg "Attack: target out of range";
  let n = Mealy.n_states m in
  let inf = max_int in
  let dist_m = Array.make n inf and dist_l = Array.make n inf in
  let pred = Array.make n (-1, -1) (* state, input *) in
  let start = primed_state m in
  dist_m.(start) <- 0;
  dist_l.(start) <- 0;
  let pq = ref (Pq.singleton (0, 0, start)) in
  let best = ref None (* (misses, length, final state before Evct) *) in
  let better (m1, l1) (m2, l2) = m1 < m2 || (m1 = m2 && l1 < l2) in
  while not (Pq.is_empty !pq) do
    let ((dm, dl, s) as node) = Pq.min_elt !pq in
    pq := Pq.remove node !pq;
    if dm = dist_m.(s) && dl = dist_l.(s) then begin
      (* Close the word with Evct from here if that evicts the target. *)
      if evct_output m s = target then begin
        let cand = (dm + 1, dl + 1) in
        match !best with
        | Some (bm, bl, _) when not (better cand (bm, bl)) -> ()
        | _ -> best := Some (fst cand, snd cand, s)
      end;
      for i = 0 to assoc do
        if i <> target then begin
          let cost_m = if i = assoc then 1 else 0 in
          (* An Evct that evicts the target mid-word would be a shorter
             closing move, already handled above; other Evcts are plain
             edges. *)
          if not (i = assoc && evct_output m s = target) then begin
            let s' = Mealy.next_state m s i in
            let dm' = dm + cost_m and dl' = dl + 1 in
            if better (dm', dl') (dist_m.(s'), dist_l.(s')) then begin
              dist_m.(s') <- dm';
              dist_l.(s') <- dl';
              pred.(s') <- (s, i);
              pq := Pq.add (dm', dl', s') !pq
            end
          end
        end
      done
    end
  done;
  match !best with
  | None -> None
  | Some (_, _, last) ->
      let rec walk s acc =
        if s = start && dist_l.(s) = 0 then acc
        else
          let p, i = pred.(s) in
          walk p (i :: acc)
      in
      let word = walk last [] @ [ assoc ] in
      Some { target; strategy = strategy_of_word assoc word }

(* --- stealthy (RELOAD+REFRESH) synthesis -------------------------------- *)

(* Search the product of the automaton with (seen a miss?, reloaded the
   target?) flags for the shortest controlling word that never evicts
   the target line.  Preference order: a repeatable cycle (body returns
   the automaton to its entry state, so the hit/miss pattern sustains
   forever), else a one-shot word from the primed state. *)
let find_stealthy ?(max_anchors = 512) m ~target =
  let assoc = assoc_of m in
  let n = Mealy.n_states m in
  let evct = assoc in
  let safe s i = not (i = evct && evct_output m s = target) in
  let start = primed_state m in
  (* Setup BFS over safe edges: shortest safe word from the primed state
     to every state. *)
  let setup_pred = Array.make n (-1, -1) in
  let setup_dist = Array.make n (-1) in
  let order = Queue.create () in
  let bfs_order = ref [] in
  setup_dist.(start) <- 0;
  Queue.add start order;
  while not (Queue.is_empty order) do
    let s = Queue.take order in
    bfs_order := s :: !bfs_order;
    for i = 0 to assoc do
      if safe s i then begin
        let s' = Mealy.next_state m s i in
        if setup_dist.(s') < 0 then begin
          setup_dist.(s') <- setup_dist.(s) + 1;
          setup_pred.(s') <- (s, i);
          Queue.add s' order
        end
      end
    done
  done;
  let anchors = List.rev !bfs_order in
  let setup_word a =
    let rec back s acc =
      if setup_dist.(s) = 0 then acc
      else
        let p, i = setup_pred.(s) in
        back p (i :: acc)
    in
    back a []
  in
  (* Flagged BFS from an anchor: shortest safe word hitting both flags
     and ending at [stop] (the anchor for cycles, any state for the
     one-shot fallback).  [max_depth] bounds the search: once a
     repeatable candidate is known, bodies that cannot beat it are never
     explored, which keeps the per-anchor cost shallow. *)
  let flagged_bfs ?max_depth from ~stop =
    let size = 4 * n in
    let dist = Array.make size (-1) in
    let pred = Array.make size (-1, -1) in
    let node s fe fr = (s * 4) + (fe * 2) + fr in
    let q = Queue.create () in
    let s0 = node from 0 0 in
    dist.(s0) <- 0;
    Queue.add s0 q;
    let goal = ref (-1) in
    let deep u =
      match max_depth with None -> false | Some d -> dist.(u) >= d
    in
    while !goal < 0 && not (Queue.is_empty q) do
      let u = Queue.take q in
      let s = u / 4 and fe = u / 2 land 1 and fr = u land 1 in
      if not (deep u) then
        for i = 0 to assoc do
          if !goal < 0 && safe s i then begin
            let s' = Mealy.next_state m s i in
            let fe' = if i = evct then 1 else fe in
            let fr' = if i = target then 1 else fr in
            let v = node s' fe' fr' in
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              pred.(v) <- (u, i);
              if fe' = 1 && fr' = 1
                 && (match stop with None -> true | Some a -> s' = a)
              then goal := v
              else Queue.add v q
            end
          end
        done
    done;
    if !goal < 0 then None
    else begin
      let rec back v acc =
        if dist.(v) = 0 then acc
        else
          let u, i = pred.(v) in
          back u (i :: acc)
      in
      Some (back !goal [])
    end
  in
  (* Repeatable: scan anchors in BFS order; setup lengths are
     nondecreasing, so stop once even a 2-input body cannot beat the
     best total.  After the first cycle is found, only a bounded number
     of further anchors is tried (each with a depth-bounded BFS): the
     result is a short deterministic cycle, not a certified-minimal
     one. *)
  let best = ref None (* total, setup, body *) in
  let tried = ref 0 in
  let after_best = ref 0 in
  (try
     List.iter
       (fun a ->
         incr tried;
         if !tried > max_anchors then raise Exit;
         (match !best with
         | Some (total, _, _) when setup_dist.(a) + 2 >= total -> raise Exit
         | Some _ ->
             incr after_best;
             if !after_best > 16 then raise Exit
         | None -> ());
         let max_depth =
           Option.map (fun (t, _, _) -> t - setup_dist.(a) - 1) !best
         in
         match flagged_bfs ?max_depth a ~stop:(Some a) with
         | None -> ()
         | Some body ->
             let total = setup_dist.(a) + List.length body in
             (match !best with
             | Some (t, _, _) when t <= total -> ()
             | _ -> best := Some (total, setup_word a, body)))
       anchors
   with Exit -> ());
  match !best with
  | Some (_, setup, body) ->
      Some { starget = target; setup; body; repeatable = true }
  | None -> (
      match flagged_bfs start ~stop:None with
      | Some body ->
          Some { starget = target; setup = []; body; repeatable = false }
      | None -> None)

(* --- leakage ------------------------------------------------------------ *)

(* The bounded probing experiment: prime, let the victim perform v
   conflicting accesses, probe own blocks once in order, observe only
   own hits/misses.  Replay-faithful set bookkeeping (lowest invalid way
   fills; full-set misses evict through the automaton). *)
let probe_vector m v =
  let assoc = assoc_of m in
  let content = Array.init assoc Fun.id in
  let state = ref (primed_state m) in
  let fresh = ref assoc in
  let step_evct () =
    let victim = evct_output m !state in
    state := Mealy.next_state m !state assoc;
    content.(victim) <- !fresh;
    incr fresh
  in
  for _ = 1 to v do
    step_evct ()
  done;
  let vec = Bytes.make assoc '0' in
  (* Probe newest-primed first: the classic anti-thrashing order.  An
     ascending probe on LRU self-evicts — the refill of block 0 evicts
     block 1 just before its probe — collapsing every v >= 1 to the same
     all-miss vector; descending, the probe only refills behind itself
     and the miss count equals the victim intensity. *)
  for b = assoc - 1 downto 0 do
    let way = ref (-1) in
    Array.iteri (fun w blk -> if blk = b then way := w) content;
    if !way >= 0 then begin
      Bytes.set vec b '1';
      state := Mealy.next_state m !state !way
    end
    else begin
      (* The probe refills its own block. *)
      let victim = evct_output m !state in
      state := Mealy.next_state m !state assoc;
      content.(victim) <- b
    end
  done;
  Bytes.to_string vec

(* Observation-partition fixpoint over the states reachable from the
   primed state: refine by (output row, successor class row) until
   stable.  On a minimized machine this recovers the discrete partition;
   on a raw learned machine it measures behavioural redundancy. *)
let observation_partition m =
  let n = Mealy.n_states m in
  let k = Mealy.n_inputs m in
  let reach = Array.make n false in
  let q = Queue.create () in
  let start = primed_state m in
  reach.(start) <- true;
  Queue.add start q;
  let n_reach = ref 0 in
  while not (Queue.is_empty q) do
    let s = Queue.take q in
    incr n_reach;
    for i = 0 to k - 1 do
      let s' = Mealy.next_state m s i in
      if not reach.(s') then begin
        reach.(s') <- true;
        Queue.add s' q
      end
    done
  done;
  let cls = Array.make n 0 in
  let n_classes = ref 1 in
  let changed = ref true in
  while !changed do
    changed := false;
    let sigs = Hashtbl.create 97 in
    let next_id = ref 0 in
    let fresh = Array.make n 0 in
    for s = 0 to n - 1 do
      if reach.(s) then begin
        let signature =
          ( cls.(s),
            List.init k (fun i ->
                (Mealy.output m s i, cls.(Mealy.next_state m s i))) )
        in
        let id =
          match Hashtbl.find_opt sigs signature with
          | Some id -> id
          | None ->
              let id = !next_id in
              incr next_id;
              Hashtbl.replace sigs signature id;
              id
        in
        fresh.(s) <- id
      end
    done;
    if !next_id <> !n_classes then begin
      changed := true;
      n_classes := !next_id
    end;
    Array.blit fresh 0 cls 0 n
  done;
  (!n_reach, !n_classes, cls)

let log2 x = log x /. log 2.0

let leakage_of m =
  let assoc = assoc_of m in
  let vectors = List.init (assoc + 1) (fun v -> probe_vector m v) in
  let distinct = List.sort_uniq compare vectors in
  let probe_classes = List.length distinct in
  let reachable_states, observation_classes, cls = observation_partition m in
  (* Control-state residue: classes among the states 0..assoc victim
     accesses can reach — what an unbounded observer of the automaton
     state itself could recover. *)
  let victim_states =
    let s = ref (primed_state m) in
    List.init (assoc + 1) (fun v ->
        if v > 0 then s := Mealy.next_state m !s assoc;
        cls.(!s))
  in
  let residual_classes = List.length (List.sort_uniq compare victim_states) in
  {
    probe_classes;
    evicted_information = log2 (float_of_int probe_classes);
    absorbed_noise = assoc + 1 - probe_classes;
    reachable_states;
    observation_classes;
    residual_information = log2 (float_of_int residual_classes);
  }

(* --- the analysis entry points ------------------------------------------ *)

let analyze ?(name = "machine") m =
  let assoc = assoc_of m in
  let evictions =
    List.filter_map (fun t -> shortest_eviction m ~target:t) (List.init assoc Fun.id)
  in
  let eviction_set_size =
    List.fold_left (fun acc e -> max acc e.strategy.misses) 0 evictions
  in
  let eviction_length =
    List.fold_left (fun acc e -> max acc e.strategy.length) 0 evictions
  in
  let stealthies =
    List.filter_map (fun t -> find_stealthy m ~target:t) (List.init assoc Fun.id)
  in
  let stealthy =
    let score st =
      ( (if st.repeatable then 0 else 1),
        List.length st.setup + List.length st.body,
        st.starget )
    in
    match stealthies with
    | [] -> None
    | l -> Some (List.hd (List.sort (fun a b -> compare (score a) (score b)) l))
  in
  {
    name;
    assoc;
    states = Mealy.n_states m;
    evictions;
    eviction_set_size;
    eviction_length;
    stealthies;
    stealthy;
    leakage = leakage_of m;
  }

let analyze_policy p =
  analyze ~name:(Policy.name p) (Policy.to_mealy p)

(* --- dynamic validation ------------------------------------------------- *)

type concrete = { blocks : int array; predicted : Bytes.t }

let concretize ?probe m word =
  let assoc = assoc_of m in
  let content = Array.init assoc Fun.id in
  let state = ref (Mealy.init m) in
  let fresh = ref assoc in
  let blocks = ref [] and predicted = ref [] in
  let push b hit =
    blocks := b :: !blocks;
    predicted := (if hit then '\001' else '\000') :: !predicted
  in
  (* Priming: cold fills of blocks 0..assoc-1 touch ways 0..assoc-1. *)
  for w = 0 to assoc - 1 do
    push w false;
    state := Mealy.next_state m !state w
  done;
  List.iter
    (fun i ->
      if i < assoc then begin
        push content.(i) true;
        state := Mealy.next_state m !state i
      end
      else begin
        let b = !fresh in
        incr fresh;
        push b false;
        let victim = evct_output m !state in
        state := Mealy.next_state m !state assoc;
        content.(victim) <- b
      end)
    word;
  (match probe with
  | None -> ()
  | Some (`Evicted t) -> push t false
  | Some (`Resident t) -> push t true);
  {
    blocks = Array.of_list (List.rev !blocks);
    predicted = Bytes.of_string (String.init (List.length !predicted)
                                   (let arr = Array.of_list (List.rev !predicted) in
                                    fun i -> arr.(i)));
  }

let stealthy_word st =
  st.setup @ (if st.repeatable then st.body @ st.body @ st.body else st.body)

let check_stream label expected actual =
  if Bytes.equal expected actual then Ok ()
  else
    Error
      (Printf.sprintf "%s: predicted %S, replayed %S" label
         (Bytes.to_string expected) (Bytes.to_string actual))

let fold_results l =
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) l

(* Every strategy of a report as (label, probe, word). *)
let report_words r =
  List.map
    (fun e ->
      ( Printf.sprintf "%s eviction of line %d" r.name e.target,
        `Evicted e.target,
        e.strategy.word ))
    r.evictions
  @ List.map
      (fun st ->
        ( Printf.sprintf "%s stealthy sequence for line %d%s" r.name st.starget
            (if st.repeatable then " (x3)" else ""),
          `Resident st.starget,
          stealthy_word st ))
      r.stealthies

let verify p r =
  let m = Policy.to_mealy p in
  let c = Mealy.compile m in
  fold_results
    (List.concat_map
       (fun (label, probe, word) ->
         let conc = concretize ~probe m word in
         let via name outcome =
           check_stream (label ^ " via " ^ name) conc.predicted
             outcome.Replay.stream
         in
         [
           via "Replay.policy" (Replay.policy ~cold:true p conc.blocks);
           via "Replay.machine" (Replay.machine ~cold:true m conc.blocks);
           via "Replay.compiled" (Replay.compiled ~cold:true c conc.blocks);
         ])
       (report_words r))

(* A single-slice CPU model whose L1 runs the given policy at its
   associativity, with capacity headroom below so inclusive
   back-invalidation never touches the analyzed set. *)
let hw_model p =
  let assoc = Policy.assoc p in
  let lvl a sets hit pol =
    {
      Cq_hwsim.Cpu_model.assoc = a;
      slices = 1;
      sets_per_slice = sets;
      hit_latency = hit;
      policy = Cq_hwsim.Cpu_model.Fixed pol;
      fill_touches_policy = true;
    }
  in
  {
    Cq_hwsim.Cpu_model.name = "cq-attack probe";
    codename = "attack";
    line_size = 64;
    l1 = lvl assoc 2 4 (fun _ -> p);
    l2 = lvl 16 128 12 Cq_policy.Lru.make;
    l3 = lvl 16 512 40 Cq_policy.Lru.make;
    memory_latency = 200;
    supports_cat = false;
    slice_masks = [||];
  }

let verify_hwsim p r =
  let m = Policy.to_mealy p in
  let model = hw_model p in
  fold_results
    (List.map
       (fun (label, probe, word) ->
         let conc = concretize ~probe m word in
         let hw =
           Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model
         in
         Cq_hwsim.Machine.set_prefetchers hw false;
         let stream =
           Cq_hwsim.Machine.replay_set hw Cq_hwsim.Cpu_model.L1 ~slice:0
             ~set:0 conc.blocks
         in
         check_stream (label ^ " via hwsim") conc.predicted stream)
       (report_words r))

(* --- rendering ---------------------------------------------------------- *)

module Json = Cq_util.Json

let report_json r =
  let int n = Json.Int n and word w = Json.of_int_list w in
  let stealthy st =
    let misses = List.filter (fun i -> i = r.assoc) (st.setup @ st.body) in
    Json.Obj
      [
        ("target", int st.starget);
        ("setup_length", int (List.length st.setup));
        ("body_length", int (List.length st.body));
        ("misses", int (List.length misses));
        ("repeatable", Json.Bool st.repeatable);
        ("setup", word st.setup);
        ("body", word st.body);
      ]
  in
  let l = r.leakage in
  Json.Obj
    [
      ("policy", Json.String r.name);
      ("assoc", int r.assoc);
      ("states", int r.states);
      ("eviction_set_size", int r.eviction_set_size);
      ("eviction_length", int r.eviction_length);
      ( "evictions",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("target", int e.target);
                   ("length", int e.strategy.length);
                   ("accesses", int e.strategy.accesses);
                   ("misses", int e.strategy.misses);
                   ("word", word e.strategy.word);
                 ])
             r.evictions) );
      ( "stealthy",
        match r.stealthy with Some st -> stealthy st | None -> Json.Null );
      ( "leakage",
        Json.Obj
          [
            ("probe_classes", int l.probe_classes);
            ("evicted_information", Json.Float l.evicted_information);
            ("absorbed_noise", int l.absorbed_noise);
            ("reachable_states", int l.reachable_states);
            ("observation_classes", int l.observation_classes);
            ("residual_information", Json.Float l.residual_information);
          ] );
    ]

let pp_stealthy ~assoc ppf st =
  let word w =
    String.concat " "
      (List.map
         (fun i -> if i = assoc then "miss" else Printf.sprintf "Ln(%d)" i)
         w)
  in
  Fmt.pf ppf "target %d: %s[%s]%s" st.starget
    (match st.setup with [] -> "" | s -> word s ^ " | ")
    (word st.body)
    (if st.repeatable then " (repeatable)" else " (one-shot)")

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s (assoc %d, %d states)@," r.name r.assoc r.states;
  Fmt.pf ppf "  eviction set size %d, longest strategy %d@,"
    r.eviction_set_size r.eviction_length;
  List.iter
    (fun e ->
      Fmt.pf ppf "  evict line %d: %a@," e.target
        (pp_strategy ~assoc:r.assoc) e.strategy)
    r.evictions;
  (match r.stealthy with
  | None -> Fmt.pf ppf "  no stealthy sequence@,"
  | Some st -> Fmt.pf ppf "  stealthy %a@," (pp_stealthy ~assoc:r.assoc) st);
  let l = r.leakage in
  Fmt.pf ppf
    "  leakage: %.2f bits evicted (%d classes), %d noise levels absorbed, \
     %.2f bits residual (%d/%d states)@]"
    l.evicted_information l.probe_classes l.absorbed_noise
    l.residual_information l.observation_classes l.reachable_states

let pp_table ppf reports =
  let sorted =
    List.sort
      (fun a b ->
        match
          compare b.leakage.evicted_information a.leakage.evicted_information
        with
        | 0 -> (
            match compare a.eviction_set_size b.eviction_set_size with
            | 0 -> compare a.name b.name
            | c -> c)
        | c -> c)
      reports
  in
  Fmt.pf ppf "@[<v>%-10s %5s %7s %6s %6s %8s %6s %8s %8s@," "policy" "assoc"
    "states" "evset" "evlen" "stealth" "leak" "absorbed" "residual";
  List.iter
    (fun r ->
      let stealth =
        match r.stealthy with
        | None -> "-"
        | Some st ->
            Printf.sprintf "%d%s"
              (List.length st.setup + List.length st.body)
              (if st.repeatable then "R" else "!")
      in
      Fmt.pf ppf "%-10s %5d %7d %6d %6d %8s %6.2f %8d %8.2f@," r.name r.assoc
        r.states r.eviction_set_size r.eviction_length stealth
        r.leakage.evicted_information r.leakage.absorbed_noise
        r.leakage.residual_information)
    sorted;
  Fmt.pf ppf "@]"

(* --- DOT input ---------------------------------------------------------- *)

let machine_of_dot text =
  (* Infer the associativity from the largest Ln(i) label so "Evct" can
     be mapped to its dense index. *)
  let max_ln = ref (-1) in
  let len = String.length text in
  let rec scan i =
    if i + 3 < len then begin
      if String.sub text i 3 = "Ln(" then begin
        let j = ref (i + 3) in
        while !j < len && text.[!j] <> ')' do
          incr j
        done;
        (match int_of_string_opt (String.sub text (i + 3) (!j - i - 3)) with
        | Some k -> max_ln := max !max_ln k
        | None -> ());
        scan (!j + 1)
      end
      else scan (i + 1)
    end
  in
  scan 0;
  if !max_ln < 0 then Error "no Ln(i) edge labels found"
  else
    let assoc = !max_ln + 1 in
    Mealy.of_dot
      ~input_of_label:(fun l ->
        let l = String.trim l in
        if l = "Evct" then Some assoc
        else if String.length l > 4 && String.sub l 0 3 = "Ln(" then
          int_of_string_opt (String.sub l 3 (String.length l - 4))
        else None)
      ~output_of_label:(fun l ->
        let l = String.trim l in
        if l = "_" then Some None
        else Option.map (fun i -> Some i) (int_of_string_opt l))
      text
