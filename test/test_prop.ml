(* Property-based differential harness: every executor in the repository
   that claims to implement a replacement policy must agree on random
   access sequences.

   For every policy in the zoo, seeded random words are run through
   - the pure step function ([Policy.run]),
   - the mutable instance wrapper ([Instance.step]),
   - the explicit Mealy automaton ([Policy.to_mealy]),
   - the cache-set transition system ([Cache_set], hit/miss level),
   - the hardware simulator's set model ([Cq_hwsim.Cache_level]),
   - the hardware simulator's checkpoints against a fresh replay, and
   - Polca over a simulated cache ([Polca.run], the Algorithm 1
     abstraction round-trip: policy word -> block trace -> policy word),
   - Polca's trie sessions over word batches against per-word runs, on
     the simulated zoo and a quiet Haswell L1,
   - the zipf trace generator's guide-table sampler against the binary
     search over [Prng.float] it replaced,
   plus, for a few small policies, the automaton actually learned by
   [Learn.run_simulated].

   Everything is driven by the deterministic splitmix PRNG, so a failure
   reproduces exactly.  PROP_ITERS scales the word count per policy
   (default 100; CI runs a deeper pass). *)

module P = Cq_policy.Policy
module T = Cq_policy.Types
module Instance = Cq_policy.Instance
module Mealy = Cq_automata.Mealy
module Prng = Cq_util.Prng
module Learn = Cq_core.Learn

let iters =
  match Option.bind (Sys.getenv_opt "PROP_ITERS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 100

(* One generator per (test, policy) pair: adding a policy to the zoo or a
   test to this file does not perturb the words of the others. *)
let prng_for test_name policy_name =
  Prng.of_int (Hashtbl.hash (test_name, policy_name))

let random_word prng ~n_symbols =
  let len = 1 + Prng.int prng 24 in
  List.init len (fun _ -> Prng.int prng n_symbols)

(* Zoo policies at a fixed small associativity (4 suits every entry,
   including PLRU's power-of-two constraint). *)
let assoc = 4

let zoo_policies () =
  List.filter_map
    (fun e ->
      if e.Cq_policy.Zoo.valid_assoc assoc then
        Some (e.Cq_policy.Zoo.name, e.Cq_policy.Zoo.make assoc)
      else None)
    Cq_policy.Zoo.entries

(* In-order map: the differential executors are stateful, so evaluation
   order is part of the semantics. *)
let map_in_order f inputs =
  List.rev (List.fold_left (fun acc i -> f i :: acc) [] inputs)

let pp_word word = String.concat "," (List.map string_of_int word)

let check_agree ~what ~policy_name word expected actual =
  if expected <> actual then
    Alcotest.fail
      (Printf.sprintf "%s diverges from Policy.run on %s for word [%s]" what
         policy_name (pp_word word))

(* --- Pure step vs mutable instance vs explicit automaton -------------- *)

let test_instance_and_mealy_agree () =
  List.iter
    (fun (name, policy) ->
      let prng = prng_for "instance-mealy" name in
      let machine = P.to_mealy policy in
      for _ = 1 to iters do
        let word = random_word prng ~n_symbols:(T.n_inputs ~assoc) in
        let inputs = List.map (T.input_of_int ~assoc) word in
        let truth = P.run policy inputs in
        let inst = Instance.create policy in
        check_agree ~what:"Instance.step" ~policy_name:name word truth
          (map_in_order (Instance.step inst) inputs);
        check_agree ~what:"Mealy automaton" ~policy_name:name word truth
          (Mealy.run machine word)
      done)
    (zoo_policies ())

(* --- Cache_set vs an instance-driven reference model ------------------ *)

(* The reference is the textbook reading of Definition 2.3, written
   directly against the policy instance: a hit touches the matched line,
   a miss asks the policy for a victim and installs the block there. *)
let reference_cache_run policy blocks =
  let inst = Instance.create policy in
  let content = Array.of_list (Cq_cache.Block.first (P.assoc policy)) in
  let step b =
    let way = ref None in
    Array.iteri
      (fun w x -> if !way = None && Cq_cache.Block.equal x b then way := Some w)
      content;
    match !way with
    | Some w ->
        Instance.touch inst w;
        Cq_cache.Cache_set.Hit
    | None ->
        let victim = Instance.evict inst in
        content.(victim) <- b;
        Cq_cache.Cache_set.Miss
  in
  let results = map_in_order step blocks in
  (results, Array.copy content)

let test_cache_set_matches_reference () =
  List.iter
    (fun (name, policy) ->
      let prng = prng_for "cache-set" name in
      let set = Cq_cache.Cache_set.create policy in
      for _ = 1 to iters do
        (* Blocks from a pool slightly wider than the set: plenty of both
           hits and conflict misses. *)
        let word = random_word prng ~n_symbols:(assoc + 3) in
        let blocks = List.map Cq_cache.Block.of_index word in
        let expected, expected_content = reference_cache_run policy blocks in
        let actual = Cq_cache.Cache_set.run_from_reset set blocks in
        if expected <> actual then
          Alcotest.fail
            (Printf.sprintf "Cache_set diverges on %s for blocks [%s]" name
               (pp_word word));
        if expected_content <> Cq_cache.Cache_set.content set then
          Alcotest.fail
            (Printf.sprintf "Cache_set content diverges on %s for blocks [%s]"
               name (pp_word word))
      done)
    (zoo_policies ())

(* --- Cq_hwsim.Cache_level vs the same reference ----------------------- *)

(* The hardware simulator's set model adds invalid ways (a level starts
   empty) and the fill_touches_policy distinction; the reference below
   mirrors exactly those two rules on top of the policy instance. *)
let reference_level_run policy ~fill_touches_policy lines =
  let inst = Instance.create policy in
  let content = Array.make (P.assoc policy) None in
  let step line =
    let found = ref None in
    Array.iteri
      (fun w b -> if !found = None && b = Some line then found := Some w)
      content;
    match !found with
    | Some w ->
        Instance.touch inst w;
        `Hit
    | None -> (
        let invalid = ref None in
        Array.iteri
          (fun w b -> if !invalid = None && b = None then invalid := Some w)
          content;
        match !invalid with
        | Some w ->
            content.(w) <- Some line;
            if fill_touches_policy then Instance.touch inst w;
            `Fill None
        | None ->
            let victim = Instance.evict inst in
            let evicted = content.(victim) in
            content.(victim) <- Some line;
            `Fill evicted)
  in
  map_in_order step lines

let hwsim_level_run policy ~fill_touches_policy lines =
  let spec =
    {
      Cq_hwsim.Cpu_model.assoc = P.assoc policy;
      slices = 1;
      sets_per_slice = 4;
      hit_latency = 4;
      policy = Cq_hwsim.Cpu_model.Fixed (fun _ -> policy);
      fill_touches_policy;
    }
  in
  let level =
    Cq_hwsim.Cache_level.create ~prng:(Prng.of_int 7) Cq_hwsim.Cpu_model.L1 spec
  in
  let step line =
    let way = Cq_hwsim.Cache_level.find level ~slice:0 ~set:0 ~line in
    if way <> Cq_hwsim.Cache_level.invalid then begin
      Cq_hwsim.Cache_level.hit level ~slice:0 ~set:0 ~way;
      `Hit
    end
    else
      let evicted =
        Cq_hwsim.Cache_level.fill level ~slice:0 ~set:0 ~line ~use_b:false
      in
      `Fill (if evicted = Cq_hwsim.Cache_level.invalid then None else Some evicted)
  in
  map_in_order step lines

let test_hwsim_level_matches_reference () =
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun fill_touches_policy ->
          let prng =
            prng_for
              (Printf.sprintf "hwsim-level-%b" fill_touches_policy)
              name
          in
          for _ = 1 to iters do
            let lines = random_word prng ~n_symbols:(assoc + 3) in
            let expected =
              reference_level_run policy ~fill_touches_policy lines
            in
            let actual = hwsim_level_run policy ~fill_touches_policy lines in
            if expected <> actual then
              Alcotest.fail
                (Printf.sprintf
                   "Cache_level (fill_touches_policy=%b) diverges on %s for \
                    lines [%s]"
                   fill_touches_policy name (pp_word lines))
          done)
        [ true; false ])
    (zoo_policies ())

(* --- Polca round-trip (Algorithm 1) ----------------------------------- *)

(* Polca abstracts the block-level cache back into the policy alphabet;
   composed with the policy-induced cache this must be the identity on
   output words (Theorem 3.1 / Corollary 3.4). *)
let test_polca_roundtrip_identity () =
  List.iter
    (fun (name, policy) ->
      let prng = prng_for "polca-roundtrip" name in
      let polca = Cq_core.Polca.create (Cq_cache.Oracle.of_policy policy) in
      let machine = P.to_mealy policy in
      (* Each Polca word replays probe fan-outs, so go a bit easier. *)
      for _ = 1 to max 1 (iters / 4) do
        let word = random_word prng ~n_symbols:(T.n_inputs ~assoc) in
        check_agree ~what:"Polca round-trip" ~policy_name:name word
          (Mealy.run machine word)
          (Cq_core.Polca.run polca word)
      done)
    (zoo_policies ())

(* --- Trie sessions against per-word runs -------------------------------

   A batch of words run as one live trie session — Polca's [query_batch],
   and a prefetch that [query] then consumes — must answer every word as
   running it alone does ([Polca.run]): on the simulated zoo at assoc 2–8,
   and through the CacheQuery stack on a quiet Haswell L1 (the device
   whose resets cost timed loads, where prefetches are run).  Batches carry
   shared prefixes, duplicates and words that are prefixes of others, as
   conformance chunks do.  Under an unsound oracle the first failing word
   raises exactly what [Polca.run] raises for it. *)

let random_batch prng ~n_symbols =
  let base =
    List.init (1 + Prng.int prng 12) (fun _ -> random_word prng ~n_symbols)
  in
  List.concat_map
    (fun w ->
      match Prng.int prng 4 with
      | 0 -> [ w; List.filteri (fun i _ -> i < Prng.int prng (List.length w)) w ]
      | 1 -> [ w; w @ random_word prng ~n_symbols ]
      | 2 -> [ w; w ]
      | _ -> [ w ])
    base

(* [Ok answers], or the message of the first Non_deterministic. *)
let outcome f =
  match f () with
  | answers -> Ok answers
  | exception Cq_core.Polca.Non_deterministic msg -> Error msg

let check_sessions ~what polca words =
  let per_word = outcome (fun () -> List.map (Cq_core.Polca.run polca) words) in
  let m = Cq_core.Polca.moracle polca in
  let fail how =
    Alcotest.fail
      (Printf.sprintf "%s: %s differs from per-word runs on [%s]" what how
         (String.concat "; " (List.map pp_word words)))
  in
  if outcome (fun () -> m.Cq_learner.Moracle.query_batch words) <> per_word then
    fail "query_batch";
  if
    outcome (fun () ->
        m.Cq_learner.Moracle.prefetch (List.to_seq words);
        List.map m.Cq_learner.Moracle.query words)
    <> per_word
  then fail "prefetch + query"

let test_trie_sessions_match_runs () =
  List.iter
    (fun (e : Cq_policy.Zoo.entry) ->
      for assoc = 2 to 8 do
        if e.Cq_policy.Zoo.valid_assoc assoc then begin
          let name = e.Cq_policy.Zoo.name in
          let policy = e.Cq_policy.Zoo.make assoc in
          let prng = prng_for "trie-session" (Printf.sprintf "%s-%d" name assoc) in
          let sound = Cq_cache.Oracle.of_policy policy in
          (* A broken reset: the oracle claims lines the cache never held. *)
          let unsound =
            {
              sound with
              Cq_cache.Oracle.initial_content =
                Array.init assoc (fun i -> Cq_cache.Block.of_index (100 + i));
            }
          in
          for _ = 1 to max 1 (iters / 20) do
            let words = random_batch prng ~n_symbols:(T.n_inputs ~assoc) in
            let what = Printf.sprintf "%s-%d" name assoc in
            check_sessions ~what (Cq_core.Polca.create sound) words;
            check_sessions ~what:(what ^ " (unsound)")
              (Cq_core.Polca.create ~retries:1 unsound)
              words
          done
        end
      done)
    Cq_policy.Zoo.entries;
  let machine =
    Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise
      Cq_hwsim.Cpu_model.haswell
  in
  let backend =
    Cq_cachequery.Backend.create machine
      { Cq_cachequery.Backend.level = Cq_hwsim.Cpu_model.L1; slice = 0; set = 0 }
  in
  ignore (Cq_cachequery.Backend.calibrate backend);
  let frontend =
    Cq_cachequery.Frontend.create
      ~reset:
        (Cq_cachequery.Frontend.Flush_then
           (Cq_mbl.Ast.Seq [ Cq_mbl.Ast.At; Cq_mbl.Ast.At ]))
      backend
  in
  (* With the frontend's stats, Polca sees the reset's timed loads, which
     is what turns speculation on. *)
  let polca =
    Cq_core.Polca.create
      ~stats:(Cq_cachequery.Frontend.stats frontend)
      (Cq_cachequery.Frontend.oracle frontend)
  in
  let prng = prng_for "trie-session" "haswell-L1" in
  for _ = 1 to max 1 (iters / 10) do
    let words =
      random_batch prng ~n_symbols:(Cq_core.Polca.n_inputs polca)
    in
    check_sessions ~what:"Haswell L1" polca words
  done

(* --- The learned automaton -------------------------------------------- *)

(* End-to-end: the automaton L* actually learns through Polca from a
   simulated cache agrees with the ground-truth policy on random words
   (not only on the conformance suite that drove the learning). *)
let test_learned_automaton_agrees () =
  List.iter
    (fun (name, assoc) ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
      match Learn.run_simulated ~identify:false policy with
      | Learn.Partial { failure; _ } ->
          Alcotest.fail
            (Fmt.str "learning %s-%d failed: %a" name assoc Learn.pp_failure
               failure)
      | Learn.Complete report ->
          let machine = report.Learn.machine in
          let prng = prng_for "learned" name in
          for _ = 1 to iters do
            let word = random_word prng ~n_symbols:(T.n_inputs ~assoc) in
            let inputs = List.map (T.input_of_int ~assoc) word in
            check_agree ~what:"learned automaton" ~policy_name:name word
              (P.run policy inputs)
              (Mealy.run machine word)
          done)
    [ ("FIFO", 3); ("LRU", 2); ("PLRU", 2); ("MRU", 3) ]

(* Soundness of the symmetry quotient: for every policy in the zoo, the
   machine learned with the quotient on is trace-equivalent to the
   ground-truth automaton.  The quotient may only change *how many
   queries* the table spends, never *what* it learns — an alias that
   survives verification but alters the machine would show up here.
   The quotient run also validates against the policy axioms, which
   re-checks the merge witness with anchored product walks.

   Equivalence is checked against the ground truth rather than against a
   direct (quotient-off) run because the direct baseline is not always
   sound at conformance depth 1: BIP-3's minimal machine has 24 states
   but plain Wp-depth-1 accepts a wrong 6-state hypothesis, while the
   quotient's sweep suffix refines the table far enough to learn the
   true machine.  Where the direct run is sound the two coincide (the
   assoc-scaling bench asserts that pairwise). *)
let test_quotient_learns_truth () =
  List.iter
    (fun (name, assoc) ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
      match
        Learn.run_simulated ~identify:false ~quotient:true ~validate:true
          policy
      with
      | Learn.Partial { failure; _ } ->
          Alcotest.fail
            (Fmt.str "quotient learning %s-%d failed: %a" name assoc
               Learn.pp_failure failure)
      | Learn.Complete report ->
          let truth = P.to_mealy policy in
          if not (Mealy.equivalent truth report.Learn.machine) then
            Alcotest.fail
              (Fmt.str
                 "%s-%d: quotient-learned machine differs from ground truth"
                 name assoc))
    [
      ("FIFO", 4); ("LRU", 4); ("PLRU", 4); ("MRU", 4); ("LIP", 4);
      ("BIP", 3); ("SRRIP-HP", 3); ("SRRIP-FP", 3); ("BRRIP", 3);
      ("New1", 3); ("New2", 3);
    ]

(* --- hwsim checkpoints against a fresh replay ---------------------------

   Random programs of loads, clflushes, wbinvds, CAT repartitions,
   checkpoints and restores of any checkpoint taken so far (in any order,
   any number of times) run on one machine.  A second machine of the same
   seed replays only the timeline that survives the restores, rebuilt from
   scratch after each one: every latency and the tags of every set the
   program can reach must agree.  The address pool covers an L3 leader-A,
   a leader-B and a follower set, with twice as many lines as ways, so the
   program exercises evictions, inclusive back-invalidation, the PSEL
   counter and (on Haswell) the noisy leader-B PRNG.

   Under noise (jitter, outliers and frequent bursts) every checkpoint
   rewinds it, so the replay draws the same noise.  Quiet programs also
   use [rewind_noise:false], which only leaves the noise stream (and the
   seeds of later CAT levels, which no CAT model draws from) where it
   is. *)

module M = Cq_hwsim.Machine
module CM = Cq_hwsim.Cpu_model

type hw_op = Load of int | Clflush of int | Wbinvd | Cat of int | Reset_cat

let hw_apply m = function
  | Load a -> Some (M.load m a)
  | Clflush a -> M.clflush m a; None
  | Wbinvd -> M.wbinvd m; None
  | Cat w -> M.set_cat_ways m w; None
  | Reset_cat -> M.reset_cat m; None

let pp_hw_op = function
  | Load a -> Printf.sprintf "load %#x" a
  | Clflush a -> Printf.sprintf "clflush %#x" a
  | Wbinvd -> "wbinvd"
  | Cat w -> Printf.sprintf "cat %d" w
  | Reset_cat -> "reset_cat"

(* One leader-A, one leader-B and one follower set of the model's L3. *)
let l3_duel_sets (model : CM.t) =
  match model.CM.l3.CM.policy with
  | CM.Fixed _ -> []
  | CM.Adaptive a ->
      let find p =
        let rec go set = if p ~slice:0 ~set then set else go (set + 1) in
        go 0
      in
      [
        find a.leader_a;
        find a.leader_b;
        find (fun ~slice ~set ->
            not (a.leader_a ~slice ~set || a.leader_b ~slice ~set));
      ]

(* CAT way counts every L3 policy accepts: powers of two (PLRU), >= 2
   (New2). *)
let rec log2 n = if n < 2 then 0 else 1 + log2 (n / 2)

let test_hwsim_checkpoints_match_replay () =
  List.iter
    (fun (model : CM.t) ->
      let prng = prng_for "hwsim-checkpoint" model.CM.name in
      let scout = M.create model in
      let l3_assoc = model.CM.l3.CM.assoc in
      let pool =
        Array.of_list
          (List.concat_map
             (fun set ->
               M.congruent_addresses scout CM.L3 ~slice:0 ~set (2 * l3_assoc))
             (l3_duel_sets model))
      in
      let watched =
        List.sort_uniq compare
          (List.concat_map
             (fun a ->
               List.map
                 (fun level ->
                   let slice, set = M.map_addr scout level a in
                   (level, slice, set))
                 CM.all_levels)
             (Array.to_list pool))
      in
      for program = 1 to iters do
        let seed = Int64.of_int (Prng.int prng 1_000_000) in
        let noisy = Prng.bool prng 0.5 in
        let noise =
          if noisy then { M.burst_noise with burst_prob = 0.02 }
          else M.quiet_noise
        in
        let prefetchers = Prng.bool prng 0.5 in
        let fresh () =
          let m = M.create ~seed ~noise model in
          M.set_prefetchers m prefetchers;
          m
        in
        let m = fresh () in
        let reference = ref (fresh ()) in
        let timeline = ref [] (* surviving ops, newest first *) in
        let checkpoints = ref [||] in
        let fail step what =
          Alcotest.fail
            (Printf.sprintf
               "%s program %d (seed %Ld, noisy %b, prefetchers %b), step %d: \
                %s; surviving timeline [%s]"
               model.CM.name program seed noisy prefetchers step what
               (String.concat "; " (List.rev_map pp_hw_op !timeline)))
        in
        let compare_sets step =
          List.iter
            (fun (level, slice, set) ->
              if M.peek_set m level ~slice ~set
                 <> M.peek_set !reference level ~slice ~set
              then
                fail step
                  (Printf.sprintf "%s set (%d, %d) differs"
                     (CM.level_to_string level) slice set))
            watched
        in
        let addr () = pool.(Prng.int prng (Array.length pool)) in
        for step = 1 to 40 + Prng.int prng 200 do
          let roll = Prng.int prng 100 in
          let op =
            if roll < 70 then Some (Load (addr ()))
            else if roll < 78 then Some (Clflush (addr ()))
            else if roll < 79 then Some Wbinvd
            else if roll < 82 && model.CM.supports_cat then
              Some
                (if Prng.bool prng 0.5 then Reset_cat
                 else Cat (2 lsl Prng.int prng (log2 l3_assoc)))
            else None
          in
          (match op with
          | Some op ->
              let got = hw_apply m op and want = hw_apply !reference op in
              if got <> want then
                fail step
                  (Printf.sprintf "%s: latency %s, replay %s" (pp_hw_op op)
                     (Option.fold ~none:"-" ~some:string_of_int got)
                     (Option.fold ~none:"-" ~some:string_of_int want));
              timeline := op :: !timeline
          | None when roll < 91 || Array.length !checkpoints = 0 ->
              let rewind_noise = noisy || Prng.bool prng 0.5 in
              checkpoints :=
                Array.append !checkpoints
                  [| (M.checkpoint ~rewind_noise m, !timeline) |]
          | None ->
              let restore, survivors =
                !checkpoints.(Prng.int prng (Array.length !checkpoints))
              in
              restore ();
              timeline := survivors;
              let r = fresh () in
              List.iter (fun op -> ignore (hw_apply r op)) (List.rev survivors);
              reference := r);
          compare_sets step
        done
      done)
    [ CM.haswell; CM.skylake; CM.toy ]

(* --- Zipf sampler vs the binary search it replaced ---------------------

   [Prng.sample_cdf] must return exactly what the original generator did:
   per draw, the first index whose cumulative weight reaches
   [Prng.float *. total], found by binary search.  That search is kept
   here as the reference, and [Trace.of_spec] output is compared against
   it over wide and narrow universes, flat to degenerate skews (alpha 50
   and 400 underflow most weights to zero, leaving long plateaus in the
   CDF) and lengths up to 20k.  The spec goes through its printed form,
   so every case also checks that the canonical alpha reads back. *)

let reference_zipf ~n ~alpha ~len ~seed =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for b = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (b + 1) ** alpha));
    cdf.(b) <- !total
  done;
  let prng = Prng.of_int seed in
  Array.init len (fun _ ->
      let u = Prng.float prng *. !total in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) >= u then hi := mid else lo := mid + 1
      done;
      !lo)

let test_zipf_sampler_matches_binary_search () =
  let prng = Prng.of_int (Hashtbl.hash "zipf-sampler") in
  for _ = 1 to iters do
    let n =
      if Prng.bool prng 0.5 then 1 + Prng.int prng 64
      else 1 + Prng.int prng 5000
    in
    let alpha =
      match Prng.int prng 6 with
      | 0 -> 0.0
      | 1 -> 1.2
      | 2 -> 50.0
      | 3 -> 400.0
      | _ -> 3.0 *. Prng.float prng
    in
    let len = 1 + Prng.int prng 20_000 in
    let seed = Prng.int prng 1_000_000_000 - 500_000_000 in
    let spec =
      Printf.sprintf "zipf:n=%d,alpha=%s,len=%d,seed=%d" n
        (Cq_util.Json.shortest_float alpha)
        len seed
    in
    let t = Cq_workload.Trace.of_spec_exn spec in
    if t.Cq_workload.Trace.blocks <> reference_zipf ~n ~alpha ~len ~seed then
      Alcotest.fail (spec ^ ": blocks differ from the binary-search reference")
  done

let suite =
  ( "prop",
    [
      Alcotest.test_case "instance & automaton agree with Policy.run" `Quick
        test_instance_and_mealy_agree;
      Alcotest.test_case "Cache_set matches the reference model" `Quick
        test_cache_set_matches_reference;
      Alcotest.test_case "hwsim Cache_level matches the reference model" `Quick
        test_hwsim_level_matches_reference;
      Alcotest.test_case "hwsim checkpoints match a fresh replay" `Quick
        test_hwsim_checkpoints_match_replay;
      Alcotest.test_case "Polca round-trip is the identity" `Quick
        test_polca_roundtrip_identity;
      Alcotest.test_case "trie sessions answer as per-word runs" `Quick
        test_trie_sessions_match_runs;
      Alcotest.test_case "learned automata agree on random words" `Quick
        test_learned_automaton_agrees;
      Alcotest.test_case "zipf sampler matches the binary search" `Quick
        test_zipf_sampler_matches_binary_search;
      Alcotest.test_case "quotient learning recovers ground truth (full zoo)"
        `Slow test_quotient_learns_truth;
    ] )
