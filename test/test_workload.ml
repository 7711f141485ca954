(* Workload engine tests: differential replay (the three replayer paths
   and hwsim must produce byte-identical hit/miss streams), the
   Belady-OPT optimality property, generator determinism, and the miss
   attribution invariants.

   Everything is seeded: traces come from canonical spec strings and the
   QCheck properties use a fixed seed-independent generator, so CI is
   deterministic. *)

module W = Cq_workload
module Trace = Cq_workload.Trace
module Replay = Cq_workload.Replay
module Opt = Cq_workload.Opt
module P = Cq_policy.Policy
module Zoo = Cq_policy.Zoo
module Mealy = Cq_automata.Mealy
module Learn = Cq_core.Learn

let zoo_at assoc =
  List.filter_map
    (fun e ->
      if e.Zoo.valid_assoc assoc then Some (e.Zoo.name, e.Zoo.make assoc)
      else None)
    Zoo.entries

let traces_for assoc =
  (* Seeded, spec-defined traces spanning the generator grammar; universe
     both below and above the associativity so fills, hits and evictions
     all occur. *)
  List.map
    (Trace.of_spec_exn ~assoc)
    [
      Printf.sprintf "uniform:n=%d,len=2000,seed=11" (2 * assoc);
      Printf.sprintf "zipf:n=%d,len=2000,alpha=1.1,seed=12" (4 * assoc);
      "zipf:n=3,len=500,seed=13";
      "anti:len=600";
      Printf.sprintf "stride:n=%d,stride=3,len=800" (3 * assoc);
    ]

let stream_to_string s = String.init (Bytes.length s) (Bytes.get s)

let check_stream name expected actual =
  Alcotest.(check string) name
    (stream_to_string expected)
    (stream_to_string actual)

(* --- differential replay: policy vs Mealy.step vs compiled ------------- *)

let test_differential_truth_machines () =
  List.iter
    (fun assoc ->
      List.iter
        (fun (name, p) ->
          let m = P.to_mealy p in
          let c = Mealy.compile m in
          List.iter
            (fun (tr : Trace.t) ->
              let o_policy = Replay.policy p tr.Trace.blocks in
              let o_machine = Replay.machine m tr.Trace.blocks in
              let o_compiled = Replay.compiled c tr.Trace.blocks in
              let tag path =
                Printf.sprintf "%s/%d %s: %s" name assoc tr.Trace.label path
              in
              check_stream (tag "policy=machine") o_policy.Replay.stream
                o_machine.Replay.stream;
              check_stream (tag "machine=compiled") o_machine.Replay.stream
                o_compiled.Replay.stream)
            (traces_for assoc))
        (zoo_at assoc))
    [ 4; 8 ]

(* Cold-start replay exercises the fill path. *)
let test_differential_cold_start () =
  List.iter
    (fun (name, p) ->
      let m = P.to_mealy p in
      let c = Mealy.compile m in
      List.iter
        (fun (tr : Trace.t) ->
          let o_policy = Replay.policy ~cold:true p tr.Trace.blocks in
          let o_machine = Replay.machine ~cold:true m tr.Trace.blocks in
          let o_compiled = Replay.compiled ~cold:true c tr.Trace.blocks in
          let tag path =
            Printf.sprintf "%s cold %s: %s" name tr.Trace.label path
          in
          check_stream (tag "policy=machine") o_policy.Replay.stream
            o_machine.Replay.stream;
          check_stream (tag "machine=compiled") o_machine.Replay.stream
            o_compiled.Replay.stream)
        (traces_for 4))
    (zoo_at 4)

(* Replay through machines actually produced by the learner, not just
   Policy.to_mealy ground truth. *)
let test_differential_learned_machines () =
  List.iter
    (fun name ->
      let p = Zoo.make_exn ~name ~assoc:4 in
      let report = Learn.learn_simulated ~identify:false p in
      let c = Mealy.compile report.Learn.machine in
      List.iter
        (fun (tr : Trace.t) ->
          let o_policy = Replay.policy p tr.Trace.blocks in
          let o_learned = Replay.compiled c tr.Trace.blocks in
          check_stream
            (Printf.sprintf "learned %s on %s" name tr.Trace.label)
            o_policy.Replay.stream o_learned.Replay.stream)
        (traces_for 4))
    [ "LRU"; "FIFO"; "PLRU" ]

(* hwsim as the load source: a cold toy-model L1 set must classify
   hits/misses exactly like the local replayers do for the same policy
   (PLRU, assoc 2, fill_touches_policy).  The universe stays small enough
   that no other level of the inclusive hierarchy ever evicts our lines,
   so back-invalidation cannot perturb the L1 set. *)
let test_differential_hwsim () =
  let module HM = Cq_hwsim.Machine in
  let module Cpu = Cq_hwsim.Cpu_model in
  let p = Zoo.make_exn ~name:"PLRU" ~assoc:2 in
  let c = Mealy.compile (P.to_mealy p) in
  List.iter
    (fun spec ->
      let tr = Trace.of_spec_exn spec in
      let hw = HM.create ~noise:HM.quiet_noise Cpu.toy in
      HM.set_prefetchers hw false;
      let hw_stream =
        HM.replay_set ~universe:4 hw Cpu.L1 ~slice:0 ~set:0 tr.Trace.blocks
      in
      let o_policy = Replay.policy ~cold:true p tr.Trace.blocks in
      let o_compiled = Replay.compiled ~cold:true c tr.Trace.blocks in
      check_stream ("hwsim=policy " ^ spec) hw_stream o_policy.Replay.stream;
      check_stream ("hwsim=compiled " ^ spec) hw_stream
        o_compiled.Replay.stream)
    [
      "uniform:n=4,len=1500,seed=21";
      "zipf:n=4,len=1500,alpha=0.9,seed=22";
      "anti:ws=3,len=900";
    ]

(* --- Belady-OPT --------------------------------------------------------- *)

(* QCheck: OPT's hit count bounds every zoo policy on arbitrary traces
   (shrinking gives a minimal counterexample on failure). *)
let prop_opt_dominates =
  let arb_blocks =
    QCheck.make
      ~print:(fun l -> String.concat "," (List.map string_of_int l))
      ~shrink:QCheck.Shrink.list
      QCheck.Gen.(list_size (0 -- 120) (0 -- 9))
  in
  QCheck.Test.make ~name:"Belady-OPT dominates every zoo policy" ~count:150
    arb_blocks (fun l ->
      let blocks = Array.of_list l in
      let assoc = 4 in
      let opt = Opt.replay ~assoc blocks in
      List.for_all
        (fun (name, p) ->
          let o = Replay.policy p blocks in
          if opt.Replay.hits >= o.Replay.hits then true
          else
            QCheck.Test.fail_reportf "%s beats OPT: %d > %d hits" name
              o.Replay.hits opt.Replay.hits)
        (zoo_at assoc))

(* Exhaustive oracle: the fewest misses any demand-fill replacement
   (invalid ways filled first, one eviction per full-set miss) can
   achieve, by trying every victim at every full-set miss.  Way
   positions do not affect misses, so a set is its sorted contents. *)
let min_misses ~assoc ~cold blocks =
  let n = Array.length blocks in
  let memo = Hashtbl.create 64 in
  let rec go j content =
    if j = n then 0
    else
      match Hashtbl.find_opt memo (j, content) with
      | Some m -> m
      | None ->
          let b = blocks.(j) in
          let m =
            if List.mem b content then go (j + 1) content
            else if List.length content < assoc then
              1 + go (j + 1) (List.sort compare (b :: content))
            else
              1
              + List.fold_left
                  (fun best v ->
                    let rest = List.filter (( <> ) v) content in
                    min best (go (j + 1) (List.sort compare (b :: rest))))
                  max_int content
          in
          Hashtbl.replace memo (j, content) m;
          m
  in
  go 0 (if cold then [] else List.init assoc Fun.id)

let prop_opt_exact =
  let gen =
    QCheck.Gen.(
      triple (2 -- 3) bool (list_size (0 -- 12) (0 -- 4)))
  in
  let print (assoc, cold, l) =
    Printf.sprintf "assoc=%d cold=%b [%s]" assoc cold
      (String.concat "," (List.map string_of_int l))
  in
  QCheck.Test.make ~name:"Belady-OPT misses equal the exhaustive minimum"
    ~count:300 (QCheck.make ~print gen) (fun (assoc, cold, l) ->
      let blocks = Array.of_list l in
      let opt = Opt.replay ~assoc ~cold blocks in
      opt.Replay.misses = min_misses ~assoc ~cold blocks)

let test_opt_deterministic () =
  let spec = "zipf:n=32,len=4000,seed=77" in
  let t1 = Trace.of_spec_exn spec and t2 = Trace.of_spec_exn spec in
  Alcotest.(check bool) "same spec, same blocks" true (t1.Trace.blocks = t2.Trace.blocks);
  let o1 = Opt.replay ~assoc:4 t1.Trace.blocks in
  let o2 = Opt.replay ~assoc:4 t2.Trace.blocks in
  check_stream "OPT stream deterministic" o1.Replay.stream o2.Replay.stream

let test_opt_beats_lru_on_anti_trace () =
  (* The adversarial loop: working set assoc+1 starves LRU completely,
     while clairvoyance keeps most accesses hits. *)
  let assoc = 4 in
  let tr = Trace.of_spec_exn ~assoc "anti:len=1000" in
  let lru = Replay.policy (Zoo.make_exn ~name:"LRU" ~assoc) tr.Trace.blocks in
  let opt = Opt.replay ~assoc tr.Trace.blocks in
  (* Blocks 0..assoc-1 are resident initially, so LRU gets exactly one
     warm lap of hits; after block [assoc] arrives it never hits again. *)
  Alcotest.(check int) "LRU starves on the anti-LRU loop" assoc
    lru.Replay.hits;
  Alcotest.(check bool) "OPT hits most of the loop" true
    (Replay.hit_rate opt > 0.5)

(* --- generators and spec grammar ---------------------------------------- *)

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      let t = Trace.of_spec_exn ~assoc:8 spec in
      let t' = Trace.of_spec_exn ~assoc:8 t.Trace.spec in
      Alcotest.(check string) ("canonical spec of " ^ spec) t.Trace.spec t'.Trace.spec;
      Alcotest.(check bool) ("blocks of " ^ spec) true (t.Trace.blocks = t'.Trace.blocks);
      Alcotest.(check bool)
        ("universe bounds ids of " ^ spec)
        true
        (Array.for_all (fun b -> b >= 0 && b < t.Trace.universe) t.Trace.blocks))
    [
      "zipf";
      "zipf:n=16,alpha=0.8,len=512,seed=5";
      (* %g cut these alphas to six digits, respecifying another trace. *)
      "zipf:n=64,alpha=1.23456789,len=100000,seed=3";
      "zipf:n=64,alpha=1.0000004,len=100000,seed=3";
      "uniform:n=10,len=256,seed=9";
      "seq:n=6,len=100";
      "stride:n=32,stride=5,len=333";
      "anti";
      "anti:ws=3,len=64";
    ];
  (* Alphas that print short keep their short form. *)
  List.iter
    (fun (spec, canonical) ->
      Alcotest.(check string) ("canonical spec of " ^ spec) canonical
        (Trace.of_spec_exn spec).Trace.spec)
    [
      ("zipf", "zipf:n=64,alpha=1.2,len=10000,seed=1");
      ("zipf:n=16,alpha=.80,len=512,seed=5", "zipf:n=16,alpha=0.8,len=512,seed=5");
      ("zipf:n=8,alpha=400,len=64,seed=2", "zipf:n=8,alpha=400,len=64,seed=2");
    ]

let test_spec_errors () =
  let is_error s =
    match Trace.of_spec s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown kind" true (is_error "markov:n=4");
  Alcotest.(check bool) "bad integer" true (is_error "zipf:n=abc");
  Alcotest.(check bool) "unknown key" true (is_error "seq:n=4,alpha=2");
  Alcotest.(check bool) "missing value" true (is_error "uniform:n");
  (* NaN slipped past [alpha < 0.] and yielded all block n-1; infinity
     yielded all block 0.  Out-of-range values are typed errors too. *)
  List.iter
    (fun spec -> Alcotest.(check bool) spec true (is_error spec))
    [
      "zipf:n=8,alpha=nan";
      "zipf:n=8,alpha=inf";
      "zipf:n=8,alpha=-inf";
      "zipf:n=8,alpha=-0.5";
      "zipf:n=0";
      "uniform:len=0";
      "stride:stride=-1";
    ]

(* The sampler draws into one result array: 100k draws must not allocate
   per draw (the binary search over boxed Prng.float took 8 words each,
   800k in all). *)
let test_zipf_allocation () =
  let spec = "zipf:n=64,len=100000,seed=1" in
  ignore (Trace.of_spec_exn spec);
  let before = Gc.minor_words () in
  let t = Trace.of_spec_exn spec in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "length" 100_000 (Array.length t.Trace.blocks);
  if words >= 10_000. then
    Alcotest.failf "%s allocated %.0f minor words (limit 10000)" spec words

let test_anti_defaults_to_assoc_plus_one () =
  let t = Trace.of_spec_exn ~assoc:4 "anti:len=10" in
  Alcotest.(check int) "ws = assoc + 1" 5 t.Trace.universe

(* --- miss attribution --------------------------------------------------- *)

let test_attribution_invariants () =
  let p = Zoo.make_exn ~name:"PLRU" ~assoc:4 in
  let c = Mealy.compile (P.to_mealy p) in
  let tr = Trace.of_spec_exn ~assoc:4 "zipf:n=12,len=3000,seed=31" in
  let attr = Replay.attribution c in
  let o = Replay.compiled ~attr c tr.Trace.blocks in
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "state misses sum to misses" o.Replay.misses
    (sum attr.Replay.state_misses);
  Alcotest.(check int) "state hits sum to hits" o.Replay.hits
    (sum attr.Replay.state_hits);
  (* Default initial content is a full set, so every miss evicts. *)
  Alcotest.(check int) "victims sum to misses" o.Replay.misses
    (sum attr.Replay.victims);
  let top = Replay.top_miss_states attr 3 in
  Alcotest.(check bool) "top rows sorted by misses" true
    (match top with
    | (_, m1, _) :: (_, m2, _) :: _ -> m1 >= m2
    | _ -> true)

let test_attribution_aggregates_across_traces () =
  let p = Zoo.make_exn ~name:"LRU" ~assoc:4 in
  let c = Mealy.compile (P.to_mealy p) in
  let t1 = Trace.of_spec_exn ~assoc:4 "uniform:n=8,len=500,seed=41" in
  let t2 = Trace.of_spec_exn ~assoc:4 "uniform:n=8,len=700,seed=42" in
  let attr = Replay.attribution c in
  let o1 = Replay.compiled ~attr c t1.Trace.blocks in
  let o2 = Replay.compiled ~attr c t2.Trace.blocks in
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "aggregated misses"
    (o1.Replay.misses + o2.Replay.misses)
    (sum attr.Replay.state_misses)

(* --- eval harness ------------------------------------------------------- *)

let test_eval_rows () =
  let traces = [ Trace.of_spec_exn ~assoc:4 "zipf:n=16,len=1000,seed=51" ] in
  let subjects =
    [ ("LRU", Zoo.make_exn ~name:"LRU" ~assoc:4);
      ("FIFO", Zoo.make_exn ~name:"FIFO" ~assoc:4) ]
  in
  let rows = W.Eval.policies subjects traces in
  Alcotest.(check int) "one row per subject x trace" 2 (List.length rows);
  List.iter
    (fun (r : W.Eval.row) ->
      Alcotest.(check bool)
        (r.W.Eval.subject ^ " bounded by OPT")
        true
        (r.W.Eval.opt_hits >= r.W.Eval.hits && r.W.Eval.accesses = 1000))
    rows

(* --- the daemon's replay verb ------------------------------------------- *)

(* The daemon must agree, number for number, with a local replay of the
   same spec: before a learn it replays the policy, after a learn it
   replays the learned machine — and the hit counts must not move. *)
let test_service_replay () =
  let module Server = Cq_service.Server in
  let module Client = Cq_service.Client in
  let module Json = Cq_service.Json in
  let dir = Printf.sprintf "wl-scratch-%d" (Unix.getpid ()) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "d.sock" in
  let server = Server.create (Server.config ~workers:1 ~state_dir:dir socket) in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let c = Client.connect_unix socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sid = Client.create_sim c ~policy:"LRU" ~assoc:4 () in
  let spec = "zipf:n=16,len=1500,seed=61" in
  let tr = Trace.of_spec_exn ~assoc:4 spec in
  let local =
    Replay.policy (Zoo.make_exn ~name:"LRU" ~assoc:4) tr.Trace.blocks
  in
  let opt = Opt.replay ~assoc:4 tr.Trace.blocks in
  let int_field doc name =
    match Json.mem_int name doc with
    | Some n -> n
    | None -> Alcotest.fail ("reply lacks " ^ name)
  in
  let str_field doc name =
    Option.value ~default:"?" (Json.mem_str name doc)
  in
  let doc = Client.replay c ~spec sid in
  Alcotest.(check string) "source before learn" "policy" (str_field doc "source");
  Alcotest.(check int) "accesses" 1500 (int_field doc "accesses");
  Alcotest.(check int) "hits" local.Replay.hits (int_field doc "hits");
  Alcotest.(check int) "opt_hits" opt.Replay.hits (int_field doc "opt_hits");
  Client.learn_start c sid;
  ignore (Client.learn_wait c ~timeout_s:300.0 sid);
  let doc2 = Client.replay c ~spec sid in
  Alcotest.(check string) "source after learn" "learned" (str_field doc2 "source");
  Alcotest.(check int) "learned hits identical" local.Replay.hits
    (int_field doc2 "hits");
  List.iter
    (fun spec ->
      match Client.replay c ~spec sid with
      | exception Client.Error { kind = "bad_request"; _ } -> ()
      | exception e -> raise e
      | _ -> Alcotest.fail ("bad spec accepted: " ^ spec))
    [ "bogus:n=1"; "zipf:n=8,alpha=nan"; "zipf:n=8,alpha=inf" ]

let suite =
  ( "workload",
    [
      Alcotest.test_case "differential: truth machines (assoc 4, 8)" `Quick
        test_differential_truth_machines;
      Alcotest.test_case "differential: cold start (policy, machine, compiled)"
        `Quick
        test_differential_cold_start;
      Alcotest.test_case "differential: learned machines" `Slow
        test_differential_learned_machines;
      Alcotest.test_case "differential: hwsim toy L1" `Quick
        test_differential_hwsim;
      QCheck_alcotest.to_alcotest prop_opt_dominates;
      QCheck_alcotest.to_alcotest prop_opt_exact;
      Alcotest.test_case "OPT deterministic from spec" `Quick
        test_opt_deterministic;
      Alcotest.test_case "OPT beats LRU on anti-LRU loop" `Quick
        test_opt_beats_lru_on_anti_trace;
      Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
      Alcotest.test_case "spec errors" `Quick test_spec_errors;
      Alcotest.test_case "zipf generation allocates per trace, not per draw"
        `Quick test_zipf_allocation;
      Alcotest.test_case "anti ws defaults to assoc+1" `Quick
        test_anti_defaults_to_assoc_plus_one;
      Alcotest.test_case "attribution invariants" `Quick
        test_attribution_invariants;
      Alcotest.test_case "attribution aggregates" `Quick
        test_attribution_aggregates_across_traces;
      Alcotest.test_case "eval rows" `Quick test_eval_rows;
      Alcotest.test_case "daemon replay verb" `Quick test_service_replay;
    ] )
