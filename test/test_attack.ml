(* Security-analysis tests: eviction synthesis, stealthy sequences and
   leakage measures over the whole zoo, each synthesized word validated
   dynamically — replayed byte-for-byte through the three Replay paths
   and through hwsim — plus determinism, the BIP-below-LRU leakage
   ordering, the DOT round trip, the QCheck eviction property and the
   daemon's analyze verb. *)

module Attack = Cq_analysis.Attack
module Mealy = Cq_automata.Mealy
module Types = Cq_policy.Types
module P = Cq_policy.Policy
module Zoo = Cq_policy.Zoo
module Replay = Cq_workload.Replay

let zoo_at assoc =
  List.filter_map
    (fun e ->
      if e.Zoo.valid_assoc assoc then Some (e.Zoo.name, e.Zoo.make assoc)
      else None)
    Zoo.entries

(* Truth machines and reports are expensive at assoc 8 (BIP-8 has 161k
   states); build each at most once across the whole suite. *)
let mealy_cache : (string * int, Types.output Mealy.t) Hashtbl.t =
  Hashtbl.create 31

let mealy_of name assoc =
  match Hashtbl.find_opt mealy_cache (name, assoc) with
  | Some m -> m
  | None ->
      let m = P.to_mealy (Zoo.make_exn ~name ~assoc) in
      Hashtbl.replace mealy_cache (name, assoc) m;
      m

let report_cache : (string * int, Attack.report) Hashtbl.t = Hashtbl.create 31

let report_of name assoc =
  match Hashtbl.find_opt report_cache (name, assoc) with
  | Some r -> r
  | None ->
      let r = Attack.analyze ~name (mealy_of name assoc) in
      Hashtbl.replace report_cache (name, assoc) r;
      r

let ok_or_fail label = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (label ^ ": " ^ msg)

(* --- eviction synthesis + full dynamic validation ----------------------- *)

let check_policy assoc (name, p) =
  let ctx = Printf.sprintf "%s-%d" name assoc in
  let r = report_of name assoc in
  Alcotest.(check int) (ctx ^ ": every line evictable") assoc
    (List.length r.Attack.evictions);
  Alcotest.(check bool)
    (ctx ^ ": eviction set within assoc+1")
    true
    (r.Attack.eviction_set_size >= 1
    && r.Attack.eviction_set_size <= assoc + 1);
  Alcotest.(check bool) (ctx ^ ": a stealthy sequence exists") true
    (r.Attack.stealthy <> None);
  ok_or_fail (ctx ^ " replay") (Attack.verify p r);
  ok_or_fail (ctx ^ " hwsim") (Attack.verify_hwsim p r);
  r

let test_zoo_4 () = List.iter (fun e -> ignore (check_policy 4 e)) (zoo_at 4)
let test_zoo_8 () = List.iter (fun e -> ignore (check_policy 8 e)) (zoo_at 8)

(* --- stealth semantics --------------------------------------------------- *)

let test_stealthy_shapes () =
  let find name assoc =
    let r = report_of name assoc in
    (r, Option.get r.Attack.stealthy)
  in
  (* LRU admits a repeatable refresh cycle: reload the target, feed the
     misses to the other lines forever. *)
  let _, lru = find "LRU" 4 in
  Alcotest.(check bool) "LRU cycle is repeatable" true lru.Attack.repeatable;
  (* FIFO does not: hits never move the round-robin pointer, so the
     pointer inevitably sweeps over the target.  The analysis must fall
     back to a one-shot word rather than claim a cycle. *)
  let r, fifo = find "FIFO" 4 in
  Alcotest.(check bool) "FIFO stealth is one-shot" false
    fifo.Attack.repeatable;
  List.iter
    (fun (st : Attack.stealthy) ->
      let body = st.Attack.setup @ st.Attack.body in
      Alcotest.(check bool) "body has a controlled miss" true
        (List.mem 4 body);
      Alcotest.(check bool) "body reloads the target" true
        (List.mem st.Attack.starget st.Attack.body))
    r.Attack.stealthies

(* --- determinism --------------------------------------------------------- *)

let test_determinism () =
  List.iter
    (fun (name, p) ->
      let r1 = Attack.analyze_policy p in
      let r2 = Attack.analyze_policy p in
      Alcotest.(check bool) (name ^ ": reports identical") true (r1 = r2))
    (zoo_at 4)

(* --- leakage ordering ---------------------------------------------------- *)

let leak name assoc = (report_of name assoc).Attack.leakage

let test_leakage_order () =
  List.iter
    (fun assoc ->
      let lru = leak "LRU" assoc and bip = leak "BIP" assoc in
      Alcotest.(check bool)
        (Printf.sprintf "BIP-%d evicts less information than LRU" assoc)
        true
        (bip.Attack.evicted_information < lru.Attack.evicted_information);
      Alcotest.(check bool)
        (Printf.sprintf "BIP-%d absorbs more noise than LRU" assoc)
        true
        (bip.Attack.absorbed_noise > lru.Attack.absorbed_noise);
      (* LRU distinguishes every victim intensity up to capacity. *)
      Alcotest.(check int)
        (Printf.sprintf "LRU-%d probe classes" assoc)
        (assoc + 1) lru.Attack.probe_classes)
    [ 4; 8 ]

(* --- DOT round trip ------------------------------------------------------ *)

let test_dot_round_trip () =
  List.iter
    (fun (name, p) ->
      let m = P.to_mealy p in
      let dot =
        Mealy.to_dot ~name
          ~input_label:(Types.input_label ~assoc:4)
          ~output_label:Types.output_label m
      in
      match Attack.machine_of_dot dot with
      | Error msg -> Alcotest.fail (name ^ ": of_dot failed: " ^ msg)
      | Ok m' ->
          Alcotest.(check bool)
            (name ^ ": DOT round trip is trace-equivalent")
            true (Mealy.equivalent m m'))
    (zoo_at 4)

let test_dot_errors () =
  let bad s =
    match Attack.machine_of_dot s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty text" true (bad "digraph g {}");
  Alcotest.(check bool) "missing transition" true
    (bad
       "digraph g { __start -> s0; s0 -> s0 [label=\"Ln(0)/_\"]; s0 -> s0 \
        [label=\"Ln(1)/_\"]; }")

(* --- QCheck: a synthesized eviction set actually evicts ------------------ *)

let prop_eviction_evicts =
  let n_zoo = List.length Zoo.entries in
  let arb =
    QCheck.make
      ~print:(fun (pi, assoc, t) ->
        Printf.sprintf "(policy %d, assoc %d, target %d)" pi assoc t)
      ~shrink:QCheck.Shrink.(triple int int int)
      QCheck.Gen.(triple (0 -- (n_zoo - 1)) (2 -- 8) (0 -- 7))
  in
  QCheck.Test.make ~name:"synthesized eviction sets evict (zoo, assoc 2-8)"
    ~count:60 arb (fun (pi, assoc, target) ->
      QCheck.assume (pi >= 0 && pi < n_zoo && assoc >= 2 && assoc <= 8);
      let e = List.nth Zoo.entries pi in
      QCheck.assume (e.Zoo.valid_assoc assoc);
      QCheck.assume (target >= 0 && target < assoc);
      let m = mealy_of e.Zoo.name assoc in
      match Attack.shortest_eviction m ~target with
      | None ->
          QCheck.Test.fail_reportf "%s-%d: line %d not evictable" e.Zoo.name
            assoc target
      | Some ev ->
          let conc =
            Attack.concretize ~probe:(`Evicted target) m
              ev.Attack.strategy.Attack.word
          in
          let o = Replay.machine ~cold:true m conc.Attack.blocks in
          if not (Bytes.equal o.Replay.stream conc.Attack.predicted) then
            QCheck.Test.fail_reportf "%s-%d target %d: predicted %S, got %S"
              e.Zoo.name assoc target
              (Bytes.to_string conc.Attack.predicted)
              (Bytes.to_string o.Replay.stream)
          else true)

(* --- the daemon's analyze verb ------------------------------------------- *)

let test_service_analyze () =
  let module Server = Cq_service.Server in
  let module Client = Cq_service.Client in
  let module Json = Cq_service.Json in
  let dir = Printf.sprintf "wl-scratch-%d" (Unix.getpid ()) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "a.sock" in
  let server = Server.create (Server.config ~workers:1 ~state_dir:dir socket) in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let c = Client.connect_unix socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sid = Client.create_sim c ~policy:"LRU" ~assoc:4 () in
  let int_field doc name =
    match Json.mem_int name doc with
    | Some n -> n
    | None -> Alcotest.fail ("reply lacks " ^ name)
  in
  let local = Attack.analyze_policy (Zoo.make_exn ~name:"LRU" ~assoc:4) in
  let doc = Client.analyze c sid in
  Alcotest.(check string) "source before learn" "policy"
    (Option.value ~default:"?" (Json.mem_str "source" doc));
  Alcotest.(check int) "eviction set size" local.Attack.eviction_set_size
    (int_field doc "eviction_set_size");
  Alcotest.(check int) "verified" 1 (int_field doc "verified");
  Client.learn_start c sid;
  ignore (Client.learn_wait c ~timeout_s:300.0 sid);
  let doc2 = Client.analyze c sid in
  Alcotest.(check string) "source after learn" "learned"
    (Option.value ~default:"?" (Json.mem_str "source" doc2));
  Alcotest.(check int) "learned eviction set identical"
    local.Attack.eviction_set_size
    (int_field doc2 "eviction_set_size")

let suite =
  ( "attack",
    [
      Alcotest.test_case "zoo at assoc 4: synthesize + verify everywhere"
        `Quick test_zoo_4;
      Alcotest.test_case "zoo at assoc 8: synthesize + verify everywhere"
        `Slow test_zoo_8;
      Alcotest.test_case "stealth shapes (LRU cycle, FIFO one-shot)" `Quick
        test_stealthy_shapes;
      Alcotest.test_case "analysis is deterministic" `Quick test_determinism;
      Alcotest.test_case "leakage: BIP below LRU at assoc 4 and 8" `Slow
        test_leakage_order;
      Alcotest.test_case "DOT round trip over the zoo" `Quick
        test_dot_round_trip;
      Alcotest.test_case "DOT parse errors" `Quick test_dot_errors;
      QCheck_alcotest.to_alcotest prop_eviction_evicts;
      Alcotest.test_case "daemon analyze verb" `Quick test_service_analyze;
    ] )
