(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), printing our measurements
   side by side with the paper's published numbers.

   Usage:
     dune exec bench/main.exe                  -- all experiments, default caps
     dune exec bench/main.exe -- table2        -- one experiment
     dune exec bench/main.exe -- table2 --full -- uncapped (can run for hours)
     dune exec bench/main.exe -- micro         -- bechamel micro-benchmarks

   Exit status: 0 when every experiment ran and met its gates; 1 when any
   raised or failed a gate (the rest still run, and every failure is
   named at the end); 2 on an unknown experiment name, before anything
   runs.

   Absolute times are not comparable with the paper's (different host,
   language, and a simulated CPU instead of silicon); the *shape* — state
   counts, which policies are learnable/expressible, growth with
   associativity, who is slow and who is fast — is. *)

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* --- artifacts ----------------------------------------------------------- *)

module Json = Cq_util.Json

(* A float rounded to [digits] decimals, so the artifact prints it as
   written rather than with every binary digit. *)
let num digits x =
  let scale = 10.0 ** float_of_int digits in
  Json.Float (Float.round (x *. scale) /. scale)

(* Where experiment artifact [name] lives: the repository root, except
   that a [--smoke] run writes under _build/bench-smoke/ and so never
   overwrites the tracked full-run file. *)
let artifact_path ~smoke name =
  if smoke then Filename.concat (Filename.concat "_build" "bench-smoke") name
  else name

(* Every BENCH_*.json goes through here: pretty JSON, written atomically
   so a crash mid-bench never leaves a truncated file behind. *)
let write_artifact ?(smoke = false) name json =
  let path = artifact_path ~smoke name in
  if smoke then
    List.iter
      (fun dir -> try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
      [ "_build"; Filename.dirname path ];
  Cq_util.Atomic_file.write ~path (Json.to_string_pretty json ^ "\n");
  Printf.printf "\n(wrote %s)\n%!" path

(* The integer at [keys] in the previous run's artifact, for a trend
   line.  The file may be missing, truncated by a crashed bench, or from
   an older schema: those read as [`Missing] or [`Unreadable], never
   abort the run. *)
let prior_int ?(smoke = false) name keys =
  match Cq_util.Atomic_file.read_opt ~path:(artifact_path ~smoke name) with
  | None -> `Missing
  | Some text -> (
      let step j key = Option.bind j (Json.member key) in
      match
        Option.bind (List.fold_left step (Json.parse_opt text) keys) Json.to_int
      with
      | Some n -> `Prior n
      | None -> `Unreadable)

(* ----------------------------------------------------------------------- *)
(* Table 2: learning from software-simulated caches                         *)
(* ----------------------------------------------------------------------- *)

let table2 ~full () =
  header
    "Table 2: learning policies from software-simulated caches (Polca + L*, \
     Wp-method depth 1)";
  Printf.printf "%-10s %5s | %8s %16s | %8s %14s\n%!" "Policy" "Assoc"
    "states" "time" "paper" "paper time";
  let budget = if full then 1100 else 300 in
  List.iter
    (fun (name, assoc, paper_states, paper_time) ->
      if paper_states > budget then
        Printf.printf "%-10s %5d | %8s %16s | %8d %14s  (skipped: > %d states%s)\n%!"
          name assoc "-" "-" paper_states paper_time budget
          (if full then "" else ", use --full")
      else
        let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
        let report = Cq_core.Learn.learn_simulated ~identify:false policy in
        let ok = if report.Cq_core.Learn.states = paper_states then "" else "  <-- MISMATCH" in
        Printf.printf "%-10s %5d | %8d %16s | %8d %14s%s\n%!" name assoc
          report.Cq_core.Learn.states
          (Cq_util.Clock.to_string report.Cq_core.Learn.seconds)
          paper_states paper_time ok)
    Paper_data.table2

(* ----------------------------------------------------------------------- *)
(* Table 3: processor specifications (static; printed for reference)        *)
(* ----------------------------------------------------------------------- *)

let table3 () =
  header "Table 3: simulated processors' specifications";
  List.iter
    (fun model -> Fmt.pr "%a@." Cq_hwsim.Cpu_model.pp_specs model)
    Cq_hwsim.Cpu_model.all

(* ----------------------------------------------------------------------- *)
(* Table 4: learning from (simulated) hardware                              *)
(* ----------------------------------------------------------------------- *)

type t4_plan = {
  model : Cq_hwsim.Cpu_model.t;
  level : Cq_hwsim.Cpu_model.level;
  cat_ways : int option;
  set : int;
  slice : int;
  max_states : int;
  paper : Paper_data.t4_row;
  expensive : bool; (* skipped unless --full *)
}

let t4_plans =
  let p cpu level =
    List.find
      (fun (r : Paper_data.t4_row) -> r.Paper_data.cpu = cpu && r.Paper_data.level = level)
      Paper_data.table4
  in
  [
    { model = Cq_hwsim.Cpu_model.haswell; level = Cq_hwsim.Cpu_model.L1;
      cat_ways = None; set = 0; slice = 0; max_states = 100_000;
      paper = p "i7-4790" "L1"; expensive = false };
    { model = Cq_hwsim.Cpu_model.haswell; level = Cq_hwsim.Cpu_model.L2;
      cat_ways = None; set = 0; slice = 0; max_states = 100_000;
      paper = p "i7-4790" "L2"; expensive = true };
    (* Haswell L3: no CAT support; the 768-831 leader group behaves
       non-deterministically.  We attempt the noisy leader (fails at reset
       discovery, as in the paper); the deterministic 512-575 group at full
       associativity 16 exceeds any reasonable state budget. *)
    { model = Cq_hwsim.Cpu_model.haswell; level = Cq_hwsim.Cpu_model.L3;
      cat_ways = None; set = 768; slice = 0; max_states = 64;
      paper = p "i7-4790" "L3"; expensive = false };
    { model = Cq_hwsim.Cpu_model.skylake; level = Cq_hwsim.Cpu_model.L1;
      cat_ways = None; set = 0; slice = 0; max_states = 100_000;
      paper = p "i5-6500" "L1"; expensive = false };
    { model = Cq_hwsim.Cpu_model.skylake; level = Cq_hwsim.Cpu_model.L2;
      cat_ways = None; set = 0; slice = 0; max_states = 100_000;
      paper = p "i5-6500" "L2"; expensive = true };
    { model = Cq_hwsim.Cpu_model.skylake; level = Cq_hwsim.Cpu_model.L3;
      cat_ways = Some 4; set = 0; slice = 0; max_states = 100_000;
      paper = p "i5-6500" "L3"; expensive = true };
    { model = Cq_hwsim.Cpu_model.kaby_lake; level = Cq_hwsim.Cpu_model.L1;
      cat_ways = None; set = 0; slice = 0; max_states = 100_000;
      paper = p "i7-8550U" "L1"; expensive = false };
    { model = Cq_hwsim.Cpu_model.kaby_lake; level = Cq_hwsim.Cpu_model.L2;
      cat_ways = None; set = 0; slice = 0; max_states = 100_000;
      paper = p "i7-8550U" "L2"; expensive = true };
    { model = Cq_hwsim.Cpu_model.kaby_lake; level = Cq_hwsim.Cpu_model.L3;
      cat_ways = Some 4; set = 0; slice = 0; max_states = 100_000;
      paper = p "i7-8550U" "L3"; expensive = true };
  ]

let table4 ~full () =
  header
    "Table 4: learning policies from (simulated) hardware caches via \
     CacheQuery";
  (* Per row: wall time, the learn's membership queries and symbols, the
     whole workflow's timed loads (calibration and reset discovery
     included), and the learned machine's canonical digest (its first 8
     hex digits). *)
  Printf.printf "%-9s %-3s %5s | %-46s %9s %7s %8s %9s %-8s | %6s %-5s %-10s\n%!"
    "CPU" "Lvl" "assoc" "ours" "time" "queries" "symbols" "loads" "digest"
    "paper" "pol." "paper reset";
  (* Rows whose state count or policy disagrees with the paper, or that
     learned where the paper could not.  Reset sequences are not compared:
     a flush in front of the paper's sequence (Haswell L1's [F+ @ @]) is
     an equally valid reset. *)
  let disagree = ref [] in
  List.iter
    (fun plan ->
      let paper_states =
        match plan.paper.Paper_data.states with
        | Some n -> string_of_int n
        | None -> "-"
      in
      if plan.expensive && not full then
        Printf.printf
          "%-9s %-3s %5d | %-46s %9s %7s %8s %9s %-8s | %6s %-5s %-10s\n%!"
          plan.paper.Paper_data.cpu plan.paper.Paper_data.level
          plan.paper.Paper_data.assoc "(skipped: expensive, use --full)" "-"
          "-" "-" "-" "-" paper_states plan.paper.Paper_data.policy
          plan.paper.Paper_data.reset
      else begin
        let machine =
          Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise plan.model
        in
        let t0 = Cq_util.Clock.mono () in
        let run =
          Cq_core.Hardware.learn_set machine plan.level ?cat_ways:plan.cat_ways
            ~set:plan.set ~slice:plan.slice ~max_states:plan.max_states
            ~check_hits:false
        in
        let dt = Cq_util.Clock.mono () -. t0 in
        let ours =
          match run.Cq_core.Hardware.outcome with
          | Cq_core.Hardware.Learned { report; reset; _ } ->
              Printf.sprintf "%d states, %s, reset %s" report.Cq_core.Learn.states
                (match report.Cq_core.Learn.identified with
                | [] -> "undocumented"
                | l -> String.concat "/" l)
                (Cq_cachequery.Frontend.reset_to_string reset)
          | Cq_core.Hardware.Partial { failure; _ } ->
              Fmt.str "- (partial: %a)" Cq_core.Learn.pp_failure failure
          | Cq_core.Hardware.Failed { reason; _ } ->
              Printf.sprintf "- (%s)" reason
        in
        let agrees =
          match (run.Cq_core.Hardware.outcome, plan.paper.Paper_data.states) with
          | Cq_core.Hardware.Learned { report; _ }, Some n ->
              report.Cq_core.Learn.states = n
              && List.mem plan.paper.Paper_data.policy
                   report.Cq_core.Learn.identified
          | (Cq_core.Hardware.Partial _ | Cq_core.Hardware.Failed _), None ->
              true
          | _ -> false
        in
        if not agrees then
          disagree :=
            (plan.paper.Paper_data.cpu ^ " " ^ plan.paper.Paper_data.level)
            :: !disagree;
        let queries, symbols, digest =
          match run.Cq_core.Hardware.outcome with
          | Cq_core.Hardware.Learned { report; _ } ->
              ( string_of_int report.Cq_core.Learn.member_queries,
                string_of_int report.Cq_core.Learn.member_symbols,
                String.sub
                  (Cq_policy.Policy.machine_digest report.Cq_core.Learn.machine)
                  0 8 )
          | Cq_core.Hardware.Partial { member_queries; _ } ->
              (string_of_int member_queries, "-", "-")
          | Cq_core.Hardware.Failed _ -> ("-", "-", "-")
        in
        Printf.printf
          "%-9s %-3s %5d | %-46s %8.1fs %7s %8s %9d %-8s | %6s %-5s %-10s\n%!"
          plan.paper.Paper_data.cpu plan.paper.Paper_data.level
          run.Cq_core.Hardware.assoc ours dt queries symbols
          run.Cq_core.Hardware.timed_loads digest paper_states
          plan.paper.Paper_data.policy plan.paper.Paper_data.reset
      end)
    t4_plans;
  match List.rev !disagree with
  | [] -> ()
  | rows ->
      failwith
        ("table4: rows disagree with the paper: " ^ String.concat ", " rows)

(* ----------------------------------------------------------------------- *)
(* Table 5: synthesizing explanations                                       *)
(* ----------------------------------------------------------------------- *)

let table5 ~full () =
  header "Table 5: synthesizing explanations for policies (associativity 4)";
  Printf.printf "%-10s %6s | %-9s %16s | %-9s %12s\n%!" "Policy" "states"
    "template" "time" "paper" "paper time";
  let deadline = if full then 3600.0 else 90.0 in
  List.iter
    (fun (name, paper_states, paper_template, paper_time) ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc:4 in
      let machine = Cq_policy.Policy.to_mealy policy in
      let r = Cq_synth.Search.synthesize ~deadline machine in
      let template, time_str =
        match r.Cq_synth.Search.outcome with
        | Cq_synth.Search.Found _ ->
            (r.Cq_synth.Search.template, Cq_util.Clock.to_string r.Cq_synth.Search.seconds)
        | Cq_synth.Search.Not_expressible -> ("-", "(not expressible)")
        | Cq_synth.Search.Timeout ->
            ("-", Printf.sprintf "(timeout %.0fs)" deadline)
      in
      Printf.printf "%-10s %6d | %-9s %16s | %-9s %12s\n%!" name paper_states
        template time_str
        (Option.value paper_template ~default:"-")
        paper_time)
    Paper_data.table5

(* ----------------------------------------------------------------------- *)
(* Figure 5 / Appendix C: the synthesized New1 and New2 programs            *)
(* ----------------------------------------------------------------------- *)

let figure5 () =
  header "Figure 5 / Appendix C: synthesized programs for New1 and New2";
  List.iter
    (fun name ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc:4 in
      let machine = Cq_policy.Policy.to_mealy policy in
      let r = Cq_synth.Search.synthesize ~deadline:120.0 machine in
      match r.Cq_synth.Search.outcome with
      | Cq_synth.Search.Found prog ->
          Printf.printf "\n--- %s (%s template, %s) ---\n%s\n%!" name
            r.Cq_synth.Search.template
            (Cq_util.Clock.to_string r.Cq_synth.Search.seconds)
            (Cq_synth.Rules.to_string prog)
      | _ -> Printf.printf "\n--- %s: synthesis failed ---\n%!" name)
    [ "New1"; "New2" ]

(* ----------------------------------------------------------------------- *)
(* Figure 1: the toy pipeline                                                *)
(* ----------------------------------------------------------------------- *)

let figure1 () =
  header "Figure 1: the end-to-end toy pipeline (2-way LRU)";
  let policy = Cq_policy.Lru.make 2 in
  let oracle = Cq_cache.Oracle.of_policy policy in
  let show blocks =
    let results = oracle.Cq_cache.Oracle.query blocks in
    Printf.printf "  %-10s -> %s\n%!"
      (String.concat " " (List.map Cq_cache.Block.to_string blocks))
      (String.concat " "
         (List.map
            (fun r -> if Cq_cache.Cache_set.result_is_hit r then "Hit" else "Miss")
            results))
  in
  Printf.printf "Figure 1b/1c traces:\n";
  let b = Cq_cache.Block.of_index in
  show [ b 0; b 1; b 2; b 0 ];
  show [ b 0; b 1; b 2; b 1 ];
  let report = Cq_core.Learn.learn_simulated policy in
  Printf.printf
    "Figure 1a: learned a %d-state machine (identified as: %s).\n%!"
    report.Cq_core.Learn.states
    (String.concat ", " report.Cq_core.Learn.identified)

(* ----------------------------------------------------------------------- *)
(* §7.2: the cost of learning from hardware                                  *)
(* ----------------------------------------------------------------------- *)

let cost () =
  header "Section 7.2: the cost of learning from hardware";
  let plru8 = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:8 in
  let sim_report = Cq_core.Learn.learn_simulated ~identify:false plru8 in
  Printf.printf
    "PLRU-8 from the software-simulated cache:        %8.2f s (paper: %.2f s)\n%!"
    sim_report.Cq_core.Learn.seconds Paper_data.cost_sim_seconds;
  (* ... vs. via CacheQuery with a warm query cache: learn once to fill the
     memo, then learn again with every MBL query answered from it. *)
  let machine =
    Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise
      Cq_hwsim.Cpu_model.skylake
  in
  let backend =
    Cq_cachequery.Backend.create machine
      { Cq_cachequery.Backend.level = Cq_hwsim.Cpu_model.L1; slice = 0; set = 0 }
  in
  ignore (Cq_cachequery.Backend.calibrate backend);
  let frontend = Cq_cachequery.Frontend.create backend in
  let oracle = Cq_cachequery.Frontend.oracle frontend in
  let learn () =
    (* Sequential engine: this experiment measures the frontend's query
       memo (cold vs warm), which session-mode execution bypasses. *)
    Cq_core.Learn.learn_from_cache ~engine:Cq_core.Learn.Sequential
      ~memoize:false ~identify:false ~check_hits:false oracle
  in
  let cold = learn () in
  let warm = learn () in
  Printf.printf
    "PLRU-8 via CacheQuery (cold run):                %8.2f s\n%!"
    cold.Cq_core.Learn.seconds;
  Printf.printf
    "PLRU-8 via CacheQuery (warm LevelDB-style memo): %8.2f s (paper: %.0f s)\n%!"
    warm.Cq_core.Learn.seconds Paper_data.cost_warm_cache_seconds;
  Printf.printf
    "abstraction overhead factor (warm / simulated):  %7.1fx (paper: %.0fx)\n%!"
    (warm.Cq_core.Learn.seconds /. sim_report.Cq_core.Learn.seconds)
    Paper_data.cost_overhead_factor;
  Printf.printf "\nSingle MBL query '@ M _?' (mean of 100 executions):\n%!";
  List.iter
    (fun (level, paper_ms) ->
      let lvl =
        match level with
        | "L1" -> Cq_hwsim.Cpu_model.L1
        | "L2" -> Cq_hwsim.Cpu_model.L2
        | _ -> Cq_hwsim.Cpu_model.L3
      in
      let machine =
        Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise
          Cq_hwsim.Cpu_model.skylake
      in
      let backend =
        Cq_cachequery.Backend.create machine
          { Cq_cachequery.Backend.level = lvl; slice = 0; set = 0 }
      in
      ignore (Cq_cachequery.Backend.calibrate backend);
      let fe = Cq_cachequery.Frontend.create backend in
      Cq_cachequery.Frontend.set_memo fe false;
      let t0 = Cq_util.Clock.mono () in
      for _ = 1 to 100 do
        ignore (Cq_cachequery.Frontend.run_mbl fe "@ M _?")
      done;
      let ms = (Cq_util.Clock.mono () -. t0) /. 100.0 *. 1000.0 in
      Printf.printf "  %s: %7.2f ms/query (paper, on silicon: %.0f ms)\n%!" level
        ms paper_ms)
    Paper_data.cost_query_ms

(* ----------------------------------------------------------------------- *)
(* Appendix B: leader sets                                                   *)
(* ----------------------------------------------------------------------- *)

let leaders ~full () =
  header "Appendix B: adaptive policies and leader-set detection";
  let scan_cpu model n_sets =
    Printf.printf "\n%s (%s), slice 0, first %d sets:\n%!"
      model.Cq_hwsim.Cpu_model.name model.Cq_hwsim.Cpu_model.codename n_sets;
    let machine =
      Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model
    in
    if model.Cq_hwsim.Cpu_model.supports_cat then
      Cq_hwsim.Machine.set_cat_ways machine 4;
    let sets = List.init n_sets (fun i -> i) in
    let results = Cq_core.Leader_sets.scan machine sets in
    List.iter
      (fun r ->
        if
          r.Cq_core.Leader_sets.classification
          <> Cq_core.Leader_sets.Follower
        then
          Printf.printf "  set %4d: %s\n%!" r.Cq_core.Leader_sets.set
            (Cq_core.Leader_sets.classification_to_string
               r.Cq_core.Leader_sets.classification))
      results;
    let detected, expected = Cq_core.Leader_sets.check_against_model model results in
    Printf.printf
      "  vulnerable leaders detected [%s]; index formula predicts [%s] => %s\n%!"
      (String.concat "," (List.map string_of_int detected))
      (String.concat "," (List.map string_of_int expected))
      (if detected = expected then "MATCH" else "MISMATCH")
  in
  scan_cpu Cq_hwsim.Cpu_model.skylake (if full then 256 else 72);
  if full then scan_cpu Cq_hwsim.Cpu_model.kaby_lake 256
  else
    Printf.printf
      "\ni7-8550U (Kaby Lake): same selection formula as Skylake (use --full \
       to rescan).\n%!";
  (* Haswell: leaders live in slice 0, sets 512-575 / 768-831. *)
  let model = Cq_hwsim.Cpu_model.haswell in
  Printf.printf "\n%s (%s), slice 0, sampling sets 504..584 and 760..840:\n%!"
    model.Cq_hwsim.Cpu_model.name model.Cq_hwsim.Cpu_model.codename;
  let machine = Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model in
  let sample =
    List.init 11 (fun i -> 504 + (i * 8)) @ List.init 11 (fun i -> 760 + (i * 8))
  in
  let results = Cq_core.Leader_sets.scan machine sample in
  List.iter
    (fun r ->
      if r.Cq_core.Leader_sets.classification <> Cq_core.Leader_sets.Follower
      then
        Printf.printf "  set %4d: %s\n%!" r.Cq_core.Leader_sets.set
          (Cq_core.Leader_sets.classification_to_string
             r.Cq_core.Leader_sets.classification))
    results;
  Printf.printf
    "  (the 768-831 group is thrash-resistant and non-deterministic, as in \
     the paper)\n%!"

(* ----------------------------------------------------------------------- *)
(* Ablations: design choices DESIGN.md calls out                             *)
(* ----------------------------------------------------------------------- *)

let ablations () =
  header "Ablations: W vs Wp suites, hit probes, fingerprint vs learning";
  (* (a) The paper uses the Wp-method for its smaller suites (§3.4):
     compare total suite symbols on the evaluation policies. *)
  Printf.printf "\n(a) conformance suite size (total input symbols, depth 1):\n%!";
  Printf.printf "    %-10s %10s %10s %8s\n%!" "policy" "W" "Wp" "ratio";
  List.iter
    (fun (name, assoc) ->
      let h =
        Cq_automata.Mealy.minimize
          (Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name ~assoc))
      in
      let w = Cq_learner.Equivalence.suite_symbols (Cq_learner.Equivalence.w_method_suite ~depth:1 h) in
      let wp = Cq_learner.Equivalence.suite_symbols (Cq_learner.Equivalence.wp_method_suite ~depth:1 h) in
      Printf.printf "    %-10s %10d %10d %8.2fx\n%!" name w wp
        (float_of_int w /. float_of_int (max 1 wp)))
    [ ("LRU", 4); ("PLRU", 8); ("MRU", 6); ("SRRIP-HP", 4); ("New1", 4); ("New2", 4) ];
  (* (b) Algorithm 1 probes accesses whose outcome is known (hit checks):
     cost and result with and without. *)
  Printf.printf "\n(b) Polca hit probes (New1-4 from a simulated cache):\n%!";
  List.iter
    (fun check_hits ->
      let r =
        Cq_core.Learn.learn_simulated ~identify:false ~check_hits
          (Cq_policy.Zoo.make_exn ~name:"New1" ~assoc:4)
      in
      Printf.printf "    check_hits=%-5b %d states, %d cache queries, %s\n%!"
        check_hits r.Cq_core.Learn.states r.Cq_core.Learn.cache_queries
        (Cq_util.Clock.to_string r.Cq_core.Learn.seconds))
    [ true; false ];
  (* (c) nanoBench-style fingerprinting vs. full learning (the trade-off
     the paper's related work discusses): random testing works where the
     reset fully resets the policy state (L1) and fails where it does not
     (Skylake L2's age bits survive Flush+Refill); learning handles both. *)
  Printf.printf "\n(c) fingerprinting vs learning (simulated Skylake):\n%!";
  let fingerprint level set =
    let machine =
      Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise
        Cq_hwsim.Cpu_model.skylake
    in
    let be =
      Cq_cachequery.Backend.create machine
        { Cq_cachequery.Backend.level; slice = 0; set }
    in
    ignore (Cq_cachequery.Backend.calibrate be);
    let fe = Cq_cachequery.Frontend.create be in
    Cq_util.Clock.time (fun () ->
        Cq_core.Fingerprint.identify ~sequences:250
          (Cq_cachequery.Frontend.oracle fe))
  in
  let v1, dt1 = fingerprint Cq_hwsim.Cpu_model.L1 5 in
  Printf.printf "    L1: survivors [%s] in %.2f s (%d sequences)\n%!"
    (String.concat "; " v1.Cq_core.Fingerprint.survivors)
    dt1 v1.Cq_core.Fingerprint.sequences;
  let v2, _ = fingerprint Cq_hwsim.Cpu_model.L2 5 in
  Printf.printf
    "    L2: survivors [%s] -- random testing cannot pin the post-reset \
     control state (stale age bits) and eliminates every candidate, while \
     learning recovers New1: the generality gap the paper describes\n%!"
    (String.concat "; " v2.Cq_core.Fingerprint.survivors);
  (* (d) Optimal eviction strategies computed from the learned models (the
     paper's security motivation, §10). *)
  Printf.printf "\n(d) shortest eviction strategies (line 0, associativity 4):\n%!";
  List.iter
    (fun name ->
      let policy = Cq_policy.Zoo.make_exn ~name ~assoc:4 in
      let m = Cq_policy.Policy.to_mealy policy in
      match Cq_core.Eviction.shortest ~target:0 m (Cq_automata.Mealy.init m) with
      | Some s ->
          Printf.printf "    %-10s %s\n%!" name
            (Fmt.str "%a" (Cq_core.Eviction.pp_strategy ~assoc:4) s)
      | None -> Printf.printf "    %-10s (not evictable)\n%!" name)
    [ "LRU"; "FIFO"; "PLRU"; "MRU"; "LIP"; "SRRIP-HP"; "New1"; "New2" ]

(* ----------------------------------------------------------------------- *)
(* Query-engine benchmark: sequential vs batched                             *)
(* ----------------------------------------------------------------------- *)

(* Compare the two query engines on the simulated-cache pipeline: the
   sequential baseline (reset-and-replay, short-circuit findEvicted) and
   the prefix-sharing batched engine.  Both must learn the same automaton;
   the speedups land in BENCH_engine.json for machine consumption. *)
let engine () =
  header
    "Engine: sequential vs batched query engines (Polca + L*, Wp-method \
     depth 1)";
  let configs =
    [ ("LRU", 4); ("PLRU", 4); ("FIFO", 8); ("PLRU", 8); ("FIFO", 16) ]
  in
  Printf.printf "%-8s %5s | %9s | %9s %7s | %6s %5s\n%!" "Policy" "assoc"
    "seq" "batched" "speedup" "saved%" "agree";
  (* Observability overhead gate: the same learning run with tracing
     enabled must issue exactly the same queries and block accesses — the
     span instrumentation must never perturb the pipeline.  The enabled
     run's event count is folded into BENCH_engine.json (the trace itself
     is reproducible on demand via polca --trace; a second artifact file
     only drifted out of sync).  Runs first so the counter only reflects
     this probe, not the whole benchmark. *)
  let overhead_identical, trace_events =
    let probe = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:4 in
    let go () =
      Cq_core.Learn.learn_simulated ~identify:false
        ~engine:Cq_core.Learn.Batched probe
    in
    let untraced = go () in
    Cq_util.Trace.enable ();
    let traced = go () in
    let trace_events = Cq_util.Trace.recorded () in
    Cq_util.Trace.disable ();
    Cq_util.Trace.clear ();
    let same =
      untraced.Cq_core.Learn.member_queries
      = traced.Cq_core.Learn.member_queries
      && untraced.Cq_core.Learn.cache_queries
         = traced.Cq_core.Learn.cache_queries
      && untraced.Cq_core.Learn.cache_accesses
         = traced.Cq_core.Learn.cache_accesses
      && untraced.Cq_core.Learn.timed_loads = traced.Cq_core.Learn.timed_loads
    in
    Printf.printf
      "tracing on/off: %d/%d queries, %d/%d accesses -> %s (%d trace \
       events)\n\
       %!"
      traced.Cq_core.Learn.member_queries untraced.Cq_core.Learn.member_queries
      traced.Cq_core.Learn.cache_accesses
      untraced.Cq_core.Learn.cache_accesses
      (if same then "identical" else "MISMATCH <-- instrumentation leak")
      trace_events;
    (same, trace_events)
  in
  let rows =
    List.map
      (fun (name, assoc) ->
        let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
        let run engine =
          Cq_core.Learn.learn_simulated ~identify:false ~engine policy
        in
        let seq = run Cq_core.Learn.Sequential in
        let bat = run Cq_core.Learn.Batched in
        let states (r : Cq_core.Learn.report) = r.Cq_core.Learn.states in
        let machine (r : Cq_core.Learn.report) = r.Cq_core.Learn.machine in
        let seconds (r : Cq_core.Learn.report) = r.Cq_core.Learn.seconds in
        (* The engines differ in device traffic only: the same machine
           from the same membership queries. *)
        let agree =
          states seq = states bat
          && Cq_automata.Mealy.equivalent (machine seq) (machine bat)
          && seq.Cq_core.Learn.member_queries = bat.Cq_core.Learn.member_queries
          && seq.Cq_core.Learn.member_symbols = bat.Cq_core.Learn.member_symbols
        in
        let speedup r = seconds seq /. Float.max 1e-9 (seconds r) in
        let saved_pct =
          100.0
          *. float_of_int bat.Cq_core.Learn.accesses_saved
          /. float_of_int (max 1 bat.Cq_core.Learn.cache_accesses)
        in
        Printf.printf
          "%-8s %5d | %8.3fs | %8.3fs %6.2fx | %5.1f%% %5s\n%!" name assoc
          (seconds seq) (seconds bat) (speedup bat) saved_pct
          (if agree then "yes" else "NO <-- MISMATCH");
        (name, assoc, seq, bat, agree))
      configs
  in
  let engine_json (seq : Cq_core.Learn.report) (r : Cq_core.Learn.report) =
    Json.Obj
      [
        ("seconds", num 6 r.Cq_core.Learn.seconds);
        ( "speedup",
          num 3
            (seq.Cq_core.Learn.seconds
            /. Float.max 1e-9 r.Cq_core.Learn.seconds) );
        ("cache_queries", Json.Int r.Cq_core.Learn.cache_queries);
        ("cache_accesses", Json.Int r.Cq_core.Learn.cache_accesses);
        ("cache_batches", Json.Int r.Cq_core.Learn.cache_batches);
        ("accesses_saved", Json.Int r.Cq_core.Learn.accesses_saved);
      ]
  in
  write_artifact "BENCH_engine.json"
    (Json.Obj
       ([
          ("tracing_overhead_identical", Json.Bool overhead_identical);
          ("tracing_probe_events", Json.Int trace_events);
        ]
       (* The batched run's full metrics registry — histograms included —
          so the bench JSON carries the same observability block the
          learning reports do. *)
       @ (match rows with
         | (_, _, _, bat, _) :: _ ->
             [ ("metrics", Cq_util.Metrics.json bat.Cq_core.Learn.metrics) ]
         | [] -> [])
       @ [
           ( "results",
             Json.List
               (List.map
                  (fun (name, assoc, seq, bat, agree) ->
                    Json.Obj
                      [
                        ("policy", Json.String name);
                        ("assoc", Json.Int assoc);
                        ("states", Json.Int seq.Cq_core.Learn.states);
                        ("automata_identical", Json.Bool agree);
                        ("sequential", engine_json seq seq);
                        ("batched", engine_json seq bat);
                      ])
                  rows) );
         ]));
  if not overhead_identical then
    failwith "engine bench: tracing changed the pipeline's query counts";
  match List.filter (fun (_, _, _, _, agree) -> not agree) rows with
  | [] -> ()
  | bad ->
      failwith
        ("engine bench: the engines disagree (automaton or membership \
          queries) on "
        ^ String.concat ", "
            (List.map (fun (name, assoc, _, _, _) -> Printf.sprintf "%s-%d" name assoc) bad))

(* ----------------------------------------------------------------------- *)
(* Noise: learning under measurement noise                                   *)
(* ----------------------------------------------------------------------- *)

(* Learn real targets under injected measurement noise at several voting
   settings.  Correctness: the learned automaton must be identical to the
   quiet run's.  Cost: timed loads — adaptive voting must beat fixed
   repetitions by only re-measuring disputed accesses.  Results land in
   BENCH_noise.json so the robustness trajectory is tracked across PRs. *)
let noise ~full () =
  header
    "Noise: learning under measurement noise (adaptive voting, bounded \
     retry, drift recalibration)";
  let module M = Cq_hwsim.Machine in
  let module FE = Cq_cachequery.Frontend in
  let targets =
    [ (Cq_hwsim.Cpu_model.haswell, Cq_hwsim.Cpu_model.L1, "i7-4790", "L1") ]
    @
    if full then
      [ (Cq_hwsim.Cpu_model.skylake, Cq_hwsim.Cpu_model.L2, "i5-6500", "L2") ]
    else []
  in
  let settings =
    [
      ("fixed reps=1", "default", M.default_noise, FE.Fixed 1, 0);
      ("fixed reps=5", "default", M.default_noise, FE.Fixed 5, 3);
      ("adaptive <=5", "default", M.default_noise, FE.Adaptive { max = 5 }, 3);
      ("adaptive <=3", "default", M.default_noise, FE.Adaptive { max = 3 }, 3);
      ("adaptive <=5", "burst", M.burst_noise, FE.Adaptive { max = 5 }, 3);
      ("adaptive <=5", "drift", M.drift_noise, FE.Adaptive { max = 5 }, 3);
    ]
  in
  let all_rows =
    List.map
      (fun (model, level, cpu, level_name) ->
        Printf.printf "\n%s %s:\n%!" cpu level_name;
        Printf.printf "%-14s %-8s | %6s %5s | %10s %9s %6s %4s %6s | %8s\n%!"
          "voting" "noise" "states" "same" "timedloads" "voteruns" "flips"
          "rcal" "retry" "time";
        let quiet_machine = M.create ~noise:M.quiet_noise model in
        let t0 = Cq_util.Clock.mono () in
        let quiet =
          Cq_core.Hardware.learn_set ~check_hits:false quiet_machine level
        in
        let quiet_dt = Cq_util.Clock.mono () -. t0 in
        let quiet_report =
          match quiet.Cq_core.Hardware.outcome with
          | Cq_core.Hardware.Learned { report; _ } -> report
          | Cq_core.Hardware.Partial { failure; _ } ->
              failwith
                (Fmt.str "noise bench: quiet run partial: %a"
                   Cq_core.Learn.pp_failure failure)
          | Cq_core.Hardware.Failed { reason; _ } ->
              failwith ("noise bench: quiet run failed: " ^ reason)
        in
        Printf.printf
          "%-14s %-8s | %6d %5s | %10d %9s %6s %4s %6s | %7.1fs\n%!" "(none)"
          "quiet" quiet_report.Cq_core.Learn.states "-"
          quiet.Cq_core.Hardware.timed_loads "-" "-" "-" "-" quiet_dt;
        let rows =
          List.map
            (fun (vlabel, nlabel, noise_cfg, voting, retries) ->
              let machine = M.create ~noise:noise_cfg model in
              let t0 = Cq_util.Clock.mono () in
              let run =
                Cq_core.Hardware.learn_set ~check_hits:false ~voting ~retries
                  machine level
              in
              let dt = Cq_util.Clock.mono () -. t0 in
              let row =
                match run.Cq_core.Hardware.outcome with
                | Cq_core.Hardware.Learned { report; _ } ->
                    let identical =
                      Cq_automata.Mealy.equivalent
                        report.Cq_core.Learn.machine
                        quiet_report.Cq_core.Learn.machine
                    in
                    Printf.printf
                      "%-14s %-8s | %6d %5s | %10d %9d %6d %4d %6d | %7.1fs%s\n%!"
                      vlabel nlabel report.Cq_core.Learn.states
                      (if identical then "yes" else "NO")
                      run.Cq_core.Hardware.timed_loads
                      report.Cq_core.Learn.vote_runs
                      report.Cq_core.Learn.transient_flips
                      run.Cq_core.Hardware.recalibrations
                      report.Cq_core.Learn.retry_attempts dt
                      (if identical then "" else "  <-- MISMATCH");
                    `Learned (report, identical)
                | Cq_core.Hardware.Partial { failure; _ } ->
                    let reason =
                      Fmt.str "partial: %a" Cq_core.Learn.pp_failure failure
                    in
                    Printf.printf "%-14s %-8s | %6s %5s | %10d %9s %6s %4d %6s | %7.1fs  (%s)\n%!"
                      vlabel nlabel "-" "-" run.Cq_core.Hardware.timed_loads "-"
                      "-" run.Cq_core.Hardware.recalibrations "-" dt
                      (String.sub reason 0 (min 60 (String.length reason)));
                    `Failed reason
                | Cq_core.Hardware.Failed { reason; _ } ->
                    Printf.printf "%-14s %-8s | %6s %5s | %10d %9s %6s %4d %6s | %7.1fs  (failed: %s)\n%!"
                      vlabel nlabel "-" "-" run.Cq_core.Hardware.timed_loads "-"
                      "-" run.Cq_core.Hardware.recalibrations "-" dt
                      (String.sub reason 0 (min 60 (String.length reason)));
                    `Failed reason
              in
              (vlabel, nlabel, voting, retries, run, dt, row))
            settings
        in
        (cpu, level_name, quiet, quiet_report, quiet_dt, rows))
      targets
  in
  let run_json (vlabel, nlabel, _voting, retries, run, dt, row) =
    Json.Obj
      ([
         ("voting", Json.String vlabel);
         ("noise", Json.String nlabel);
         ("retries", Json.Int retries);
         ("timed_loads", Json.Int run.Cq_core.Hardware.timed_loads);
         ("recalibrations", Json.Int run.Cq_core.Hardware.recalibrations);
         ("seconds", num 3 dt);
       ]
      @
      match row with
      | `Learned ((report : Cq_core.Learn.report), identical) ->
          [
            ("learned", Json.Bool true);
            ("states", Json.Int report.Cq_core.Learn.states);
            ("identical_to_quiet", Json.Bool identical);
            ("vote_runs", Json.Int report.Cq_core.Learn.vote_runs);
            ("transient_flips", Json.Int report.Cq_core.Learn.transient_flips);
            ("retry_attempts", Json.Int report.Cq_core.Learn.retry_attempts);
          ]
      | `Failed reason ->
          [ ("learned", Json.Bool false); ("reason", Json.String reason) ])
  in
  write_artifact "BENCH_noise.json"
    (Json.Obj
       [
         ( "targets",
           Json.List
             (List.map
                (fun (cpu, level_name, quiet, quiet_report, quiet_dt, rows) ->
                  Json.Obj
                    [
                      ("cpu", Json.String cpu);
                      ("level", Json.String level_name);
                      ( "quiet",
                        Json.Obj
                          [
                            ( "states",
                              Json.Int quiet_report.Cq_core.Learn.states );
                            ( "timed_loads",
                              Json.Int quiet.Cq_core.Hardware.timed_loads );
                            ("seconds", num 3 quiet_dt);
                          ] );
                      ("runs", Json.List (List.map run_json rows));
                    ])
                all_rows) );
       ]);
  Printf.printf "(Skylake L2 %s)\n%!"
    (if full then "included" else "skipped, use --full")

(* ----------------------------------------------------------------------- *)
(* Recovery: durable sessions — snapshot overhead and crash/resume cost     *)
(* ----------------------------------------------------------------------- *)

(* Durability must be near-free and resuming must beat starting over.
   Learn Haswell L1 (quiet) three ways — plain, with snapshotting enabled,
   and killed mid-run by a query budget then resumed from the snapshot.
   The gate is time: the session layer (every snapshot write plus the
   trie exports behind its bases) must take at most 5% of the
   snapshotting run's wall time.  Both automata must be identical to the
   baseline's.  Results land in BENCH_recovery.json (atomically); a prior
   file is read tolerantly for a trend line.  Fails (exit 1) when over
   budget or on a mismatch. *)
let recovery () =
  header
    "Recovery: snapshot overhead and crash/resume cost (durable sessions)";
  let model = Cq_hwsim.Cpu_model.haswell in
  let learn ?metrics ?snapshot ?resume ?query_budget () =
    let machine =
      Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model
    in
    let t0 = Cq_util.Clock.mono () in
    let run =
      Cq_core.Hardware.learn_set ~check_hits:false ?metrics ?snapshot ?resume
        ?query_budget machine Cq_hwsim.Cpu_model.L1
    in
    (run, Cq_util.Clock.mono () -. t0)
  in
  let report_of label (run : Cq_core.Hardware.run) =
    match run.Cq_core.Hardware.outcome with
    | Cq_core.Hardware.Learned { report; _ } -> report
    | Cq_core.Hardware.Partial { failure; _ } ->
        failwith
          (Fmt.str "recovery bench: %s run partial: %a" label
             Cq_core.Learn.pp_failure failure)
    | Cq_core.Hardware.Failed { reason; _ } ->
        failwith ("recovery bench: " ^ label ^ " run failed: " ^ reason)
  in
  (* 1. Baseline: no durability machinery at all. *)
  let base_run, base_dt = learn () in
  let base = report_of "baseline" base_run in
  let base_loads = base_run.Cq_core.Hardware.timed_loads in
  Printf.printf "baseline:     %4d states, %8d timed loads, %5.1fs\n%!"
    base.Cq_core.Learn.states base_loads base_dt;
  (* 2. Snapshots on: written between queries, off the hardware path; the
     session layer's share of the wall time must stay within 5%. *)
  let snap_path = Filename.temp_file "cq_bench_snap" ".snap" in
  let metrics = Cq_util.Metrics.create () in
  let snap_run, snap_dt =
    (* Default cadence (500 queries / 30 s) — what a real campaign runs. *)
    learn ~metrics ~snapshot:(Cq_core.Learn.snapshot_policy snap_path) ()
  in
  let snap = report_of "snapshotted" snap_run in
  let snap_loads = snap_run.Cq_core.Hardware.timed_loads in
  let hist_sum name =
    match List.assoc_opt name (Cq_util.Metrics.snapshot metrics) with
    | Some (Cq_util.Metrics.Histogram_value h) -> h.Cq_util.Metrics.hs_sum
    | _ -> 0.
  in
  let session_s =
    hist_sum "learn.snapshot_write_seconds"
    +. hist_sum "learn.snapshot_export_seconds"
  in
  let session_pct = 100.0 *. session_s /. snap_dt in
  let within_budget = session_pct <= 5.0 in
  let wall_ratio = snap_dt /. base_dt in
  let snap_identical =
    Cq_automata.Mealy.equivalent base.Cq_core.Learn.machine
      snap.Cq_core.Learn.machine
  in
  Printf.printf
    "snapshotting: %4d states, %8d timed loads, %5.1fs  (%.2fx baseline; \
     session layer %.2fs = %.2f%% of wall%s, automaton %s)\n%!"
    snap.Cq_core.Learn.states snap_loads snap_dt wall_ratio session_s
    session_pct
    (if within_budget then "" else "  <-- OVER 5% BUDGET")
    (if snap_identical then "identical" else "DIFFERS <-- MISMATCH");
  (* 3. Crash mid-run: a query budget at half the baseline's hardware
     queries stops the run as Partial Budget_exhausted with a final
     snapshot; resuming replays the answered prefix for free and must
     finish with the identical automaton for less than a fresh run. *)
  let crash_path = Filename.temp_file "cq_bench_crash" ".snap" in
  let budget = max 1 (base.Cq_core.Learn.member_queries / 2) in
  let crash_run, _ =
    learn
      ~snapshot:(Cq_core.Learn.snapshot_policy ~every_queries:100 crash_path)
      ~query_budget:budget ()
  in
  let crash_loads = crash_run.Cq_core.Hardware.timed_loads in
  let resume_from =
    match crash_run.Cq_core.Hardware.outcome with
    | Cq_core.Hardware.Partial
        { failure = Cq_core.Learn.Budget_exhausted _; snapshot = Some s; _ } ->
        s
    | _ ->
        failwith
          "recovery bench: budgeted run did not end as Partial \
           Budget_exhausted with a snapshot"
  in
  Printf.printf "crashed:      (query budget %d) %8d timed loads, snapshot %s\n%!"
    budget crash_loads resume_from;
  let resume_run, resume_dt = learn ~resume:resume_from () in
  let resumed = report_of "resumed" resume_run in
  let resume_loads = resume_run.Cq_core.Hardware.timed_loads in
  let resume_identical =
    Cq_automata.Mealy.equivalent base.Cq_core.Learn.machine
      resumed.Cq_core.Learn.machine
  in
  let saved_pct =
    100.0
    *. float_of_int (base_loads - resume_loads)
    /. float_of_int (max 1 base_loads)
  in
  Printf.printf
    "resumed:      %4d states, %8d timed loads, %5.1fs  (%.1f%% of a fresh \
     run's loads saved, automaton %s)\n%!"
    resumed.Cq_core.Learn.states resume_loads resume_dt saved_pct
    (if resume_identical then "identical" else "DIFFERS <-- MISMATCH");
  (* Trend line against the previous bench run, if one left a readable file. *)
  (match prior_int "BENCH_recovery.json" [ "resume"; "resume_timed_loads" ] with
  | `Missing -> ()
  | `Prior prev ->
      Printf.printf "previous resume cost: %d timed loads (now %d)\n%!" prev
        resume_loads
  | `Unreadable ->
      Printf.printf
        "(prior BENCH_recovery.json unreadable or partial -- ignored)\n%!");
  let run_json states loads dt =
    [
      ("states", Json.Int states);
      ("timed_loads", Json.Int loads);
      ("seconds", num 3 dt);
    ]
  in
  write_artifact "BENCH_recovery.json"
    (Json.Obj
       [
         ( "target",
           Json.Obj
             [
               ("cpu", Json.String model.Cq_hwsim.Cpu_model.name);
               ("level", Json.String "L1");
             ] );
         ( "baseline",
           Json.Obj (run_json base.Cq_core.Learn.states base_loads base_dt) );
         ( "snapshotting",
           Json.Obj
             (run_json snap.Cq_core.Learn.states snap_loads snap_dt
             @ [
                 ("wall_ratio", num 3 wall_ratio);
                 ("session_seconds", num 3 session_s);
                 ("session_pct", num 3 session_pct);
                 ("within_budget", Json.Bool within_budget);
                 ("identical", Json.Bool snap_identical);
               ]) );
         ( "crash",
           Json.Obj
             [
               ("query_budget", Json.Int budget);
               ("timed_loads", Json.Int crash_loads);
             ] );
         ( "resume",
           Json.Obj
             [
               ("states", Json.Int resumed.Cq_core.Learn.states);
               ("resume_timed_loads", Json.Int resume_loads);
               ("seconds", num 3 resume_dt);
               ("loads_saved_pct", num 3 saved_pct);
               ("identical", Json.Bool resume_identical);
             ] );
       ]);
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ snap_path; crash_path ];
  if not (snap_identical && resume_identical) then
    failwith "recovery bench: learned automata diverged from the baseline";
  if not within_budget then
    failwith
      (Printf.sprintf
         "recovery bench: session layer took %.2f%% of the snapshotting \
          run's wall time (budget 5%%)"
         session_pct)

(* ----------------------------------------------------------------------- *)
(* Static analysis: what rejecting before expansion saves                    *)
(* ----------------------------------------------------------------------- *)

(* The point of Mbl_check as a server-side admission filter: its cost is
   O(|AST|) while the expansion it predicts is O(cardinality * length).
   Measured on programs whose cardinality spans five orders of magnitude,
   including one the expander must build 16^4 queries for before a naive
   bound check could reject it. *)
let analysis () =
  header "Static analysis: Mbl_check admission vs. full expansion";
  let programs =
    [
      ("@ X _?", 8, 1 lsl 20);
      ("@ X? X?", 8, 1 lsl 20);
      ("_ _", 16, 1 lsl 20);
      ("_ _ _", 16, 1 lsl 20);
      ("_ _ _ _", 16, 1 lsl 20) (* 65536 queries: expansion hurts *);
      ("(_)3 (_)2", 16, 16) (* rejected: over budget *);
    ]
  in
  Printf.printf "%-14s %9s | %12s | %12s | %s\n%!" "program" "queries"
    "check" "expand" "speedup";
  let rows =
    List.map
      (fun (input, assoc, max_queries) ->
        let verdict, check_dt =
          Cq_util.Clock.time (fun () ->
              Cq_analysis.Mbl_check.check_string ~max_queries ~assoc input)
        in
        let expand_dt =
          match
            Cq_util.Clock.time (fun () ->
                match Cq_mbl.Expand.expand_string ~max_queries ~assoc input with
                | _ -> ()
                | exception Cq_mbl.Expand.Expansion_error _ -> ())
          with
          | (), dt -> dt
        in
        let cardinality =
          match verdict with
          | Ok s -> string_of_int s.Cq_analysis.Mbl_check.cardinality
          | Error _ -> "rejected"
        in
        Printf.printf "%-14s %9s | %9.1f us | %9.1f us | %6.0fx\n%!" input
          cardinality (1e6 *. check_dt) (1e6 *. expand_dt)
          (expand_dt /. Float.max check_dt 1e-9);
        Json.Obj
          [
            ("program", Json.String input);
            ("queries", Json.String cardinality);
            ("check_seconds", num 9 check_dt);
            ("expand_seconds", num 9 expand_dt);
          ])
    programs
  in
  write_artifact "BENCH_analysis.json" (Json.Obj [ ("programs", Json.List rows) ])

(* ----------------------------------------------------------------------- *)
(* Service layer: cachequeryd under concurrent clients                       *)
(* ----------------------------------------------------------------------- *)

(* Daemon state dirs are scratch: sockets and per-session snapshots that
   only matter while the bench runs.  Remove them afterwards so repeated
   runs and CI checkouts stay clean. *)
let rm_scratch_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* An in-process daemon serving N concurrent clients: membership-query
   latency percentiles and request throughput, then one full learn per
   client running concurrently — each result must be byte-identical to a
   solo (daemon-less) learn of the same policy, or the bench fails. *)
let service () =
  header "Service layer: cachequeryd under concurrent clients";
  let module Server = Cq_service.Server in
  let module Client = Cq_service.Client in
  let clients = 4 in
  let queries_per_client = 250 in
  let state_dir = "bench-service-state" in
  (try Unix.mkdir state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat state_dir "bench.sock" in
  let cfg = Server.config ~workers:clients ~state_dir socket in
  let server = Server.create cfg in
  Server.start server;
  Fun.protect ~finally:(fun () ->
      Server.stop server;
      rm_scratch_dir state_dir)
  @@ fun () ->
  (* --- phase 1: membership-query latency under concurrency --- *)
  let latencies = Array.make clients [||] in
  let t0 = Cq_util.Clock.mono () in
  let run_client i =
    let c = Client.connect_unix socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let sid = Client.create_sim c ~policy:"LRU" ~assoc:2 () in
    let samples = Array.make queries_per_client 0.0 in
    for q = 0 to queries_per_client - 1 do
      let word = [ q mod 3; (q + 1) mod 3; q mod 2 ] in
      let t = Cq_util.Clock.mono () in
      ignore (Client.query_sim c sid word);
      samples.(q) <- Cq_util.Clock.mono () -. t
    done;
    latencies.(i) <- samples
  in
  let threads = List.init clients (fun i -> Thread.create run_client i) in
  List.iter Thread.join threads;
  let wall = Cq_util.Clock.mono () -. t0 in
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  let pct p =
    let n = Array.length all in
    all.(min (n - 1) (max 0 (int_of_float (ceil (p /. 100. *. float n)) - 1)))
  in
  let total = clients * queries_per_client in
  let throughput = float total /. wall in
  let p50 = pct 50. and p95 = pct 95. and p99 = pct 99. in
  Printf.printf
    "%d clients x %d queries: %.0f req/s | p50 %.0f us | p95 %.0f us | p99 \
     %.0f us\n%!"
    clients queries_per_client throughput (1e6 *. p50) (1e6 *. p95)
    (1e6 *. p99);
  (* --- phase 2: concurrent learns, checked against solo runs --- *)
  let policies = [| "LRU"; "FIFO"; "PLRU"; "MRU" |] in
  let learns = Array.make clients ("", "", "", 0, 0.0) in
  let learn_client i =
    let c = Client.connect_unix socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let policy = policies.(i mod Array.length policies) in
    let sid = Client.create_sim c ~policy ~assoc:4 () in
    Client.learn_start c sid;
    let st = Client.learn_wait c ~timeout_s:300.0 sid in
    let field name =
      match Json.mem_str name st with Some s -> s | None -> "?"
    in
    let queries =
      Option.value ~default:0 (Json.mem_int "member_queries" st)
    in
    let seconds =
      match Json.member "seconds" st with
      | Some f -> Option.value ~default:0.0 (Json.to_float f)
      | None -> 0.0
    in
    learns.(i) <- (policy, field "state", field "digest", queries, seconds)
  in
  let t1 = Cq_util.Clock.mono () in
  let threads = List.init clients (fun i -> Thread.create learn_client i) in
  List.iter Thread.join threads;
  let learn_wall = Cq_util.Clock.mono () -. t1 in
  let learns =
    Array.map
      (fun (policy, state, dgst, queries, seconds) ->
        let solo =
          let p = Cq_policy.Zoo.make_exn ~name:policy ~assoc:4 in
          let r = Cq_core.Learn.learn_simulated ~identify:false p in
          Cq_policy.Policy.machine_digest r.Cq_core.Learn.machine
        in
        let matches = state = "done" && dgst = solo in
        Printf.printf
          "  %-5s %-6s  %6d queries  %6.2f s  solo-identical: %b\n%!" policy
          state queries seconds matches;
        if not matches then
          failwith
            (Printf.sprintf
               "service bench: %s learned under concurrency diverged from \
                solo"
               policy);
        Json.Obj
          [
            ("policy", Json.String policy);
            ("state", Json.String state);
            ("digest", Json.String dgst);
            ("queries", Json.Int queries);
            ("seconds", num 3 seconds);
            ("matches_solo", Json.Bool matches);
          ])
      learns
  in
  write_artifact "BENCH_service.json"
    (Json.Obj
       [
         ("clients", Json.Int clients);
         ("requests", Json.Int total);
         ("wall_seconds", num 6 wall);
         ("throughput_rps", num 1 throughput);
         ( "latency_seconds",
           Json.Obj [ ("p50", num 9 p50); ("p95", num 9 p95); ("p99", num 9 p99) ]
         );
         ("learn_wall_seconds", num 3 learn_wall);
         ("learns", Json.List (Array.to_list learns));
       ])

(* ----------------------------------------------------------------------- *)
(* Chaos: seeded fault schedules x concurrent resilient clients             *)
(* ----------------------------------------------------------------------- *)

(* The chaos matrix: boot an in-process daemon under a seeded fault
   schedule, drive it with concurrent retry-enabled clients, and hold the
   resilience layer to its contract — the daemon never crashes, client
   retry counts stay bounded, and every learned automaton is
   byte-identical to the quiet run's.  Schedules are deterministic
   (registry seed + site-local PRNG streams), so a failing cell replays
   exactly from its spec string. *)
let chaos () =
  header "Chaos: seeded fault schedules x concurrent resilient clients";
  let module Server = Cq_service.Server in
  let module Client = Cq_service.Client in
  let module Faults = Cq_util.Faults in
  let policies = [| "LRU"; "FIFO"; "PLRU" |] in
  let assoc = 4 in
  let n_clients = Array.length policies in
  (* The quiet reference: solo daemon-less learns, one per policy. *)
  let solo =
    Array.map
      (fun policy ->
        let p = Cq_policy.Zoo.make_exn ~name:policy ~assoc in
        let r = Cq_core.Learn.learn_simulated ~identify:false p in
        Cq_policy.Policy.machine_digest r.Cq_core.Learn.machine)
      policies
  in
  (* (name, fault spec, whether the spec faults snapshot writes — those
     rows must see the daemon degrade a session at least once).  Most
     snapshot writes are log appends, so the snapshot faults target the
     append path; [snapshot-enospc] also faults one base rewrite. *)
  let scenarios =
    [
      ("quiet", "", false);
      ("worker-kill", "service.worker.kill:reach=60", false);
      ("torn-frames", "frame.write.torn:every=9,limit=3", false);
      ("read-stall", "frame.read.stall:every=10,limit=6", false);
      ( "snapshot-enospc",
        "atomic_file.append:nth=2,limit=1;atomic_file.append_fsync:nth=5,limit=1;atomic_file.write:nth=2,limit=1",
        true );
      ( "mixed",
        "service.worker.kill:reach=80;frame.write.torn:every=13,limit=2;atomic_file.append:nth=3,limit=1",
        true );
    ]
  in
  let max_restarts = 5 in
  let retry_bound = 50 in
  let rows =
    List.map
      (fun (scenario, spec, snapshot_faults) ->
        Printf.printf "\nscenario %-16s %s\n%!" scenario
          (if spec = "" then "(no faults)" else spec);
        let reg =
          if spec = "" then None
          else
            match Faults.of_spec ~seed:7 spec with
            | Ok r -> Some r
            | Error msg -> failwith ("chaos: bad fault spec: " ^ msg)
        in
        Faults.set_ambient reg;
        let state_dir = "bench-chaos-" ^ scenario in
        (try Unix.mkdir state_dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let socket = Filename.concat state_dir "chaos.sock" in
        let cfg =
          Server.config ~workers:n_clients ~snapshot_every:25 ~state_dir socket
        in
        let server = Server.create cfg in
        Server.start server;
        let results = Array.make n_clients ("", "", 0, 0, 0) in
        let errs = Array.make n_clients None in
        let run_client i =
          let retry =
            Client.retry ~attempts:8
              ~policy:(Cq_util.Backoff.policy ~base:0.005 ~cap:0.1 ())
              ~seed:i ()
          in
          let c = Client.connect_unix ~retry socket in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let policy = policies.(i) in
          let sid =
            Client.create_sim c ~policy ~assoc ~name:(scenario ^ "-" ^ policy)
              ()
          in
          Client.learn_start c sid;
          (* A faulted learn lands in [failed]/[interrupted] with a
             snapshot; restart it with resume until done (bounded). *)
          let rec finish restarts =
            let st = Client.learn_wait c ~timeout_s:120.0 sid in
            match Json.mem_str "state" st with
            | Some "done" -> (st, restarts)
            | Some ("failed" | "interrupted") when restarts < max_restarts ->
                Client.learn_start c ~resume:true sid;
                finish (restarts + 1)
            | st_name ->
                failwith
                  (Printf.sprintf
                     "chaos %s/%s: state %s after %d restarts (not done)"
                     scenario policy
                     (Option.value ~default:"?" st_name)
                     restarts)
          in
          let st, restarts = finish 0 in
          let dgst = Option.value ~default:"?" (Json.mem_str "digest" st) in
          results.(i) <-
            (policy, dgst, restarts, Client.reconnects c,
             Client.request_retries c)
        in
        let run i = try run_client i with e -> errs.(i) <- Some e in
        let threads = List.init n_clients (fun i -> Thread.create run i) in
        List.iter Thread.join threads;
        let fault_fires =
          match reg with None -> 0 | Some r -> Faults.total_fires r
        in
        (* Disarm before the liveness probe and the final snapshot writes:
           the scenario's schedule applies to the workload only. *)
        Faults.set_ambient None;
        let alive =
          match Client.connect_unix socket with
          | exception _ -> false
          | c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  match Client.health c with
                  | h -> Json.mem_str "status" h <> None
                  | exception _ -> false)
        in
        let degraded =
          Cq_util.Metrics.value
            (Cq_util.Metrics.counter (Server.metrics server)
               "service.snapshot_degraded")
        in
        Server.stop server;
        Array.iteri
          (fun i err ->
            match err with
            | Some e ->
                failwith
                  (Printf.sprintf "chaos %s: client %d died: %s" scenario i
                     (Printexc.to_string e))
            | None -> ())
          errs;
        if not alive then
          failwith
            (Printf.sprintf "chaos %s: daemon unresponsive after fault run"
               scenario);
        Array.iteri
          (fun i (policy, dgst, restarts, reconnects, retries) ->
            let identical = dgst = solo.(i) in
            Printf.printf
              "  %-5s done  restarts=%d reconnects=%d retries=%d  \
               solo-identical: %b\n\
               %!"
              policy restarts reconnects retries identical;
            if not identical then
              failwith
                (Printf.sprintf
                   "chaos %s/%s: automaton diverged from the quiet run (%s vs %s)"
                   scenario policy dgst solo.(i));
            if reconnects + retries > retry_bound then
              failwith
                (Printf.sprintf
                   "chaos %s/%s: unbounded retries (%d reconnects + %d \
                    retries > %d)"
                   scenario policy reconnects retries retry_bound))
          results;
        Printf.printf
          "  (daemon alive, %d fault firings, %d degraded snapshot writes)\n%!"
          fault_fires degraded;
        if snapshot_faults && degraded = 0 then
          failwith
            (Printf.sprintf
               "chaos %s: snapshot faults armed but no snapshot write degraded"
               scenario);
        (* Only a passing scenario cleans up: a failed one leaves its
           state dir behind for the post-mortem. *)
        rm_scratch_dir state_dir;
        (scenario, spec, fault_fires, degraded, Array.to_list results))
      scenarios
  in
  Faults.set_ambient None;
  write_artifact "BENCH_chaos.json"
    (Json.Obj
       [
         ("clients", Json.Int n_clients);
         ( "scenarios",
           Json.List
             (List.map
                (fun (scenario, spec, fault_fires, degraded, results) ->
                  Json.Obj
                    [
                      ("name", Json.String scenario);
                      ("spec", Json.String spec);
                      ("fault_fires", Json.Int fault_fires);
                      ("snapshot_degraded", Json.Int degraded);
                      ("daemon_crashes", Json.Int 0);
                      ( "learns",
                        Json.List
                          (List.map
                             (fun (policy, dgst, restarts, reconnects, retries) ->
                               Json.Obj
                                 [
                                   ("policy", Json.String policy);
                                   ("digest", Json.String dgst);
                                   ("restarts", Json.Int restarts);
                                   ("reconnects", Json.Int reconnects);
                                   ("request_retries", Json.Int retries);
                                   ("identical_to_quiet", Json.Bool true);
                                 ])
                             results) );
                    ])
                rows) );
       ])

(* ----------------------------------------------------------------------- *)
(* Assoc scaling: symmetry-quotient learning vs direct                       *)
(* ----------------------------------------------------------------------- *)

(* The associativity wall (§7 of the paper stops at 8 ways): learn the
   scaling targets from software-simulated caches with the symmetry
   quotient on and off, and record queries + wall-clock per associativity
   in BENCH_assoc.json.  The headline: PLRU at 12 ways with the quotient
   on must fit inside the direct (quotient-off) PLRU-8 query budget.

   Controls: LRU is fully symmetric (maximal collapse, but n! states caps
   its curve early) and FIFO has no verified symmetry (the quotient must
   degrade to the identity, same queries modulo the probe cost).  New1's
   state count explodes (~58k at 8 ways), so its curve stops where the
   hypothesis, not the query budget, is the wall.  Whenever both runs of
   a config learn, their automata must be identical — a quotient that
   changes the learned machine is unsound, and [--smoke] (the CI gate)
   fails the process on it. *)
let assoc_bench ~full ~smoke () =
  header
    "Assoc scaling: symmetry-quotient learning vs direct (Polca + L*, \
     Wp-method depth 1)";
  let plans =
    (* (policy, assoc, run quotient-off too, deadline seconds) *)
    if smoke then
      [
        ("LRU", 4, true, None); ("FIFO", 4, true, None);
        ("PLRU", 4, true, None); ("New1", 4, true, None);
      ]
    else
      [
        ("LRU", 4, true, None); ("LRU", 6, true, None);
        ("FIFO", 8, true, None); ("FIFO", 12, true, None);
        ("FIFO", 16, true, None);
        ("New1", 4, true, None);
        ("PLRU", 4, true, None); ("PLRU", 8, true, None);
        ("PLRU", 12, full, None);
      ]
      @ (if full then
           [
             (* New1 has no reachable line symmetry, so its curve is pure
                quotient overhead past assoc 4 — full-sweep only. *)
             ("New1", 6, true, None);
             ("PLRU", 16, false, Some 1800.); ("New1", 8, false, Some 1800.);
           ]
         else [])
  in
  let learn ~quotient ?deadline policy =
    let outcome =
      Cq_core.Learn.run_simulated ~identify:false ~quotient
        ~deadline:(Cq_util.Clock.deadline_of deadline) policy
    in
    outcome
  in
  Printf.printf "%-8s %5s | %10s %8s | %10s %8s | %8s %9s %5s\n%!" "Policy"
    "assoc" "direct q" "time" "quot q" "time" "collapse" "st/reps" "same";
  let rows =
    List.map
      (fun (name, assoc, run_off, deadline) ->
        let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
        let off = if run_off then Some (learn ~quotient:false ?deadline policy) else None in
        let on = learn ~quotient:true ?deadline policy in
        let queries = function
          | Cq_core.Learn.Complete r -> string_of_int r.Cq_core.Learn.member_queries
          | Cq_core.Learn.Partial _ -> "-"
        in
        let time = function
          | Cq_core.Learn.Complete r -> Cq_util.Clock.to_string r.Cq_core.Learn.seconds
          | Cq_core.Learn.Partial p -> Fmt.str "(%a)" Cq_core.Learn.pp_failure p.Cq_core.Learn.failure
        in
        let identical =
          match (off, on) with
          | Some (Cq_core.Learn.Complete a), Cq_core.Learn.Complete b ->
              Some
                (Cq_automata.Mealy.equivalent a.Cq_core.Learn.machine
                   b.Cq_core.Learn.machine)
          | _ -> None
        in
        let state_collapse =
          match on with
          | Cq_core.Learn.Complete { Cq_core.Learn.quotient = Some q; _ } ->
              Printf.sprintf "%d/%d" q.Cq_learner.Quotient.states
                q.Cq_learner.Quotient.reps
          | _ -> "-"
        in
        let collapse =
          match (off, on) with
          | Some (Cq_core.Learn.Complete a), Cq_core.Learn.Complete b ->
              Printf.sprintf "%.2fx"
                (float_of_int a.Cq_core.Learn.member_queries
                /. float_of_int (max 1 b.Cq_core.Learn.member_queries))
          | _ -> "-"
        in
        Printf.printf "%-8s %5d | %10s %8s | %10s %8s | %8s %9s %5s\n%!" name
          assoc
          (match off with Some o -> queries o | None -> "(skip)")
          (match off with Some o -> time o | None -> "-")
          (queries on) (time on) collapse state_collapse
          (match identical with
          | Some true -> "yes"
          | Some false -> "NO <-- MISMATCH"
          | None -> "-");
        (name, assoc, off, on, identical))
      plans
  in
  (* The headline budget check: quotient-on PLRU-12 vs direct PLRU-8. *)
  let find_complete name assoc pick =
    List.find_map
      (fun (n, a, off, on, _) ->
        if n = name && a = assoc then
          match pick off on with
          | Some (Cq_core.Learn.Complete r) -> Some r
          | _ -> None
        else None)
      rows
  in
  let budget =
    match
      ( find_complete "PLRU" 12 (fun _off on -> Some on),
        find_complete "PLRU" 8 (fun off _on -> off) )
    with
    | Some p12, Some p8 ->
        let within =
          p12.Cq_core.Learn.member_queries <= p8.Cq_core.Learn.member_queries
        in
        Printf.printf
          "\nPLRU-12 (quotient) vs PLRU-8 (direct): %d vs %d membership \
           queries -> %s\n%!"
          p12.Cq_core.Learn.member_queries p8.Cq_core.Learn.member_queries
          (if within then "within the assoc-8 budget"
           else "OVER BUDGET <-- the quotient is not paying for itself");
        Some (p12.Cq_core.Learn.member_queries, p8.Cq_core.Learn.member_queries, within)
    | _ -> None
  in
  (* The other half of the tentpole: hypothesis evaluation during
     conformance testing is compiled to flattened tables with
     dictionary-coded outputs ([Mealy.compile] / [Mealy.encode_trace] /
     [Mealy.agrees_trace]) instead of re-walking the per-state arrays,
     allocating an output list per word and comparing it with
     polymorphic equality ([Mealy.run]).  Each recorded trace is encoded
     once and evaluated [repeats] times, the shape counterexample
     re-processing and conformance replay produce: the same (word,
     outputs) pair is checked against every refined hypothesis.
     Differential micro-bench: same words, same corrupted-trace mix,
     verdicts must be identical, and the compiled path must clear 5x.
     Conformance testing itself runs [Mealy.agrees] on list words and
     expected outputs (no pre-encoding); it is timed on the same words
     for reference, ungated. *)
  let compiled_eval =
    let m =
      Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:8)
    in
    let c = Cq_automata.Mealy.compile m in
    let k = Cq_automata.Mealy.n_inputs m in
    let prng = Cq_util.Prng.of_int 0x5eed in
    let words =
      Array.init 2000 (fun i ->
          let w = List.init 64 (fun _ -> Cq_util.Prng.int prng k) in
          let exp = Cq_automata.Mealy.run m w in
          (* Half the traces are corrupted mid-word, so both evaluators
             exercise their reject paths too. *)
          let exp =
            if i mod 2 = 0 then exp
            else
              List.mapi
                (fun j o -> if j = 32 then (match o with Some l -> Some (l + 1) | None -> Some 0) else o)
                exp
          in
          (w, exp))
    in
    (* Pre-encoding happens once per trace, outside the timed loop: the
       evaluators below model replaying a fixed recorded trace against
       successive hypothesis refinements. *)
    let traces =
      Array.map (fun (w, exp) -> Cq_automata.Mealy.encode_trace c w exp) words
    in
    let repeats = 50 in
    let run_verdicts = Array.map (fun (w, exp) -> Cq_automata.Mealy.run m w = exp) words in
    let agree_verdicts = Array.map (fun tr -> Cq_automata.Mealy.agrees_trace c tr) traces in
    let list_verdicts =
      Array.map (fun (w, exp) -> Cq_automata.Mealy.agrees c w exp) words
    in
    let identical = run_verdicts = agree_verdicts && run_verdicts = list_verdicts in
    let (), run_s =
      Cq_util.Clock.time (fun () ->
          for _ = 1 to repeats do
            Array.iter (fun (w, exp) -> ignore (Cq_automata.Mealy.run m w = exp)) words
          done)
    in
    let (), agrees_s =
      Cq_util.Clock.time (fun () ->
          for _ = 1 to repeats do
            Array.iter (fun tr -> ignore (Cq_automata.Mealy.agrees_trace c tr)) traces
          done)
    in
    let (), list_s =
      Cq_util.Clock.time (fun () ->
          for _ = 1 to repeats do
            Array.iter
              (fun (w, exp) -> ignore (Cq_automata.Mealy.agrees c w exp))
              words
          done)
    in
    let speedup = run_s /. Float.max 1e-9 agrees_s in
    let list_speedup = run_s /. Float.max 1e-9 list_s in
    Printf.printf
      "\ncompiled evaluation (PLRU-8 truth, 2000 words x 64 symbols x %d \
       reps):\n  Mealy.run %.4f s, Mealy.agrees_trace %.4f s -> %.1fx, \
       verdicts identical: %b\n  Mealy.agrees (conformance path, \
       ungated) %.4f s -> %.1fx\n%!"
      repeats run_s agrees_s speedup identical list_s list_speedup;
    if not identical then
      failwith "assoc bench: compiled evaluator verdicts differ from Mealy.run";
    if (not smoke) && speedup < 5.0 then
      failwith
        (Printf.sprintf
           "assoc bench: compiled evaluator speedup %.1fx below the 5x bar"
           speedup);
    (run_s, agrees_s, speedup, identical, list_s, list_speedup)
  in
  let run_json = function
    | Cq_core.Learn.Complete (r : Cq_core.Learn.report) ->
        let quotient =
          match r.Cq_core.Learn.quotient with
          | Some q ->
              [
                ("quotient_reps", Json.Int q.Cq_learner.Quotient.reps);
                ("quotient_states", Json.Int q.Cq_learner.Quotient.states);
                ("quotient_aliases", Json.Int q.Cq_learner.Quotient.aliases);
                ("alias_queries", Json.Int q.Cq_learner.Quotient.alias_queries);
                ("state_collapse", num 2 (Cq_learner.Quotient.collapse q));
              ]
          | None -> []
        in
        Json.Obj
          ([
             ("learned", Json.Bool true);
             ("states", Json.Int r.Cq_core.Learn.states);
             ("member_queries", Json.Int r.Cq_core.Learn.member_queries);
             ("member_symbols", Json.Int r.Cq_core.Learn.member_symbols);
             ("cache_queries", Json.Int r.Cq_core.Learn.cache_queries);
             ("cache_accesses", Json.Int r.Cq_core.Learn.cache_accesses);
             ("seconds", num 6 r.Cq_core.Learn.seconds);
           ]
          @ quotient)
    | Cq_core.Learn.Partial p ->
        Json.Obj
          [
            ("learned", Json.Bool false);
            ( "reason",
              Json.String
                (Fmt.str "%a" Cq_core.Learn.pp_failure p.Cq_core.Learn.failure)
            );
          ]
  in
  let run_s, agrees_s, speedup, identical, list_s, list_speedup =
    compiled_eval
  in
  write_artifact ~smoke "BENCH_assoc.json"
    (Json.Obj
       ([
          ( "mode",
            Json.String
              (if smoke then "smoke" else if full then "full" else "default") );
          ( "compiled_eval",
            Json.Obj
              [
                ("run_seconds", num 6 run_s);
                ("agrees_seconds", num 6 agrees_s);
                ("speedup", num 2 speedup);
                ("identical_verdicts", Json.Bool identical);
                ("agrees_list_seconds", num 6 list_s);
                ("agrees_list_speedup", num 2 list_speedup);
              ] );
        ]
       @ (match budget with
         | Some (q12, q8, within) ->
             [
               ( "plru12_quotient_vs_plru8_direct",
                 Json.Obj
                   [
                     ("plru12_queries", Json.Int q12);
                     ("plru8_queries", Json.Int q8);
                     ("within_budget", Json.Bool within);
                   ] );
             ]
         | None -> [])
       @ [
           ( "results",
             Json.List
               (List.map
                  (fun (name, assoc, off, on, identical) ->
                    Json.Obj
                      [
                        ("policy", Json.String name);
                        ("assoc", Json.Int assoc);
                        ("quotient", run_json on);
                        ( "direct",
                          match off with Some o -> run_json o | None -> Json.Null );
                        ( "identical",
                          match identical with
                          | Some b -> Json.Bool b
                          | None -> Json.Null );
                      ])
                  rows) );
         ]));
  let mismatches =
    List.filter_map
      (fun (name, assoc, _, _, identical) ->
        if identical = Some false then Some (Printf.sprintf "%s-%d" name assoc)
        else None)
      rows
  in
  if mismatches <> [] then
    failwith
      ("assoc bench: quotient changed the learned machine for "
      ^ String.concat ", " mismatches);
  if smoke then
    match budget with
    | Some (_, _, false) ->
        failwith "assoc bench: PLRU-12 quotient run exceeded the PLRU-8 budget"
    | _ -> ()

(* ----------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one per experiment family                      *)
(* ----------------------------------------------------------------------- *)

let micro () =
  header "Micro-benchmarks (bechamel): core operations of each experiment";
  let open Bechamel in
  let new1 = Cq_policy.Zoo.make_exn ~name:"New1" ~assoc:4 in
  let new1_mealy = Cq_policy.Policy.to_mealy new1 in
  let word = [ 4; 0; 4; 2; 4; 1; 0; 4; 3; 4 ] in
  let sim_oracle = Cq_cache.Oracle.of_policy new1 in
  let polca = Cq_core.Polca.create ~check_hits:true sim_oracle in
  let machine =
    Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise
      Cq_hwsim.Cpu_model.skylake
  in
  let prog_new1 =
    {
      Cq_synth.Rules.init = [| 3; 3; 3; 0 |];
      promote =
        { p_self = [ (Cq_synth.Rules.Always, Cq_synth.Rules.Const 0) ]; p_others = None };
      evict = Cq_synth.Rules.First_with_age 3;
      insert = { i_self = Cq_synth.Rules.Const 1; i_others = None };
      normalize =
        {
          n_touched = Cq_synth.Rules.N_aging { except_touched = true };
          n_pre_miss = Cq_synth.Rules.N_nop;
        };
    }
  in
  let tests =
    [
      Test.make ~name:"t2-mealy-run-new1"
        (Staged.stage (fun () -> Cq_automata.Mealy.run new1_mealy word));
      Test.make ~name:"t2-polca-query"
        (Staged.stage (fun () -> Cq_core.Polca.run polca word));
      Test.make ~name:"t4-hwsim-load"
        (Staged.stage
           (let addr = ref 0 in
            fun () ->
              addr := (!addr + 4096) land 0xFFFFFF;
              Cq_hwsim.Machine.load machine !addr));
      Test.make ~name:"t4-mbl-expand"
        (Staged.stage (fun () -> Cq_mbl.Expand.expand_string ~assoc:8 "@ X _?"));
      Test.make ~name:"t5-synth-check"
        (Staged.stage (fun () ->
             Cq_synth.Search.check_exact new1_mealy prog_new1));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-24s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n%!" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"micro" [ t ]) tests)

(* ----------------------------------------------------------------------- *)
(* Workload engine: hit rates vs Belady-OPT, compiled replay throughput     *)
(* ----------------------------------------------------------------------- *)

(* The workload engine closes the loop from learned automata back to
   traffic: replay spec-described traces through the zoo (hit rates vs
   the Belady-OPT offline bound), then hold the compiled replayer to its
   contract — bit-for-bit agreement with the policy-instance path on a
   learned PLRU-8 machine at >= 1M accesses/sec — and finally drive the
   same evaluation through the daemon's replay verb, which must report
   the same numbers.  Results land in BENCH_workload.json (atomically); a
   prior file is read tolerantly for a throughput trend line. *)
let workload () =
  header
    "Workload engine: hit rates vs Belady-OPT, compiled replay throughput";
  let module W = Cq_workload in
  let assoc = 8 in
  let policy_names =
    [ "LRU"; "FIFO"; "PLRU"; "MRU"; "LIP"; "BIP"; "SRRIP-HP" ]
  in
  let specs =
    [
      "zipf:n=64,alpha=1.2,len=200000,seed=1";
      "uniform:n=16,len=200000,seed=2";
      "seq:n=12,len=200000";
      "stride:n=24,stride=3,len=200000";
      "anti:len=200000";
    ]
  in
  let traces = List.map (W.Trace.of_spec_exn ~assoc) specs in
  let subjects =
    List.map
      (fun name -> (name, Cq_policy.Zoo.make_exn ~name ~assoc))
      policy_names
  in
  (* --- phase 1: hit-rate table vs Belady-OPT --- *)
  let rows = W.Eval.policies subjects traces in
  W.Eval.pp_table Format.std_formatter rows;
  (* --- phase 2: a machine actually produced by the learner --- *)
  Printf.printf "\nlearning PLRU at assoc %d...\n%!" assoc;
  let plru = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc in
  let report = Cq_core.Learn.learn_simulated ~identify:false plru in
  let compiled = Cq_automata.Mealy.compile report.Cq_core.Learn.machine in
  let states = Cq_automata.Mealy.compiled_n_states compiled in
  Printf.printf "learned %d states in %.2f s\n%!" states
    report.Cq_core.Learn.seconds;
  let streams_identical =
    List.for_all
      (fun (tr : W.Trace.t) ->
        let o_p = W.Replay.policy plru tr.W.Trace.blocks in
        let o_c = W.Replay.compiled compiled tr.W.Trace.blocks in
        Bytes.equal o_p.W.Replay.stream o_c.W.Replay.stream)
      traces
  in
  Printf.printf
    "learned-machine streams identical to policy instances: %b\n%!"
    streams_identical;
  if not streams_identical then
    failwith
      "workload bench: learned PLRU-8 replay diverged from the policy \
       instance";
  (* --- phase 3: compiled throughput (floor: 1M accesses/sec) --- *)
  let big_spec = "zipf:n=64,alpha=1.2,len=2000000,seed=9" in
  let big = W.Trace.of_spec_exn ~assoc big_spec in
  let blocks = big.W.Trace.blocks in
  ignore (W.Replay.compiled compiled blocks) (* warm-up *);
  let t0 = Cq_util.Clock.mono () in
  let o_fast = W.Replay.compiled compiled blocks in
  let dt = Cq_util.Clock.mono () -. t0 in
  let t1 = Cq_util.Clock.mono () in
  let o_inst = W.Replay.policy plru blocks in
  let dt_inst = Cq_util.Clock.mono () -. t1 in
  if not (Bytes.equal o_fast.W.Replay.stream o_inst.W.Replay.stream) then
    failwith "workload bench: throughput-run streams diverged";
  let len_f = float_of_int (Array.length blocks) in
  let compiled_aps = len_f /. dt and policy_aps = len_f /. dt_inst in
  Printf.printf
    "compiled replay: %.1fM accesses/s | policy instance: %.1fM/s | \
     speedup %.1fx (%d accesses, %d-state machine)\n%!"
    (compiled_aps /. 1e6) (policy_aps /. 1e6) (compiled_aps /. policy_aps)
    (Array.length blocks) states;
  if compiled_aps < 1_000_000.0 then
    failwith
      (Printf.sprintf
         "workload bench: compiled replay at %.0f accesses/s is below the \
          1M/s floor"
         compiled_aps);
  (* --- phase 4: miss attribution on the learned machine --- *)
  let attr = W.Replay.attribution compiled in
  let attr_trace = List.hd traces in
  ignore (W.Replay.compiled ~attr compiled attr_trace.W.Trace.blocks);
  Printf.printf "\nmiss attribution: learned PLRU-%d on %s\n%!" assoc
    attr_trace.W.Trace.label;
  W.Eval.pp_attribution ~top:5 Format.std_formatter attr;
  (* --- phase 5: the daemon as a load source --- *)
  let module Server = Cq_service.Server in
  let module Client = Cq_service.Client in
  let state_dir = "bench-workload-state" in
  (try Unix.mkdir state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat state_dir "bench.sock" in
  let server = Server.create (Server.config ~workers:1 ~state_dir socket) in
  Server.start server;
  let daemon_match =
    Fun.protect ~finally:(fun () ->
        Server.stop server;
        rm_scratch_dir state_dir)
    @@ fun () ->
    let c = Client.connect_unix socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let d_assoc = 4 in
    let d_spec = "zipf:n=32,alpha=1.2,len=50000,seed=5" in
    let local =
      W.Replay.policy
        (Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:d_assoc)
        (W.Trace.of_spec_exn ~assoc:d_assoc d_spec).W.Trace.blocks
    in
    let sid = Client.create_sim c ~policy:"PLRU" ~assoc:d_assoc () in
    let hits_of doc = Option.value ~default:(-1) (Json.mem_int "hits" doc) in
    let before = Client.replay c ~spec:d_spec sid in
    Client.learn_start c sid;
    ignore (Client.learn_wait c ~timeout_s:300.0 sid);
    let after = Client.replay c ~spec:d_spec sid in
    let ok =
      hits_of before = local.W.Replay.hits
      && hits_of after = local.W.Replay.hits
      && Option.value ~default:"?" (Json.mem_str "source" after) = "learned"
    in
    Printf.printf
      "\ndaemon replay (PLRU-%d, %s): policy %d hits, learned %d hits, \
       local %d hits -> match: %b\n%!"
      d_assoc d_spec (hits_of before) (hits_of after) local.W.Replay.hits ok;
    ok
  in
  if not daemon_match then
    failwith "workload bench: daemon replay diverged from local replay";
  (* --- prior-run trend (tolerant of missing/partial files) --- *)
  (match prior_int "BENCH_workload.json" [ "compiled_accesses_per_sec" ] with
  | `Missing -> ()
  | `Prior p ->
      Printf.printf
        "\nprior compiled throughput: %d accesses/s -> this run: %.0f\n%!" p
        compiled_aps
  | `Unreadable ->
      Printf.printf
        "(prior BENCH_workload.json unreadable or partial -- ignored)\n%!");
  write_artifact "BENCH_workload.json"
    (Json.Obj
       [
         ("assoc", Json.Int assoc);
         ("learned_policy", Json.String "PLRU");
         ("learned_states", Json.Int states);
         ("learn_seconds", num 3 report.Cq_core.Learn.seconds);
         ("streams_identical", Json.Bool streams_identical);
         ("throughput_trace", Json.String big_spec);
         ("compiled_accesses_per_sec", Json.Int (int_of_float compiled_aps));
         ("policy_accesses_per_sec", Json.Int (int_of_float policy_aps));
         ("speedup", num 2 (compiled_aps /. policy_aps));
         ("daemon_match", Json.Bool daemon_match);
         ( "rows",
           Json.List
             (List.map
                (fun (r : W.Eval.row) ->
                  Json.Obj
                    [
                      ("policy", Json.String r.W.Eval.subject);
                      ("trace", Json.String r.W.Eval.trace);
                      ("accesses", Json.Int r.W.Eval.accesses);
                      ("hits", Json.Int r.W.Eval.hits);
                      ("hit_rate", num 6 r.W.Eval.rate);
                      ("opt_hit_rate", num 6 r.W.Eval.opt_rate);
                    ])
                rows) );
         ( "attribution_top",
           Json.List
             (List.map
                (fun (s, m, h) ->
                  Json.Obj
                    [
                      ("state", Json.Int s);
                      ("misses", Json.Int m);
                      ("hits", Json.Int h);
                    ])
                (W.Replay.top_miss_states attr 5)) );
       ])

(* ----------------------------------------------------------------------- *)
(* Security analysis: eviction sets, stealthy sequences, leakage            *)
(* ----------------------------------------------------------------------- *)

(* The cq-attack pass over the whole zoo at assoc 4 and 8 plus a
   quotient-learned PLRU-12: eviction-set size, stealthy-sequence
   length, leakage bits and analysis wall-clock per policy.  Gates (the
   process fails): every synthesized sequence must replay byte-for-byte
   through the Replay paths *and* hwsim; the analysis must be
   deterministic; BIP must evict strictly less information than LRU.
   [--smoke] (the CI gate) shrinks the sweep to a machine actually
   learned in simulation (LRU-4). *)
let attack ~smoke () =
  header
    "Security analysis: eviction sets, stealthy sequences, leakage \
     (cq-attack)";
  let module A = Cq_analysis.Attack in
  let module Learn = Cq_core.Learn in
  let zoo assoc =
    List.filter_map
      (fun e ->
        if e.Cq_policy.Zoo.valid_assoc assoc then
          Some (e.Cq_policy.Zoo.name, `Policy (e.Cq_policy.Zoo.make assoc))
        else None)
      Cq_policy.Zoo.entries
  in
  let subjects =
    if smoke then begin
      Printf.printf "smoke: learning LRU-4 in simulation...\n%!";
      let p = Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:4 in
      let lr = Learn.learn_simulated ~identify:false p in
      [ ("LRU(learned)", `Learned (lr.Learn.machine, p)) ]
    end
    else begin
      Printf.printf "learning PLRU-12 with the symmetry quotient...\n%!";
      let plru12 = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:12 in
      let lr = Learn.learn_simulated ~identify:false ~quotient:true plru12 in
      zoo 4 @ zoo 8
      @ [ ("PLRU-12(learned)", `Learned (lr.Learn.machine, plru12)) ]
    end
  in
  Printf.printf "%-18s %5s %7s | %5s %5s | %8s | %5s %8s %8s | %8s %s\n%!"
    "policy" "assoc" "states" "evset" "evlen" "stealth" "leak" "absorbed"
    "residual" "ms" "verified";
  let rows =
    List.map
      (fun (name, src) ->
        let p, m =
          match src with
          | `Policy p -> (p, Cq_policy.Policy.to_mealy p)
          | `Learned (m, p) -> (p, m)
        in
        let r, dt = Cq_util.Clock.time (fun () -> A.analyze ~name m) in
        if r.A.assoc <= 4 && A.analyze ~name m <> r then
          failwith (name ^ ": analysis is not deterministic");
        (match A.verify p r with
        | Ok () -> ()
        | Error e -> failwith (name ^ ": replay verification failed: " ^ e));
        (match A.verify_hwsim p r with
        | Ok () -> ()
        | Error e -> failwith (name ^ ": hwsim verification failed: " ^ e));
        let stealth_len, stealth_rep =
          match r.A.stealthy with
          | None -> (0, false)
          | Some st ->
              (List.length st.A.setup + List.length st.A.body,
               st.A.repeatable)
        in
        let l = r.A.leakage in
        Printf.printf
          "%-18s %5d %7d | %5d %5d | %7d%s | %5.2f %8d %8.2f | %8.1f ok\n%!"
          name r.A.assoc r.A.states r.A.eviction_set_size r.A.eviction_length
          stealth_len
          (if stealth_rep then "R" else "!")
          l.A.evicted_information l.A.absorbed_noise l.A.residual_information
          (dt *. 1000.0);
        (r, dt, stealth_len, stealth_rep))
      subjects
  in
  (* Ordering gate: BIP's deterministic LIP-biased insertion collapses
     victim intensities that LRU keeps apart. *)
  if not smoke then
    List.iter
      (fun assoc ->
        let bits name =
          let r, _, _, _ =
            List.find (fun (r, _, _, _) -> r.A.name = name && r.A.assoc = assoc) rows
          in
          r.A.leakage.A.evicted_information
        in
        if not (bits "BIP" < bits "LRU") then
          failwith
            (Printf.sprintf
               "attack bench: BIP-%d does not leak less than LRU-%d" assoc
               assoc))
      [ 4; 8 ];
  let worst_ms =
    List.fold_left (fun acc (_, dt, _, _) -> max acc (dt *. 1000.0)) 0.0 rows
  in
  (* Prior-run trend (tolerant of missing/partial files — first runs have
     no BENCH_attack.json at all). *)
  (match prior_int ~smoke "BENCH_attack.json" [ "max_analysis_ms" ] with
  | `Missing -> ()
  | `Prior p ->
      Printf.printf "\nprior worst analysis: %d ms -> this run: %.0f ms\n%!" p
        worst_ms
  | `Unreadable ->
      Printf.printf
        "(prior BENCH_attack.json unreadable or partial -- ignored)\n%!");
  write_artifact ~smoke "BENCH_attack.json"
    (Json.Obj
       [
         ("smoke", Json.Bool smoke);
         ("verified_all", Json.Bool true);
         ("row_count", Json.Int (List.length rows));
         ("max_analysis_ms", Json.Int (int_of_float (Float.round worst_ms)));
         ( "rows",
           Json.List
             (List.map
                (fun (r, dt, stealth_len, stealth_rep) ->
                  let l = r.A.leakage in
                  Json.Obj
                    [
                      ("policy", Json.String r.A.name);
                      ("assoc", Json.Int r.A.assoc);
                      ("states", Json.Int r.A.states);
                      ("eviction_set_size", Json.Int r.A.eviction_set_size);
                      ("eviction_length", Json.Int r.A.eviction_length);
                      ("stealthy_length", Json.Int stealth_len);
                      ("stealthy_repeatable", Json.Bool stealth_rep);
                      ("probe_classes", Json.Int l.A.probe_classes);
                      ("evicted_information", num 6 l.A.evicted_information);
                      ("absorbed_noise", Json.Int l.A.absorbed_noise);
                      ("residual_information", num 6 l.A.residual_information);
                      ("analysis_ms", num 3 (dt *. 1000.0));
                      ("verified", Json.Bool true);
                    ])
                rows) );
       ])

(* ----------------------------------------------------------------------- *)
(* Driver                                                                    *)
(* ----------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let cmds = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let cmds = if cmds = [] then [ "all" ] else cmds in
  (* In [all] order. *)
  let experiments =
    [
      ("figure1", figure1);
      ("table3", table3);
      ("table2", table2 ~full);
      ("table4", table4 ~full);
      ("table5", table5 ~full);
      ("figure5", figure5);
      ("cost", cost);
      ("leaders", leaders ~full);
      ("ablations", ablations);
      ("engine", engine);
      ("noise", noise ~full);
      ("recovery", recovery);
      ("analysis", analysis);
      ("assoc", assoc_bench ~full ~smoke);
      ("service", service);
      ("chaos", chaos);
      ("workload", workload);
      ("attack", fun () -> attack ~smoke ());
      ("micro", micro);
    ]
  in
  (match
     List.filter (fun c -> c <> "all" && not (List.mem_assoc c experiments)) cmds
   with
  | [] -> ()
  | unknown ->
      List.iter (Printf.eprintf "unknown experiment %S\n") unknown;
      Printf.eprintf "experiments: all %s\n%!"
        (String.concat " " (List.map fst experiments));
      exit 2);
  (* One failing experiment must not take the rest of the run (or its
     already-written BENCH_*.json files) down with it; every failure is
     named at the end and turns the exit status to 1. *)
  let failures = ref [] in
  let attempt (name, f) =
    try f ()
    with exn ->
      let msg = Printexc.to_string exn in
      Printf.printf "\n(%s failed: %s -- continuing)\n%!" name msg;
      failures := (name, msg) :: !failures
  in
  let run = function
    | "all" ->
        List.iter attempt experiments;
        (* Every artifact this bench run (or a previous one) left behind:
           the machine-readable counterpart of the tables above. *)
        let artifacts =
          Sys.readdir "." |> Array.to_list
          |> List.filter (fun f ->
                 String.length f > 6
                 && String.sub f 0 6 = "BENCH_"
                 && Filename.check_suffix f ".json")
          |> List.sort compare
        in
        Printf.printf "\nartifacts:\n";
        List.iter (Printf.printf "  %s\n") artifacts;
        (* Expected artifacts that are absent (first run, or their
           experiment failed above) are named rather than silently
           dropped from the summary. *)
        List.iter
          (fun f ->
            if not (List.mem f artifacts) then
              Printf.printf "  %s (missing -- first run or failed above)\n" f)
          [ "BENCH_attack.json"; "BENCH_workload.json" ];
        Printf.printf "%!"
    | name -> attempt (name, List.assoc name experiments)
  in
  List.iter run cmds;
  match List.rev !failures with
  | [] -> Printf.printf "\n(done)\n%!"
  | failed ->
      Printf.printf "\n(%d experiment(s) failed)\n" (List.length failed);
      List.iter (fun (name, msg) -> Printf.printf "  %s: %s\n" name msg) failed;
      Printf.printf "%!";
      exit 1
