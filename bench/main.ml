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

module Json = Cq_util.Json
module Clock = Cq_util.Clock
module Learn = Cq_core.Learn
module Hw = Cq_core.Hardware
module CM = Cq_hwsim.Cpu_model
module Backend = Cq_cachequery.Backend
module Frontend = Cq_cachequery.Frontend
module Server = Cq_service.Server
module Client = Cq_service.Client
module Search = Cq_synth.Search

(* ----------------------------------------------------------------------- *)
(* The harness: every experiment prints, gates and reports through these    *)
(* ----------------------------------------------------------------------- *)

let header title =
  let line = String.make 78 '-' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* A table is its column list: [`Col (w, title)] is right-aligned in [w]
   characters, left-aligned when [w] is negative, and [`Bar] is a rule.
   The one list prints the header and every row, skipped rows included. *)
let print_row ?(note = "") cols cells =
  let rec fill cols cells =
    match (cols, cells) with
    | `Bar :: cols, _ -> "|" :: fill cols cells
    | `Col (w, _) :: cols, cell :: cells ->
        Printf.sprintf "%*s" w cell :: fill cols cells
    | [], [] -> []
    | _ -> invalid_arg "print_row: one cell per column"
  in
  Printf.printf "%s%s\n%!" (String.concat " " (fill cols cells)) note

let print_header cols =
  print_row cols
    (List.filter_map (function `Col (_, title) -> Some title | `Bar -> None) cols)

(* The cells of a row's unmeasured columns. *)
let dashes n = List.init n (fun _ -> "-")

(* The gate: [check ok label] records [label] when [ok] is false.  Once
   the experiment returns, the driver fails it naming every recorded
   label, so a verdict the bench prints always reaches the exit status. *)
let failed_checks = ref []

let check ok label = if not ok then failed_checks := label :: !failed_checks

(* [check], returning the note a row prints after it. *)
let verdict ok label =
  check ok label;
  if ok then "" else "  <-- MISMATCH"

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

(* A trend line against the previous run: [show] gets the integer at
   [keys] in its artifact.  The file may be missing, truncated by a
   crashed bench, or from an older schema; none of these aborts the run. *)
let print_trend ?(smoke = false) name keys show =
  match Cq_util.Atomic_file.read_opt ~path:(artifact_path ~smoke name) with
  | None -> ()
  | Some text -> (
      let step j key = Option.bind j (Json.member key) in
      match
        Option.bind (List.fold_left step (Json.parse_opt text) keys) Json.to_int
      with
      | Some n -> show n
      | None ->
          Printf.printf "(prior %s unreadable or partial -- ignored)\n%!" name)

(* The artifact fields of a learn report, under [keys] and in their order. *)
let report_fields (r : Learn.report) keys =
  let field = function
    | "states" -> Json.Int r.Learn.states
    | "member_queries" -> Json.Int r.Learn.member_queries
    | "member_symbols" -> Json.Int r.Learn.member_symbols
    | "cache_queries" -> Json.Int r.Learn.cache_queries
    | "cache_accesses" -> Json.Int r.Learn.cache_accesses
    | "cache_batches" -> Json.Int r.Learn.cache_batches
    | "accesses_saved" -> Json.Int r.Learn.accesses_saved
    | "vote_runs" -> Json.Int r.Learn.vote_runs
    | "transient_flips" -> Json.Int r.Learn.transient_flips
    | "retry_attempts" -> Json.Int r.Learn.retry_attempts
    | "seconds" -> num 6 r.Learn.seconds
    | key -> invalid_arg ("report_fields: " ^ key)
  in
  List.map (fun key -> (key, field key)) keys

(* A hardware run's report and reset, or its typed failure in one line. *)
let hw_outcome (run : Hw.run) =
  match run.Hw.outcome with
  | Hw.Learned { report; reset; _ } -> Ok (report, reset)
  | Hw.Partial { failure; _ } ->
      Error (Fmt.str "partial: %a" Learn.pp_failure failure)
  | Hw.Failed { reason; _ } -> Error reason

(* The artifact fields of hardware learn [run]: its report's states, the
   whole workflow's timed loads and its wall time [dt]. *)
let hw_fields r (run : Hw.run) dt =
  report_fields r [ "states" ]
  @ [ ("timed_loads", Json.Int run.Hw.timed_loads); ("seconds", num 3 dt) ]

(* The report of a run that must learn; else [what]'s failure is raised. *)
let learned what run =
  match hw_outcome run with Ok (r, _) -> r | Error e -> failwith (what ^ ": " ^ e)

let quiet model =
  Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model

(* A calibrated frontend on set [set], slice 0, of quiet Skylake [level]. *)
let skylake_frontend level set =
  let backend =
    Backend.create (quiet CM.skylake) { Backend.level; slice = 0; set }
  in
  ignore (Backend.calibrate backend);
  Frontend.create backend

let concurrently n f = List.iter Thread.join (List.init n (Thread.create f))

let with_client ?retry socket f =
  let c = Client.connect_unix ?retry socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Daemon state dirs are scratch: sockets and per-session snapshots that
   only matter while the bench runs. *)
let rm_scratch_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* [f server socket] against an in-process daemon on state dir [dir],
   stopped when [f] returns.  The dir is removed afterwards unless a check
   has failed or [f] raised: a failing run leaves it for the post-mortem. *)
let with_daemon ?snapshot_every ~workers dir f =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "bench.sock" in
  let server =
    Server.create (Server.config ~workers ?snapshot_every ~state_dir:dir socket)
  in
  Server.start server;
  let result =
    Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
        f server socket)
  in
  if !failed_checks = [] then rm_scratch_dir dir;
  result

(* The digest of a solo, daemon-less learn of [policy]: what the daemon's
   learns must reproduce. *)
let solo_digest ~assoc policy =
  let p = Cq_policy.Zoo.make_exn ~name:policy ~assoc in
  Cq_policy.Policy.machine_digest
    (Learn.learn_simulated ~identify:false p).Learn.machine

(* ----------------------------------------------------------------------- *)
(* Table 2: learning from software-simulated caches                         *)
(* ----------------------------------------------------------------------- *)

let table2 ~full () =
  header
    "Table 2: learning policies from software-simulated caches (Polca + L*, \
     Wp-method depth 1)";
  let cols =
    [ `Col (-10, "Policy"); `Col (5, "Assoc"); `Bar; `Col (8, "states");
      `Col (16, "time"); `Col (8, "queries"); `Col (9, "symbols"); `Bar;
      `Col (8, "paper"); `Col (14, "paper time") ]
  in
  print_header cols;
  let budget = if full then 1100 else 300 in
  List.iter
    (fun (name, assoc, paper_states, paper_time) ->
      let id = [ name; string_of_int assoc ]
      and paper = [ string_of_int paper_states; paper_time ] in
      if paper_states > budget then
        print_row cols (id @ dashes 4 @ paper)
          ~note:
            (Printf.sprintf "  (skipped: > %d states%s)" budget
               (if full then "" else ", use --full"))
      else
        let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
        let r = Learn.learn_simulated ~identify:false policy in
        (* The state count must be the paper's and the machine
           trace-equivalent to the policy. *)
        let agrees =
          r.Learn.states = paper_states && Learn.verify_against r policy
        in
        print_row cols
          (id
          @ [ string_of_int r.Learn.states; Clock.to_string r.Learn.seconds;
              string_of_int r.Learn.member_queries;
              string_of_int r.Learn.member_symbols ]
          @ paper)
          ~note:
            (verdict agrees
               (Printf.sprintf "table2: %s-%d disagrees with the paper" name
                  assoc)))
    Paper_data.table2

(* ----------------------------------------------------------------------- *)
(* Table 3: processor specifications (static; printed for reference)        *)
(* ----------------------------------------------------------------------- *)

let table3 () =
  header "Table 3: simulated processors' specifications";
  List.iter (fun model -> Fmt.pr "%a@." CM.pp_specs model) CM.all

(* ----------------------------------------------------------------------- *)
(* Table 4: learning from (simulated) hardware                              *)
(* ----------------------------------------------------------------------- *)

(* (paper row, skipped unless --full, the learn) *)
let t4_plans =
  let plan ?cat_ways ?set ?max_states ~expensive model level =
    let paper =
      List.find
        (fun (r : Paper_data.t4_row) ->
          r.Paper_data.cpu = model.CM.name
          && r.Paper_data.level = CM.level_to_string level)
        Paper_data.table4
    in
    ( paper,
      expensive,
      fun () -> Hw.learn_set (quiet model) level ?cat_ways ?set ?max_states )
  in
  CM.
    [
      plan haswell L1 ~expensive:false;
      plan haswell L2 ~expensive:true;
      (* Haswell L3: no CAT support; the 768-831 leader group behaves
         non-deterministically.  We attempt the noisy leader (fails at
         reset discovery, as in the paper); the deterministic 512-575
         group at full associativity 16 exceeds any reasonable state
         budget. *)
      plan haswell L3 ~set:768 ~max_states:64 ~expensive:false;
      plan skylake L1 ~expensive:false;
      plan skylake L2 ~expensive:true;
      plan skylake L3 ~cat_ways:4 ~expensive:true;
      plan kaby_lake L1 ~expensive:false;
      plan kaby_lake L2 ~expensive:true;
      plan kaby_lake L3 ~cat_ways:4 ~expensive:true;
    ]

let table4 ~full () =
  header
    "Table 4: learning policies from (simulated) hardware caches via \
     CacheQuery";
  (* Per row: wall time, the learn's membership queries and symbols, the
     whole workflow's timed loads (calibration and reset discovery
     included), and the learned machine's canonical digest (its first 8
     hex digits). *)
  let cols =
    [ `Col (-9, "CPU"); `Col (-3, "Lvl"); `Col (5, "assoc"); `Bar;
      `Col (-46, "ours"); `Col (9, "time"); `Col (7, "queries");
      `Col (8, "symbols"); `Col (9, "loads"); `Col (-8, "digest"); `Bar;
      `Col (6, "paper"); `Col (-5, "pol."); `Col (-10, "paper reset") ]
  in
  print_header cols;
  List.iter
    (fun ((p : Paper_data.t4_row), expensive, learn) ->
      let row ?note assoc cells =
        print_row cols ?note
          ([ p.Paper_data.cpu; p.Paper_data.level; string_of_int assoc ]
          @ cells
          @ [ (match p.Paper_data.states with
              | Some n -> string_of_int n
              | None -> "-");
              p.Paper_data.policy; p.Paper_data.reset ])
      in
      if expensive && not full then
        row p.Paper_data.assoc ("(skipped: expensive, use --full)" :: dashes 5)
      else
        let run, dt = Clock.time learn in
        (* The state count and policy must be the paper's, and a row the
           paper could not learn must not learn.  Reset sequences are not
           compared: a flush in front of the paper's sequence (Haswell
           L1's [F+ @ @]) is an equally valid reset. *)
        let agrees, ours, queries, symbols, digest =
          match hw_outcome run with
          | Ok (r, reset) ->
              ( Some r.Learn.states = p.Paper_data.states
                && List.mem p.Paper_data.policy r.Learn.identified,
                Printf.sprintf "%d states, %s, reset %s" r.Learn.states
                  (match r.Learn.identified with
                  | [] -> "undocumented"
                  | l -> String.concat "/" l)
                  (Frontend.reset_to_string reset),
                string_of_int r.Learn.member_queries,
                string_of_int r.Learn.member_symbols,
                String.sub (Cq_policy.Policy.machine_digest r.Learn.machine) 0 8 )
          | Error e -> (p.Paper_data.states = None, "- (" ^ e ^ ")", "-", "-", "-")
        in
        row run.Hw.assoc
          [ ours; Printf.sprintf "%.1fs" dt; queries; symbols;
            string_of_int run.Hw.timed_loads; digest ]
          ~note:
            (verdict agrees
               (Printf.sprintf "table4: %s %s disagrees with the paper"
                  p.Paper_data.cpu p.Paper_data.level)))
    t4_plans

(* ----------------------------------------------------------------------- *)
(* Table 5: synthesizing explanations                                       *)
(* ----------------------------------------------------------------------- *)

(* Synthesis for zoo policy [name] at associativity 4. *)
let synthesize ~deadline name =
  Search.synthesize ~deadline
    (Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name ~assoc:4))

let table5 ~full () =
  header "Table 5: synthesizing explanations for policies (associativity 4)";
  let cols =
    [ `Col (-10, "Policy"); `Col (6, "states"); `Bar; `Col (-9, "template");
      `Col (16, "time"); `Bar; `Col (-9, "paper"); `Col (12, "paper time") ]
  in
  print_header cols;
  let deadline = if full then 3600.0 else 90.0 in
  List.iter
    (fun (name, paper_states, paper_template, paper_time) ->
      let r = synthesize ~deadline name in
      let template, time_str =
        match r.Search.outcome with
        | Search.Found _ -> (r.Search.template, Clock.to_string r.Search.seconds)
        | Search.Not_expressible -> ("-", "(not expressible)")
        | Search.Timeout -> ("-", Printf.sprintf "(timeout %.0fs)" deadline)
      in
      print_row cols
        [ name; string_of_int paper_states; template; time_str;
          Option.value paper_template ~default:"-"; paper_time ])
    Paper_data.table5

(* ----------------------------------------------------------------------- *)
(* Figure 5 / Appendix C: the synthesized New1 and New2 programs            *)
(* ----------------------------------------------------------------------- *)

let figure5 () =
  header "Figure 5 / Appendix C: synthesized programs for New1 and New2";
  List.iter
    (fun name ->
      let r = synthesize ~deadline:120.0 name in
      match r.Search.outcome with
      | Search.Found prog ->
          Printf.printf "\n--- %s (%s template, %s) ---\n%s\n%!" name
            r.Search.template (Clock.to_string r.Search.seconds)
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
  let report = Learn.learn_simulated policy in
  Printf.printf
    "Figure 1a: learned a %d-state machine (identified as: %s).\n%!"
    report.Learn.states
    (String.concat ", " report.Learn.identified)

(* ----------------------------------------------------------------------- *)
(* §7.2: the cost of learning from hardware                                  *)
(* ----------------------------------------------------------------------- *)

let cost () =
  header "Section 7.2: the cost of learning from hardware";
  let plru8 = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:8 in
  let sim_report = Learn.learn_simulated ~identify:false plru8 in
  Printf.printf
    "PLRU-8 from the software-simulated cache:        %8.2f s (paper: %.2f s)\n%!"
    sim_report.Learn.seconds Paper_data.cost_sim_seconds;
  (* ... vs. via CacheQuery with a warm query cache: learn once to fill the
     memo, then learn again with every MBL query answered from it. *)
  let oracle = Frontend.oracle (skylake_frontend CM.L1 0) in
  let learn () =
    (* Sequential engine: this experiment measures the frontend's query
       memo (cold vs warm), which session-mode execution bypasses. *)
    match
      Learn.run ~engine:Learn.Sequential ~memoize:false ~identify:false
        ~check_hits:false oracle
    with
    | Learn.Complete report -> report
    | Learn.Partial { failure; _ } ->
        failwith (Fmt.str "cost: %a" Learn.pp_failure failure)
  in
  let cold = learn () in
  let warm = learn () in
  Printf.printf
    "PLRU-8 via CacheQuery (cold run):                %8.2f s\n%!"
    cold.Learn.seconds;
  Printf.printf
    "PLRU-8 via CacheQuery (warm LevelDB-style memo): %8.2f s (paper: %.0f s)\n%!"
    warm.Learn.seconds Paper_data.cost_warm_cache_seconds;
  Printf.printf
    "abstraction overhead factor (warm / simulated):  %7.1fx (paper: %.0fx)\n%!"
    (warm.Learn.seconds /. sim_report.Learn.seconds)
    Paper_data.cost_overhead_factor;
  Printf.printf "\nSingle MBL query '@ M _?' (mean of 100 executions):\n%!";
  List.iter
    (fun (level, paper_ms) ->
      let fe =
        skylake_frontend
          (match level with "L1" -> CM.L1 | "L2" -> CM.L2 | _ -> CM.L3)
          0
      in
      let (), dt =
        Clock.time (fun () ->
            for _ = 1 to 100 do
              ignore (Frontend.run_mbl fe "@ M _?")
            done)
      in
      Printf.printf "  %s: %7.2f ms/query (paper, on silicon: %.0f ms)\n%!" level
        (dt /. 100.0 *. 1000.0) paper_ms)
    Paper_data.cost_query_ms

(* ----------------------------------------------------------------------- *)
(* Appendix B: leader sets                                                   *)
(* ----------------------------------------------------------------------- *)

let leaders ~full () =
  header "Appendix B: adaptive policies and leader-set detection";
  let module LS = Cq_core.Leader_sets in
  (* Classify [sets] of [model]'s L3 slice 0, print its leaders, and gate
     the vulnerable ones found against the model's index formula. *)
  let scan model (what, sets) =
    Printf.printf "\n%s (%s), slice 0, %s:\n%!" model.CM.name
      model.CM.codename what;
    let machine = quiet model in
    if model.CM.supports_cat then Cq_hwsim.Machine.set_cat_ways machine 4;
    let results = LS.scan machine sets in
    List.iter
      (fun r ->
        if r.LS.classification <> LS.Follower then
          Printf.printf "  set %4d: %s\n%!" r.LS.set
            (LS.classification_to_string r.LS.classification))
      results;
    let detected, expected = LS.check_against_model model results in
    let show sets = String.concat "," (List.map string_of_int sets) in
    let ok = detected = expected in
    check ok
      (Printf.sprintf "leaders: %s detected [%s], index formula predicts [%s]"
         model.CM.codename (show detected) (show expected));
    Printf.printf
      "  vulnerable leaders detected [%s]; index formula predicts [%s] => %s\n%!"
      (show detected) (show expected)
      (if ok then "MATCH" else "MISMATCH")
  in
  let first n = (Printf.sprintf "first %d sets" n, List.init n Fun.id) in
  scan CM.skylake (first (if full then 256 else 72));
  if full then scan CM.kaby_lake (first 256)
  else
    Printf.printf
      "\ni7-8550U (Kaby Lake): same selection formula as Skylake (use --full \
       to rescan).\n%!";
  (* Haswell: leaders live in slice 0, sets 512-575 / 768-831. *)
  scan CM.haswell
    ( "sampling sets 504..584 and 760..840",
      List.init 11 (fun i -> 504 + (i * 8)) @ List.init 11 (fun i -> 760 + (i * 8)) )

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
        Learn.learn_simulated ~identify:false ~check_hits
          (Cq_policy.Zoo.make_exn ~name:"New1" ~assoc:4)
      in
      Printf.printf "    check_hits=%-5b %d states, %d cache queries, %s\n%!"
        check_hits r.Learn.states r.Learn.cache_queries
        (Clock.to_string r.Learn.seconds))
    [ true; false ];
  (* (c) nanoBench-style fingerprinting vs. full learning (the trade-off
     the paper's related work discusses): random testing works where the
     reset fully resets the policy state (L1) and fails where it does not
     (Skylake L2's age bits survive Flush+Refill); learning handles both. *)
  Printf.printf "\n(c) fingerprinting vs learning (simulated Skylake):\n%!";
  let fingerprint level =
    let fe = skylake_frontend level 5 in
    Clock.time (fun () ->
        Cq_core.Fingerprint.identify ~sequences:250 (Frontend.oracle fe))
  in
  let v1, dt1 = fingerprint CM.L1 in
  Printf.printf "    L1: survivors [%s] in %.2f s (%d sequences)\n%!"
    (String.concat "; " v1.Cq_core.Fingerprint.survivors)
    dt1 v1.Cq_core.Fingerprint.sequences;
  let v2, _ = fingerprint CM.L2 in
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
  let cols =
    [ `Col (-8, "Policy"); `Col (5, "assoc"); `Bar; `Col (9, "seq"); `Bar;
      `Col (9, "batched"); `Col (7, "speedup"); `Bar; `Col (6, "saved%");
      `Col (5, "agree") ]
  in
  print_header cols;
  (* Observability overhead gate: the same learning run with tracing
     enabled must issue exactly the same queries and block accesses — the
     span instrumentation must never perturb the pipeline.  The enabled
     run's event count is folded into BENCH_engine.json (the trace itself
     is reproducible on demand via polca --trace; a second artifact file
     only drifted out of sync).  Runs first so the counter only reflects
     this probe, not the whole benchmark. *)
  let overhead_identical, trace_events =
    let probe = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:4 in
    let go () = Learn.learn_simulated ~identify:false ~engine:Learn.Batched probe in
    let untraced = go () in
    Cq_util.Trace.enable ();
    let traced = go () in
    let trace_events = Cq_util.Trace.recorded () in
    Cq_util.Trace.disable ();
    Cq_util.Trace.clear ();
    let counts (r : Learn.report) =
      Learn.(r.member_queries, r.cache_queries, r.cache_accesses, r.timed_loads)
    in
    let same = counts untraced = counts traced in
    check same "engine bench: tracing changed the pipeline's query counts";
    Printf.printf
      "tracing on/off: %d/%d queries, %d/%d accesses -> %s (%d trace \
       events)\n\
       %!"
      traced.Learn.member_queries untraced.Learn.member_queries
      traced.Learn.cache_accesses untraced.Learn.cache_accesses
      (if same then "identical" else "MISMATCH <-- instrumentation leak")
      trace_events;
    (same, trace_events)
  in
  let speedup (seq : Learn.report) (r : Learn.report) =
    seq.Learn.seconds /. Float.max 1e-9 r.Learn.seconds
  in
  let rows =
    List.map
      (fun (name, assoc) ->
        let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
        let run engine = Learn.learn_simulated ~identify:false ~engine policy in
        let seq = run Learn.Sequential in
        let bat = run Learn.Batched in
        (* The engines differ in device traffic only: the same machine
           from the same membership queries. *)
        let agree =
          seq.Learn.states = bat.Learn.states
          && Cq_automata.Mealy.equivalent seq.Learn.machine bat.Learn.machine
          && seq.Learn.member_queries = bat.Learn.member_queries
          && seq.Learn.member_symbols = bat.Learn.member_symbols
        in
        let saved_pct =
          100.0
          *. float_of_int bat.Learn.accesses_saved
          /. float_of_int (max 1 bat.Learn.cache_accesses)
        in
        check agree
          (Printf.sprintf
             "engine bench: the engines disagree (automaton or membership \
              queries) on %s-%d"
             name assoc);
        print_row cols
          [ name; string_of_int assoc; Printf.sprintf "%.3fs" seq.Learn.seconds;
            Printf.sprintf "%.3fs" bat.Learn.seconds;
            Printf.sprintf "%.2fx" (speedup seq bat);
            Printf.sprintf "%.1f%%" saved_pct;
            (if agree then "yes" else "NO <-- MISMATCH") ];
        (name, assoc, seq, bat, agree))
      [ ("LRU", 4); ("PLRU", 4); ("FIFO", 8); ("PLRU", 8); ("FIFO", 16) ]
  in
  let engine_json seq r =
    Json.Obj
      (("speedup", num 3 (speedup seq r))
      :: report_fields r
           [ "seconds"; "cache_queries"; "cache_accesses"; "cache_batches";
             "accesses_saved" ])
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
         | (_, _, _, bat, _) :: _ -> [ ("metrics", Cq_util.Metrics.json bat.Learn.metrics) ]
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
                        ("states", Json.Int seq.Learn.states);
                        ("automata_identical", Json.Bool agree);
                        ("sequential", engine_json seq seq);
                        ("batched", engine_json seq bat);
                      ])
                  rows) );
         ]))

(* ----------------------------------------------------------------------- *)
(* Noise: learning under measurement noise                                   *)
(* ----------------------------------------------------------------------- *)

(* Learn real targets under injected measurement noise at several voting
   settings.  Correctness: a row that learns must learn the quiet run's
   machine, with the same state count (a non-minimal machine is a wrong
   report); a typed failure is allowed.  Cost: timed loads — adaptive
   voting must beat fixed repetitions by only re-measuring disputed
   accesses.  Results land in BENCH_noise.json so the robustness
   trajectory is tracked across PRs. *)
let noise ~full () =
  header
    "Noise: learning under measurement noise (adaptive voting, bounded \
     retry, drift recalibration)";
  let module M = Cq_hwsim.Machine in
  let targets = (CM.haswell, CM.L1) :: (if full then [ (CM.skylake, CM.L2) ] else []) in
  let settings =
    [
      ("fixed reps=1", "default", M.default_noise, Frontend.Fixed 1, 0);
      ("fixed reps=5", "default", M.default_noise, Frontend.Fixed 5, 3);
      ("adaptive <=5", "default", M.default_noise, Frontend.Adaptive { max = 5 }, 3);
      ("adaptive <=3", "default", M.default_noise, Frontend.Adaptive { max = 3 }, 3);
      ("adaptive <=5", "burst", M.burst_noise, Frontend.Adaptive { max = 5 }, 3);
      ("adaptive <=5", "drift", M.drift_noise, Frontend.Adaptive { max = 5 }, 3);
    ]
  in
  let cols =
    [ `Col (-14, "voting"); `Col (-8, "noise"); `Bar; `Col (6, "states");
      `Col (5, "same"); `Bar; `Col (10, "timedloads"); `Col (9, "voteruns");
      `Col (6, "flips"); `Col (4, "rcal"); `Col (6, "retry"); `Bar;
      `Col (8, "time") ]
  in
  let secs dt = Printf.sprintf "%.1fs" dt in
  let all_rows =
    List.map
      (fun (model, level) ->
        let cpu = model.CM.name and level_name = CM.level_to_string level in
        Printf.printf "\n%s %s:\n%!" cpu level_name;
        print_header cols;
        let quiet_run, quiet_dt =
          Clock.time (fun () -> Hw.learn_set (quiet model) level)
        in
        let quiet_report = learned "noise bench: quiet run" quiet_run in
        print_row cols
          ([ "(none)"; "quiet"; string_of_int quiet_report.Learn.states; "-";
             string_of_int quiet_run.Hw.timed_loads ]
          @ dashes 4 @ [ secs quiet_dt ]);
        let rows =
          List.map
            (fun (vlabel, nlabel, noise_cfg, voting, retries) ->
              let run, dt =
                Clock.time (fun () ->
                    Hw.learn_set ~voting ~retries (M.create ~noise:noise_cfg model)
                      level)
              in
              let loads = string_of_int run.Hw.timed_loads
              and rcal = string_of_int run.Hw.recalibrations in
              let result =
                match hw_outcome run with
                | Ok (r, _) ->
                    let identical =
                      Cq_automata.Mealy.equivalent r.Learn.machine
                        quiet_report.Learn.machine
                    in
                    let ok = identical && r.Learn.states = quiet_report.Learn.states in
                    print_row cols
                      [ vlabel; nlabel; string_of_int r.Learn.states;
                        (if identical then "yes" else "NO"); loads;
                        string_of_int r.Learn.vote_runs;
                        string_of_int r.Learn.transient_flips; rcal;
                        string_of_int r.Learn.retry_attempts; secs dt ]
                      ~note:
                        (verdict ok
                           (Printf.sprintf
                              "noise bench: %s %s %s/%s learned %d states \
                               (equivalent: %b), the quiet run %d"
                              cpu level_name vlabel nlabel r.Learn.states
                              identical quiet_report.Learn.states));
                    [ ("learned", Json.Bool true);
                      ("identical_to_quiet", Json.Bool identical) ]
                    @ report_fields r
                        [ "states"; "vote_runs"; "transient_flips"; "retry_attempts" ]
                | Error reason ->
                    print_row cols
                      [ vlabel; nlabel; "-"; "-"; loads; "-"; "-"; rcal; "-"; secs dt ]
                      ~note:
                        (Printf.sprintf "  (%s)"
                           (String.sub reason 0 (min 60 (String.length reason))));
                    [ ("learned", Json.Bool false); ("reason", Json.String reason) ]
              in
              Json.Obj
                ([
                   ("voting", Json.String vlabel);
                   ("noise", Json.String nlabel);
                   ("retries", Json.Int retries);
                   ("timed_loads", Json.Int run.Hw.timed_loads);
                   ("recalibrations", Json.Int run.Hw.recalibrations);
                   ("seconds", num 3 dt);
                 ]
                @ result))
            settings
        in
        Json.Obj
          [
            ("cpu", Json.String cpu);
            ("level", Json.String level_name);
            ("quiet", Json.Obj (hw_fields quiet_report quiet_run quiet_dt));
            ("runs", Json.List rows);
          ])
      targets
  in
  write_artifact "BENCH_noise.json" (Json.Obj [ ("targets", Json.List all_rows) ]);
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
  let model = CM.haswell in
  let learn ?metrics ?snapshot ?resume ?query_budget () =
    Clock.time (fun () ->
        Hw.learn_set ?metrics ?snapshot ?resume ?query_budget (quiet model) CM.L1)
  in
  (* 1. Baseline: no durability machinery at all. *)
  let base_run, base_dt = learn () in
  let base = learned "recovery bench: baseline run" base_run in
  let base_loads = base_run.Hw.timed_loads in
  Printf.printf "baseline:     %4d states, %8d timed loads, %5.1fs\n%!"
    base.Learn.states base_loads base_dt;
  (* 2. Snapshots on: written between queries, off the hardware path; the
     session layer's share of the wall time must stay within 5%. *)
  let snap_path = Filename.temp_file "cq_bench_snap" ".snap" in
  let metrics = Cq_util.Metrics.create () in
  let snap_run, snap_dt =
    (* Default cadence (500 queries / 30 s) — what a real campaign runs. *)
    learn ~metrics ~snapshot:(Learn.snapshot_policy snap_path) ()
  in
  let snap = learned "recovery bench: snapshotted run" snap_run in
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
    Cq_automata.Mealy.equivalent base.Learn.machine snap.Learn.machine
  in
  Printf.printf
    "snapshotting: %4d states, %8d timed loads, %5.1fs  (%.2fx baseline; \
     session layer %.2fs = %.2f%% of wall%s, automaton %s)\n%!"
    snap.Learn.states snap_run.Hw.timed_loads snap_dt wall_ratio session_s
    session_pct
    (if within_budget then "" else "  <-- OVER 5% BUDGET")
    (if snap_identical then "identical" else "DIFFERS <-- MISMATCH");
  (* 3. Crash mid-run: a query budget at half the baseline's hardware
     queries stops the run as Partial Budget_exhausted with a final
     snapshot; resuming replays the answered prefix for free and must
     finish with the identical automaton for less than a fresh run. *)
  let crash_path = Filename.temp_file "cq_bench_crash" ".snap" in
  let budget = max 1 (base.Learn.member_queries / 2) in
  let crash_run, _ =
    learn
      ~snapshot:(Learn.snapshot_policy ~every_queries:100 crash_path)
      ~query_budget:budget ()
  in
  let crash_loads = crash_run.Hw.timed_loads in
  let resume_from =
    match crash_run.Hw.outcome with
    | Hw.Partial { failure = Learn.Budget_exhausted _; snapshot = Some s; _ } -> s
    | _ ->
        failwith
          "recovery bench: budgeted run did not end as Partial \
           Budget_exhausted with a snapshot"
  in
  Printf.printf "crashed:      (query budget %d) %8d timed loads, snapshot %s\n%!"
    budget crash_loads resume_from;
  let resume_run, resume_dt = learn ~resume:resume_from () in
  let resumed = learned "recovery bench: resumed run" resume_run in
  let resume_loads = resume_run.Hw.timed_loads in
  let resume_identical =
    Cq_automata.Mealy.equivalent base.Learn.machine resumed.Learn.machine
  in
  let saved_pct =
    100.0
    *. float_of_int (base_loads - resume_loads)
    /. float_of_int (max 1 base_loads)
  in
  Printf.printf
    "resumed:      %4d states, %8d timed loads, %5.1fs  (%.1f%% of a fresh \
     run's loads saved, automaton %s)\n%!"
    resumed.Learn.states resume_loads resume_dt saved_pct
    (if resume_identical then "identical" else "DIFFERS <-- MISMATCH");
  print_trend "BENCH_recovery.json" [ "resume"; "resume_timed_loads" ] (fun prev ->
      Printf.printf "previous resume cost: %d timed loads (now %d)\n%!" prev
        resume_loads);
  write_artifact "BENCH_recovery.json"
    (Json.Obj
       [
         ( "target",
           Json.Obj
             [ ("cpu", Json.String model.CM.name); ("level", Json.String "L1") ] );
         ("baseline", Json.Obj (hw_fields base base_run base_dt));
         ( "snapshotting",
           Json.Obj
             (hw_fields snap snap_run snap_dt
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
             (report_fields resumed [ "states" ]
             @ [
                 ("resume_timed_loads", Json.Int resume_loads);
                 ("seconds", num 3 resume_dt);
                 ("loads_saved_pct", num 3 saved_pct);
                 ("identical", Json.Bool resume_identical);
               ]) );
       ]);
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ snap_path; crash_path ];
  check (snap_identical && resume_identical)
    "recovery bench: learned automata diverged from the baseline";
  check within_budget
    (Printf.sprintf
       "recovery bench: session layer took %.2f%% of the snapshotting run's \
        wall time (budget 5%%)"
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
  let cols =
    [ `Col (-14, "program"); `Col (9, "queries"); `Bar; `Col (12, "check");
      `Bar; `Col (12, "expand"); `Bar; `Col (7, "speedup") ]
  in
  print_header cols;
  let rows =
    List.map
      (fun (input, assoc, max_queries) ->
        let admission, check_dt =
          Clock.time (fun () ->
              Cq_analysis.Mbl_check.check_string ~max_queries ~assoc input)
        in
        let (), expand_dt =
          Clock.time (fun () ->
              match Cq_mbl.Expand.expand_string ~max_queries ~assoc input with
              | _ -> ()
              | exception Cq_mbl.Expand.Expansion_error _ -> ())
        in
        let cardinality =
          match admission with
          | Ok s -> string_of_int s.Cq_analysis.Mbl_check.cardinality
          | Error _ -> "rejected"
        in
        let us dt = Printf.sprintf "%.1f us" (1e6 *. dt) in
        print_row cols
          [ input; cardinality; us check_dt; us expand_dt;
            Printf.sprintf "%.0fx" (expand_dt /. Float.max check_dt 1e-9) ];
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

(* An in-process daemon serving N concurrent clients: membership-query
   latency percentiles and request throughput, then one full learn per
   client running concurrently — each result must be byte-identical to a
   solo (daemon-less) learn of the same policy, or the bench fails. *)
let service () =
  header "Service layer: cachequeryd under concurrent clients";
  let clients = 4 and queries_per_client = 250 in
  with_daemon ~workers:clients "bench-service-state" @@ fun _server socket ->
  (* --- phase 1: membership-query latency under concurrency --- *)
  let latencies = Array.make clients [||] in
  let run_client i =
    with_client socket @@ fun c ->
    let sid = Client.create_sim c ~policy:"LRU" ~assoc:2 () in
    latencies.(i) <-
      Array.init queries_per_client (fun q ->
          snd
            (Clock.time (fun () ->
                 Client.query_sim c sid [ q mod 3; (q + 1) mod 3; q mod 2 ])))
  in
  let (), wall = Clock.time (fun () -> concurrently clients run_client) in
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
  let learns = Array.make clients (Json.Obj []) in
  let learn_client i =
    with_client socket @@ fun c ->
    let policy = policies.(i mod Array.length policies) in
    let sid = Client.create_sim c ~policy ~assoc:4 () in
    Client.learn_start c sid;
    learns.(i) <- Client.learn_wait c ~timeout_s:300.0 sid
  in
  let (), learn_wall = Clock.time (fun () -> concurrently clients learn_client) in
  let learns =
    Array.mapi
      (fun i st ->
        let policy = policies.(i mod Array.length policies) in
        let field name = Option.value ~default:"?" (Json.mem_str name st) in
        let state = field "state" and dgst = field "digest" in
        let queries = Option.value ~default:0 (Json.mem_int "member_queries" st) in
        let seconds =
          Option.value ~default:0.0 (Option.bind (Json.member "seconds" st) Json.to_float)
        in
        let matches = state = "done" && dgst = solo_digest ~assoc:4 policy in
        Printf.printf
          "  %-5s %-6s  %6d queries  %6.2f s  solo-identical: %b\n%!" policy
          state queries seconds matches;
        check matches
          (Printf.sprintf
             "service bench: %s learned under concurrency diverged from solo"
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
  let module Faults = Cq_util.Faults in
  let policies = [| "LRU"; "FIFO"; "PLRU" |] in
  let assoc = 4 in
  let n_clients = Array.length policies in
  (* The quiet reference: solo daemon-less learns, one per policy. *)
  let solo = Array.map (solo_digest ~assoc) policies in
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
  let max_restarts = 5 and retry_bound = 50 in
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
        with_daemon ~workers:n_clients ~snapshot_every:25
          ("bench-chaos-" ^ scenario)
        @@ fun server socket ->
        let results = Array.make n_clients (Error "did not finish") in
        let run_client i =
          let retry =
            Client.retry ~attempts:8
              ~policy:(Cq_util.Backoff.policy ~base:0.005 ~cap:0.1 ())
              ~seed:i ()
          in
          with_client ~retry socket @@ fun c ->
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
                  (Printf.sprintf "state %s after %d restarts (not done)"
                     (Option.value ~default:"?" st_name)
                     restarts)
          in
          let st, restarts = finish 0 in
          results.(i) <-
            Ok
              ( Option.value ~default:"?" (Json.mem_str "digest" st),
                restarts, Client.reconnects c, Client.request_retries c )
        in
        let run i =
          try run_client i with e -> results.(i) <- Error (Printexc.to_string e)
        in
        concurrently n_clients run;
        let fault_fires = Option.fold ~none:0 ~some:Faults.total_fires reg in
        (* Disarm before the liveness probe and the final snapshot writes:
           the scenario's schedule applies to the workload only. *)
        Faults.set_ambient None;
        let alive =
          match with_client socket Client.health with
          | h -> Json.mem_str "status" h <> None
          | exception _ -> false
        in
        let degraded =
          Cq_util.Metrics.value
            (Cq_util.Metrics.counter (Server.metrics server)
               "service.snapshot_degraded")
        in
        check alive
          (Printf.sprintf "chaos %s: daemon unresponsive after fault run" scenario);
        let learns =
          List.mapi
            (fun i result ->
              let policy = policies.(i) in
              match result with
              | Error e ->
                  check false
                    (Printf.sprintf "chaos %s/%s: client died: %s" scenario policy e);
                  Json.Obj [ ("policy", Json.String policy); ("error", Json.String e) ]
              | Ok (dgst, restarts, reconnects, retries) ->
                  let identical = dgst = solo.(i) in
                  Printf.printf
                    "  %-5s done  restarts=%d reconnects=%d retries=%d  \
                     solo-identical: %b\n\
                     %!"
                    policy restarts reconnects retries identical;
                  check identical
                    (Printf.sprintf
                       "chaos %s/%s: automaton diverged from the quiet run (%s \
                        vs %s)"
                       scenario policy dgst solo.(i));
                  check (reconnects + retries <= retry_bound)
                    (Printf.sprintf
                       "chaos %s/%s: unbounded retries (%d reconnects + %d \
                        retries > %d)"
                       scenario policy reconnects retries retry_bound);
                  Json.Obj
                    [
                      ("policy", Json.String policy);
                      ("digest", Json.String dgst);
                      ("restarts", Json.Int restarts);
                      ("reconnects", Json.Int reconnects);
                      ("request_retries", Json.Int retries);
                      ("identical_to_quiet", Json.Bool identical);
                    ])
            (Array.to_list results)
        in
        Printf.printf
          "  (daemon alive, %d fault firings, %d degraded snapshot writes)\n%!"
          fault_fires degraded;
        check ((not snapshot_faults) || degraded > 0)
          (Printf.sprintf
             "chaos %s: snapshot faults armed but no snapshot write degraded"
             scenario);
        Json.Obj
          [
            ("name", Json.String scenario);
            ("spec", Json.String spec);
            ("fault_fires", Json.Int fault_fires);
            ("snapshot_degraded", Json.Int degraded);
            ("daemon_crashes", Json.Int (if alive then 0 else 1));
            ("learns", Json.List learns);
          ])
      scenarios
  in
  Faults.set_ambient None;
  write_artifact "BENCH_chaos.json"
    (Json.Obj [ ("clients", Json.Int n_clients); ("scenarios", Json.List rows) ])

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
    Learn.run ~identify:false ~quotient
      ~deadline:(Clock.deadline_of deadline)
      (Cq_cache.Oracle.of_policy policy)
  in
  let cols =
    [ `Col (-8, "Policy"); `Col (5, "assoc"); `Bar; `Col (10, "direct q");
      `Col (8, "time"); `Bar; `Col (10, "quot q"); `Col (8, "time"); `Bar;
      `Col (8, "collapse"); `Col (9, "st/reps"); `Col (5, "same") ]
  in
  print_header cols;
  let rows =
    List.map
      (fun (name, assoc, run_off, deadline) ->
        let policy = Cq_policy.Zoo.make_exn ~name ~assoc in
        let off = if run_off then Some (learn ~quotient:false ?deadline policy) else None in
        let on = learn ~quotient:true ?deadline policy in
        let cells = function
          | Some (Learn.Complete r) ->
              [ string_of_int r.Learn.member_queries; Clock.to_string r.Learn.seconds ]
          | Some (Learn.Partial p) ->
              [ "-"; Fmt.str "(%a)" Learn.pp_failure p.Learn.failure ]
          | None -> [ "(skip)"; "-" ]
        in
        let identical, collapse =
          match (off, on) with
          | Some (Learn.Complete a), Learn.Complete b ->
              ( Some (Cq_automata.Mealy.equivalent a.Learn.machine b.Learn.machine),
                Printf.sprintf "%.2fx"
                  (float_of_int a.Learn.member_queries
                  /. float_of_int (max 1 b.Learn.member_queries)) )
          | _ -> (None, "-")
        in
        let state_collapse =
          match on with
          | Learn.Complete { Learn.quotient = Some q; _ } ->
              Printf.sprintf "%d/%d" q.Cq_learner.Quotient.states
                q.Cq_learner.Quotient.reps
          | _ -> "-"
        in
        let same =
          Option.fold identical ~none:"-" ~some:(fun same ->
              if same then "yes" else "NO <-- MISMATCH")
        in
        check (identical <> Some false)
          (Printf.sprintf "assoc bench: quotient changed the learned machine for %s-%d"
             name assoc);
        print_row cols
          ([ name; string_of_int assoc ] @ cells off @ cells (Some on)
          @ [ collapse; state_collapse; same ]);
        (name, assoc, off, on, identical))
      plans
  in
  (* The headline budget check: quotient-on PLRU-12 vs direct PLRU-8. *)
  let complete name assoc pick =
    List.find_map
      (fun (n, a, off, on, _) ->
        match pick (off, on) with
        | Some (Learn.Complete r) when n = name && a = assoc -> Some r
        | _ -> None)
      rows
  in
  let budget =
    match (complete "PLRU" 12 (fun (_, on) -> Some on), complete "PLRU" 8 fst) with
    | Some p12, Some p8 ->
        let within = p12.Learn.member_queries <= p8.Learn.member_queries in
        Printf.printf
          "\nPLRU-12 (quotient) vs PLRU-8 (direct): %d vs %d membership \
           queries -> %s\n%!"
          p12.Learn.member_queries p8.Learn.member_queries
          (if within then "within the assoc-8 budget"
           else "OVER BUDGET <-- the quotient is not paying for itself");
        check within "assoc bench: PLRU-12 quotient run exceeded the PLRU-8 budget";
        Some (p12.Learn.member_queries, p8.Learn.member_queries, within)
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
    (* Each evaluator's verdicts, and the seconds [repeats] passes take. *)
    let evaluate inputs f =
      let verdicts = Array.map f inputs in
      let (), dt =
        Clock.time (fun () ->
            for _ = 1 to repeats do
              Array.iter (fun x -> ignore (f x)) inputs
            done)
      in
      (verdicts, dt)
    in
    let run_verdicts, run_s = evaluate words (fun (w, exp) -> Cq_automata.Mealy.run m w = exp) in
    let agree_verdicts, agrees_s = evaluate traces (Cq_automata.Mealy.agrees_trace c) in
    let list_verdicts, list_s =
      evaluate words (fun (w, exp) -> Cq_automata.Mealy.agrees c w exp)
    in
    let identical = run_verdicts = agree_verdicts && run_verdicts = list_verdicts in
    let speedup = run_s /. Float.max 1e-9 agrees_s in
    let list_speedup = run_s /. Float.max 1e-9 list_s in
    Printf.printf
      "\ncompiled evaluation (PLRU-8 truth, 2000 words x 64 symbols x %d \
       reps):\n  Mealy.run %.4f s, Mealy.agrees_trace %.4f s -> %.1fx, \
       verdicts identical: %b\n  Mealy.agrees (conformance path, \
       ungated) %.4f s -> %.1fx\n%!"
      repeats run_s agrees_s speedup identical list_s list_speedup;
    check identical "assoc bench: compiled evaluator verdicts differ from Mealy.run";
    check (smoke || speedup >= 5.0)
      (Printf.sprintf
         "assoc bench: compiled evaluator speedup %.1fx below the 5x bar" speedup);
    Json.Obj
      [
        ("run_seconds", num 6 run_s);
        ("agrees_seconds", num 6 agrees_s);
        ("speedup", num 2 speedup);
        ("identical_verdicts", Json.Bool identical);
        ("agrees_list_seconds", num 6 list_s);
        ("agrees_list_speedup", num 2 list_speedup);
      ]
  in
  let run_json = function
    | Learn.Complete (r : Learn.report) ->
        let quotient =
          match r.Learn.quotient with
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
          ((("learned", Json.Bool true)
           :: report_fields r
                [ "states"; "member_queries"; "member_symbols"; "cache_queries";
                  "cache_accesses"; "seconds" ])
          @ quotient)
    | Learn.Partial p ->
        Json.Obj
          [
            ("learned", Json.Bool false);
            ("reason", Json.String (Fmt.str "%a" Learn.pp_failure p.Learn.failure));
          ]
  in
  let opt f = Option.fold ~none:Json.Null ~some:f in
  write_artifact ~smoke "BENCH_assoc.json"
    (Json.Obj
       ([
          ( "mode",
            Json.String
              (if smoke then "smoke" else if full then "full" else "default") );
          ("compiled_eval", compiled_eval);
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
                        ("direct", opt run_json off);
                        ("identical", opt (fun b -> Json.Bool b) identical);
                      ])
                  rows) );
         ]))

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
  let machine = quiet CM.skylake in
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
        (Staged.stage (fun () -> Search.check_exact new1_mealy prog_new1));
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
      [ "LRU"; "FIFO"; "PLRU"; "MRU"; "LIP"; "BIP"; "SRRIP-HP" ]
  in
  (* --- phase 1: hit-rate table vs Belady-OPT --- *)
  let rows = W.Eval.policies subjects traces in
  W.Eval.pp_table Format.std_formatter rows;
  (* --- phase 2: a machine actually produced by the learner --- *)
  Printf.printf "\nlearning PLRU at assoc %d...\n%!" assoc;
  let plru = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc in
  let report = Learn.learn_simulated ~identify:false plru in
  let compiled = Cq_automata.Mealy.compile report.Learn.machine in
  let states = Cq_automata.Mealy.compiled_n_states compiled in
  Printf.printf "learned %d states in %.2f s\n%!" states report.Learn.seconds;
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
  check streams_identical
    "workload bench: learned PLRU-8 replay diverged from the policy instance";
  (* --- phase 3: compiled throughput (floor: 1M accesses/sec) --- *)
  let big_spec = "zipf:n=64,alpha=1.2,len=2000000,seed=9" in
  let blocks = (W.Trace.of_spec_exn ~assoc big_spec).W.Trace.blocks in
  ignore (W.Replay.compiled compiled blocks) (* warm-up *);
  let o_fast, dt = Clock.time (fun () -> W.Replay.compiled compiled blocks) in
  let o_inst, dt_inst = Clock.time (fun () -> W.Replay.policy plru blocks) in
  check
    (Bytes.equal o_fast.W.Replay.stream o_inst.W.Replay.stream)
    "workload bench: throughput-run streams diverged";
  let len_f = float_of_int (Array.length blocks) in
  let compiled_aps = len_f /. dt and policy_aps = len_f /. dt_inst in
  Printf.printf
    "compiled replay: %.1fM accesses/s | policy instance: %.1fM/s | \
     speedup %.1fx (%d accesses, %d-state machine)\n%!"
    (compiled_aps /. 1e6) (policy_aps /. 1e6) (compiled_aps /. policy_aps)
    (Array.length blocks) states;
  check (compiled_aps >= 1_000_000.0)
    (Printf.sprintf
       "workload bench: compiled replay at %.0f accesses/s is below the 1M/s \
        floor"
       compiled_aps);
  (* --- phase 4: miss attribution on the learned machine --- *)
  let attr = W.Replay.attribution compiled in
  let attr_trace = List.hd traces in
  ignore (W.Replay.compiled ~attr compiled attr_trace.W.Trace.blocks);
  Printf.printf "\nmiss attribution: learned PLRU-%d on %s\n%!" assoc
    attr_trace.W.Trace.label;
  W.Eval.pp_attribution ~top:5 Format.std_formatter attr;
  (* --- phase 5: the daemon as a load source --- *)
  let daemon_match =
    with_daemon ~workers:1 "bench-workload-state" @@ fun _server socket ->
    with_client socket @@ fun c ->
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
    check ok "workload bench: daemon replay diverged from local replay";
    ok
  in
  print_trend "BENCH_workload.json" [ "compiled_accesses_per_sec" ] (fun p ->
      Printf.printf
        "\nprior compiled throughput: %d accesses/s -> this run: %.0f\n%!" p
        compiled_aps);
  write_artifact "BENCH_workload.json"
    (Json.Obj
       [
         ("assoc", Json.Int assoc);
         ("learned_policy", Json.String "PLRU");
         ("learned_states", Json.Int states);
         ("learn_seconds", num 3 report.Learn.seconds);
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
  let cols =
    [ `Col (-18, "policy"); `Col (5, "assoc"); `Col (7, "states"); `Bar;
      `Col (5, "evset"); `Col (5, "evlen"); `Bar; `Col (8, "stealth"); `Bar;
      `Col (5, "leak"); `Col (8, "absorbed"); `Col (8, "residual"); `Bar;
      `Col (8, "ms"); `Col (0, "verified") ]
  in
  print_header cols;
  let stealth r =
    match r.A.stealthy with
    | None -> (0, false)
    | Some st -> (List.length st.A.setup + List.length st.A.body, st.A.repeatable)
  in
  let rows =
    List.map
      (fun (name, src) ->
        let p, m =
          match src with
          | `Policy p -> (p, Cq_policy.Policy.to_mealy p)
          | `Learned (m, p) -> (p, m)
        in
        let r, dt = Clock.time (fun () -> A.analyze ~name m) in
        check
          (r.A.assoc > 4 || A.analyze ~name m = r)
          (name ^ ": analysis is not deterministic");
        let verified =
          match Result.bind (A.verify p r) (fun () -> A.verify_hwsim p r) with
          | Ok () -> true
          | Error e ->
              check false (name ^ ": verification failed: " ^ e);
              false
        in
        let stealth_len, stealth_rep = stealth r and l = r.A.leakage in
        let i = string_of_int and f = Printf.sprintf "%.*f" in
        print_row cols
          [ name; i r.A.assoc; i r.A.states; i r.A.eviction_set_size;
            i r.A.eviction_length;
            i stealth_len ^ if stealth_rep then "R" else "!";
            f 2 l.A.evicted_information; i l.A.absorbed_noise;
            f 2 l.A.residual_information; f 1 (dt *. 1000.0);
            (if verified then "ok" else "FAILED") ];
        (r, dt, verified))
      subjects
  in
  (* Ordering gate: BIP's deterministic LIP-biased insertion collapses
     victim intensities that LRU keeps apart. *)
  if not smoke then
    List.iter
      (fun assoc ->
        let bits name =
          let r, _, _ =
            List.find (fun (r, _, _) -> r.A.name = name && r.A.assoc = assoc) rows
          in
          r.A.leakage.A.evicted_information
        in
        check
          (bits "BIP" < bits "LRU")
          (Printf.sprintf "attack bench: BIP-%d does not leak less than LRU-%d"
             assoc assoc))
      [ 4; 8 ];
  let worst_ms =
    List.fold_left (fun acc (_, dt, _) -> max acc (dt *. 1000.0)) 0.0 rows
  in
  print_trend ~smoke "BENCH_attack.json" [ "max_analysis_ms" ] (fun p ->
      Printf.printf "\nprior worst analysis: %d ms -> this run: %.0f ms\n%!" p
        worst_ms);
  write_artifact ~smoke "BENCH_attack.json"
    (Json.Obj
       [
         ("smoke", Json.Bool smoke);
         ( "verified_all",
           Json.Bool (List.for_all (fun (_, _, v) -> v) rows) );
         ("row_count", Json.Int (List.length rows));
         ("max_analysis_ms", Json.Int (int_of_float (Float.round worst_ms)));
         ( "rows",
           Json.List
             (List.map
                (fun (r, dt, verified) ->
                  let stealth_len, stealth_rep = stealth r and l = r.A.leakage in
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
                      ("verified", Json.Bool verified);
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
     named at the end and turns the exit status to 1.  An experiment
     fails when it raises or when any of its checks failed. *)
  let failures = ref [] in
  let attempt (name, f) =
    failed_checks := [];
    try
      f ();
      if !failed_checks <> [] then
        failwith (String.concat "; " (List.rev !failed_checks))
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
