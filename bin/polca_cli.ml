(* The Polca command-line tool: learn a replacement policy automaton either
   from a software-simulated cache (§6) or from a simulated CPU through
   CacheQuery (§7), identify it against the policy zoo, and optionally dump
   it as a DOT graph. *)

open Cmdliner

(* Failures in the supervisor's taxonomy exit with distinct codes
   (Transient 10, Diverged 11, Budget_exhausted 12, Invalid 14; 13 is
   retired and not reused), so campaign scripts can branch without
   parsing stderr. *)
let exit_partial failure =
  Fmt.epr "polca: %a@." Cq_core.Learn.pp_failure failure;
  exit (Cq_core.Learn.failure_exit_code failure)

let snapshot_policy_of snapshot snapshot_every =
  Option.map
    (fun path ->
      Cq_core.Learn.snapshot_policy ?every_queries:snapshot_every path)
    snapshot

(* Observability hooks: enable tracing up front and flush trace + metrics
   on every exit path, including the distinct-exit-code failure paths
   (at_exit runs on [exit 10..14] too) and SIGINT/SIGTERM — a killed
   campaign run keeps its trace instead of losing it to the default
   signal disposition. *)
let setup_observability trace metrics registry =
  if trace <> None || metrics <> None then Cq_util.Shutdown.exit_on_signals ();
  (match trace with
  | None -> ()
  | Some path ->
      Cq_util.Trace.enable ();
      at_exit (fun () -> Cq_util.Trace.export_chrome ~path ()));
  match metrics with
  | None -> ()
  | Some path ->
      at_exit (fun () -> Cq_util.Metrics.write_json ~path registry)

(* --analyze: run the static security pass (Cq_analysis.Attack) over the
   machine a learn produced.  With a ground-truth policy at hand
   (simulated mode) every synthesized sequence is additionally verified
   dynamically — replay paths and hwsim — before the report is shown. *)
let run_analysis ?policy ~name machine =
  let r = Cq_analysis.Attack.analyze ~name machine in
  Fmt.pr "%a@." Cq_analysis.Attack.pp_report r;
  Option.iter
    (fun p ->
      (match Cq_analysis.Attack.verify p r with
      | Ok () -> Fmt.pr "analysis verified against the replay paths@."
      | Error e ->
          Fmt.epr "polca: analysis verification failed: %s@." e;
          exit 1);
      match Cq_analysis.Attack.verify_hwsim p r with
      | Ok () -> Fmt.pr "analysis verified against hwsim@."
      | Error e ->
          Fmt.epr "polca: hwsim verification failed: %s@." e;
          exit 1)
    policy

let learn_simulated policy assoc equivalence validate quotient analyze dot snapshot
    snapshot_every resume deadline query_budget metrics =
  match Cq_policy.Zoo.make ~name:policy ~assoc with
  | Error msg -> `Error (false, msg)
  | Ok p -> (
      match
        Cq_core.Learn.run_simulated ~equivalence
          ~validate ~quotient ~metrics
          ?snapshot:(snapshot_policy_of snapshot snapshot_every)
          ?resume
          ~deadline:(Cq_util.Clock.deadline_of deadline)
          ?query_budget p
      with
      | Cq_core.Learn.Partial { failure; snapshot = snap; _ } ->
          Option.iter (fun s -> Fmt.epr "polca: snapshot at %s@." s) snap;
          exit_partial failure
      | Cq_core.Learn.Complete report ->
          Fmt.pr "%a@." Cq_core.Learn.pp_report report;
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc
                    (Cq_automata.Mealy.to_dot
                       ~input_label:(Cq_policy.Types.input_label ~assoc)
                       ~output_label:Cq_policy.Types.output_label
                       report.Cq_core.Learn.machine));
              Fmt.pr "wrote %s@." path)
            dot;
          if analyze then
            run_analysis ~policy:p ~name:policy
              report.Cq_core.Learn.machine;
          `Ok ())

let learn_hardware cpu level set slice cat equivalence noise validate quotient
    analyze dot snapshot snapshot_every resume deadline query_budget metrics =
  match Cq_hwsim.Cpu_model.by_name cpu with
  | None -> `Error (false, Printf.sprintf "unknown CPU %S" cpu)
  | Some model ->
      let noise_cfg =
        if noise then Cq_hwsim.Machine.default_noise
        else Cq_hwsim.Machine.quiet_noise
      in
      let machine = Cq_hwsim.Machine.create ~noise:noise_cfg model in
      let run =
        Cq_core.Hardware.learn_set machine level ~slice ~set ?cat_ways:cat
          ~equivalence ~check_hits:false ~validate ~quotient
          ~repetitions:(if noise then 5 else 1)
          ~metrics
          ?snapshot:(snapshot_policy_of snapshot snapshot_every)
          ?resume ?deadline ?query_budget
      in
      Fmt.pr "%s %s slice %d set %d (assoc %d%s): %a@." run.Cq_core.Hardware.cpu
        (Cq_hwsim.Cpu_model.level_to_string run.Cq_core.Hardware.level)
        run.Cq_core.Hardware.slice run.Cq_core.Hardware.set
        run.Cq_core.Hardware.assoc
        (if run.Cq_core.Hardware.cat then ", CAT" else "")
        Cq_core.Hardware.pp_outcome run.Cq_core.Hardware.outcome;
      (match run.Cq_core.Hardware.outcome with
      | Cq_core.Hardware.Learned { report; _ } ->
          Fmt.pr "%a@." Cq_core.Learn.pp_report report;
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc
                    (Cq_automata.Mealy.to_dot
                       ~input_label:
                         (Cq_policy.Types.input_label
                            ~assoc:run.Cq_core.Hardware.assoc)
                       ~output_label:Cq_policy.Types.output_label
                       report.Cq_core.Learn.machine));
              Fmt.pr "wrote %s@." path)
            dot;
          if analyze then
            (* No ground-truth policy in hardware mode: the report stands
               on the learned machine alone (identification may still
               name it); verification needs a zoo policy. *)
            run_analysis
              ~name:
                (Printf.sprintf "%s-%s" run.Cq_core.Hardware.cpu
                   (Cq_hwsim.Cpu_model.level_to_string
                      run.Cq_core.Hardware.level))
              report.Cq_core.Learn.machine
      | Cq_core.Hardware.Partial { failure; snapshot = snap; _ } ->
          Option.iter (fun s -> Fmt.epr "polca: snapshot at %s@." s) snap;
          exit_partial failure
      | Cq_core.Hardware.Failed _ -> exit 1);
      `Ok ()

let policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "simulate" ] ~doc:"Learn from a software-simulated cache running this policy.")

let assoc_arg = Arg.(value & opt int 4 & info [ "assoc" ] ~doc:"Associativity (simulated cache).")
let depth_arg = Arg.(value & opt int 1 & info [ "depth" ] ~doc:"Conformance-test depth k.")

let suite_arg =
  Arg.(
    value
    & opt (enum [ ("wp", `Wp); ("w", `W) ]) `Wp
    & info [ "equivalence" ] ~docv:"SUITE"
        ~doc:
          "Conformance suite: $(b,wp) (the default, the paper's Wp method) \
           or $(b,w) (the W method, for the suite ablation).  Both are \
           (|H|+k)-complete at depth k.")
let cpu_arg = Arg.(value & opt string "skylake" & info [ "cpu" ] ~doc:"Simulated CPU for hardware mode.")

let level_arg =
  let level_conv : Cq_hwsim.Cpu_model.level Arg.conv =
    Arg.conv
      ~docv:"LEVEL"
      ( (fun s ->
          match String.uppercase_ascii s with
          | "L1" -> Ok Cq_hwsim.Cpu_model.L1
          | "L2" -> Ok Cq_hwsim.Cpu_model.L2
          | "L3" -> Ok Cq_hwsim.Cpu_model.L3
          | _ -> Error (`Msg "expected L1, L2 or L3")),
        fun ppf l -> Fmt.string ppf (Cq_hwsim.Cpu_model.level_to_string l) )
  in
  Arg.(value & opt level_conv Cq_hwsim.Cpu_model.L1 & info [ "level" ] ~doc:"Cache level.")

let set_arg = Arg.(value & opt int 0 & info [ "set" ] ~doc:"Target set.")
let slice_arg = Arg.(value & opt int 0 & info [ "slice" ] ~doc:"Target slice.")
let cat_arg = Arg.(value & opt (some int) None & info [ "cat" ] ~doc:"Reduce L3 ways via CAT.")
let noise_arg = Arg.(value & flag & info [ "noise" ] ~doc:"Enable simulator noise (adds repetitions).")

let check_arg =
  Arg.(
    value
    & flag
    & info [ "check" ]
        ~doc:
          "Model-check the learned automaton against the policy axioms \
           (hit consistency, reachability, minimality, line-permutation \
           symmetry) before accepting it; a violation exits 14 and, in \
           hardware mode, is first retried with escalated voting.")
let quotient_arg =
  Arg.(
    value
    & flag
    & info [ "quotient" ]
        ~doc:
          "Learn modulo verified line-relabeling symmetry: candidate \
           relabelings are probed against the oracle, and membership \
           queries are canonicalized through the verified group before \
           reaching the query cache, collapsing up-to-assoc! symmetric \
           experiments into one real execution.  Sound for asymmetric \
           policies (degrades to the identity).")

let analyze_arg =
  Arg.(
    value
    & flag
    & info [ "analyze" ]
        ~doc:
          "After learning, run the static security analysis over the \
           learned automaton: minimal eviction sets, stealthy \
           hit/miss-controlling sequences and leakage measures \
           (cq-attack's pass).  In simulated mode every synthesized \
           sequence is first verified dynamically against the replay \
           paths and hwsim.")

let dot_arg = Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"Write learned automaton to this DOT file.")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ]
        ~doc:
          "Write learning-session snapshots to this file (atomically), so a \
           crashed or killed run can be resumed with $(b,--resume).")

let snapshot_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "snapshot-every" ]
        ~doc:"Snapshot after this many hardware queries (default 500).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ]
        ~doc:
          "Resume a crashed run from this snapshot file; the resumed run \
           replays deterministically and produces the identical automaton.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ]
        ~doc:
          "Wall-clock budget in seconds for the whole run; exceeding it \
           exits 12 after writing a final snapshot.")

let query_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "query-budget" ]
        ~doc:
          "Maximum hardware queries; exceeding it exits 12 after writing a \
           final snapshot.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured execution trace and write it to $(docv) as \
           Chrome trace_event JSON (load it in Perfetto or about://tracing).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry (counters and histograms across \
           the whole pipeline) to $(docv) as JSON.")

let main policy assoc cpu level set slice cat depth suite noise check
    quotient analyze dot snapshot snapshot_every resume deadline query_budget
    trace metrics_path =
  let registry = Cq_util.Metrics.create () in
  let equivalence =
    match suite with
    | `Wp -> Cq_core.Learn.Wp_method depth
    | `W -> Cq_core.Learn.W_method depth
  in
  setup_observability trace metrics_path registry;
  try
    match policy with
    | Some name ->
        learn_simulated name assoc equivalence check quotient analyze dot snapshot
          snapshot_every resume deadline query_budget registry
    | None ->
        learn_hardware cpu level set slice cat equivalence noise check quotient
          analyze dot snapshot snapshot_every resume deadline query_budget
          registry
  with Cq_core.Session.Corrupt msg -> `Error (false, msg)

let cmd =
  let doc = "learn cache replacement policies (Polca + LearnLib-style L*)" in
  Cmd.v
    (Cmd.info "polca" ~doc)
    Term.(
      ret
        (const main $ policy_arg $ assoc_arg $ cpu_arg $ level_arg $ set_arg
       $ slice_arg $ cat_arg $ depth_arg $ suite_arg $ noise_arg $ check_arg
       $ quotient_arg $ analyze_arg $ dot_arg
       $ snapshot_arg $ snapshot_every_arg $ resume_arg $ deadline_arg
       $ query_budget_arg $ trace_arg $ metrics_arg))

let () = exit (Cmd.eval cmd)
