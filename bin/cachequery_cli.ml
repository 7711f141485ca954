(* The CacheQuery command-line tool: an interactive REPL and a batch mode
   over the simulated CPUs, mirroring the paper's frontend (§4.2).

   Interactive commands:
     level L1|L2|L3      switch target level
     set N               switch target set
     slice N             switch target slice (L3)
     cat N               virtually reduce L3 associativity via CAT
     reps N              repetitions for majority voting
     reset F+R | <mbl>   reset sequence applied before each query
     check <mbl>         statically analyse a query without executing it
     info                show current target and configuration
     quit                exit
   anything else is parsed as an MBL expression and executed. *)

let parse_level = function
  | "L1" | "l1" -> Some Cq_hwsim.Cpu_model.L1
  | "L2" | "l2" -> Some Cq_hwsim.Cpu_model.L2
  | "L3" | "l3" -> Some Cq_hwsim.Cpu_model.L3
  | _ -> None

type session = {
  machine : Cq_hwsim.Machine.t;
  mutable level : Cq_hwsim.Cpu_model.level;
  mutable slice : int;
  mutable set : int;
  mutable reps : int;
  mutable reset : Cq_cachequery.Frontend.reset;
  mutable frontend : Cq_cachequery.Frontend.t option;
  check : bool; (* statically analyse each query before executing it *)
  lint_only : bool; (* ... and stop there: never execute *)
  metrics : Cq_util.Metrics.t;
}

let frontend session =
  match session.frontend with
  | Some fe -> fe
  | None ->
      let backend =
        Cq_cachequery.Backend.create ~metrics:session.metrics session.machine
          { Cq_cachequery.Backend.level = session.level;
            slice = session.slice;
            set = session.set }
      in
      let threshold, _, _ = Cq_cachequery.Backend.calibrate backend in
      Printf.printf "# calibrated %s threshold: %d cycles\n%!"
        (Cq_hwsim.Cpu_model.level_to_string session.level)
        threshold;
      let fe =
        Cq_cachequery.Frontend.create ~reset:session.reset
          ~voting:(Cq_cachequery.Frontend.Fixed session.reps)
          ~metrics:session.metrics backend
      in
      session.frontend <- Some fe;
      fe

let invalidate session = session.frontend <- None

let result_to_string r =
  if Cq_cache.Cache_set.result_is_hit r then "Hit" else "Miss"

(* How a query fared; the REPL prints and carries on, batch mode folds the
   status into the exit code (Rejected -> 3, Failed -> 2). *)
type status = Ran | Rejected | Failed

(* Static analysis of one query at the current target's associativity —
   no frontend (hence no calibration traffic) is needed for this. *)
let check_query session input =
  let assoc = Cq_hwsim.Machine.effective_assoc session.machine session.level in
  match
    Cq_analysis.Mbl_check.check_string ~registry:session.metrics ~assoc input
  with
  | Ok summary ->
      Printf.printf "# check: %s\n%!"
        (Fmt.str "%a" Cq_analysis.Mbl_check.pp_summary summary);
      Ran
  | Error diag ->
      Printf.printf "check error: %s\n%!"
        (Cq_analysis.Mbl_check.diagnostic_to_string diag);
      Rejected
  | exception Cq_mbl.Parser.Parse_error msg ->
      Printf.printf "parse error: %s\n%!" msg;
      Failed

let run_query session input =
  let checked =
    if session.check || session.lint_only then check_query session input
    else Ran
  in
  match checked with
  | (Rejected | Failed) as s -> s
  | Ran when session.lint_only -> Ran
  | Ran -> (
      match Cq_cachequery.Frontend.run_mbl (frontend session) input with
      | results ->
          List.iter
            (fun (q, rs) ->
              Printf.printf "%s -> %s\n%!"
                (Cq_mbl.Expand.query_to_string q)
                (match rs with
                | [] -> "(no profiled access)"
                | rs -> String.concat " " (List.map result_to_string rs)))
            results;
          Ran
      | exception Cq_mbl.Parser.Parse_error msg ->
          Printf.printf "parse error: %s\n%!" msg;
          Failed
      | exception Cq_mbl.Expand.Expansion_error msg ->
          Printf.printf "expansion error: %s\n%!" msg;
          Failed
      | exception Invalid_argument msg ->
          (* e.g. a reset sequence that does not expand to one query at
             this level's associativity, found when the frontend is made *)
          Printf.printf "error: %s\n%!" msg;
          Failed)

(* Run [f] on the integer argument of command [cmd]; a non-integer is
   reported and the session carries on. *)
let with_int cmd arg f =
  match int_of_string_opt arg with
  | Some n -> f n
  | None -> Printf.printf "error: %s expects an integer\n%!" cmd

let handle_command session line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [] -> true
  | [ "quit" ] | [ "exit" ] -> false
  | [ "info" ] ->
      let model = Cq_hwsim.Machine.model session.machine in
      Printf.printf "# %s (%s), target %s slice %d set %d, assoc %d, reps %d, reset %s\n%!"
        model.Cq_hwsim.Cpu_model.name model.Cq_hwsim.Cpu_model.codename
        (Cq_hwsim.Cpu_model.level_to_string session.level)
        session.slice session.set
        (Cq_hwsim.Machine.effective_assoc session.machine session.level)
        session.reps
        (Cq_cachequery.Frontend.reset_to_string session.reset);
      true
  | [ "level"; l ] -> (
      match parse_level l with
      | Some level ->
          session.level <- level;
          invalidate session;
          true
      | None ->
          Printf.printf "unknown level %S\n%!" l;
          true)
  | [ "set"; n ] ->
      with_int "set" n (fun n ->
          session.set <- n;
          invalidate session);
      true
  | [ "slice"; n ] ->
      with_int "slice" n (fun n ->
          session.slice <- n;
          invalidate session);
      true
  | [ "reps"; n ] ->
      (* Even counts can tie the majority vote; the frontend rejects them. *)
      with_int "reps" n (function
        | n when n >= 1 && (n = 1 || n mod 2 = 1) ->
            session.reps <- n;
            Option.iter
              (fun fe ->
                Cq_cachequery.Frontend.set_voting fe
                  (Cq_cachequery.Frontend.Fixed n))
              session.frontend
        | n ->
            Printf.printf
              "error: repetitions must be 1 or an odd count >= 3 (got %d)\n%!"
              n);
      true
  | [ "cat"; n ] ->
      with_int "cat" n (fun n ->
          match Cq_hwsim.Machine.set_cat_ways session.machine n with
          | () -> invalidate session
          | exception Failure msg -> Printf.printf "error: %s\n%!" msg);
      true
  | "reset" :: rest ->
      let spec = String.concat " " rest in
      let parsed =
        match spec with
        | "F+R" | "f+r" -> Ok Cq_cachequery.Frontend.Flush_refill
        | "none" -> Ok Cq_cachequery.Frontend.No_reset
        | _ ->
            Result.map
              (fun ast -> Cq_cachequery.Frontend.Sequence ast)
              (Cq_mbl.Parser.parse_result spec)
      in
      (* A live frontend expands the sequence now; one that fails leaves
         the current reset in place. *)
      (match parsed with
      | Error msg -> Printf.printf "parse error: %s\n%!" msg
      | Ok reset -> (
          match
            Option.iter
              (fun fe -> Cq_cachequery.Frontend.set_reset fe reset)
              session.frontend
          with
          | () -> session.reset <- reset
          | exception
              (Cq_mbl.Expand.Expansion_error msg | Invalid_argument msg) ->
              Printf.printf "reset error: %s (reset unchanged)\n%!" msg));
      true
  | "check" :: rest when rest <> [] ->
      ignore (check_query session (String.concat " " rest));
      true
  | _ ->
      ignore (run_query session line);
      true

let interactive session =
  Printf.printf
    "CacheQuery (simulated %s). MBL queries or commands (info, level, set, \
     slice, cat, reps, reset, check, quit).\n%!"
    (Cq_hwsim.Machine.model session.machine).Cq_hwsim.Cpu_model.name;
  let continue = ref true in
  while !continue do
    Printf.printf "> %!";
    match In_channel.input_line In_channel.stdin with
    | None -> continue := false
    | Some line -> continue := handle_command session line
  done

(* Batch mode is scripted: a query that cannot run must not exit 0.
   Exit 2 mirrors the usual usage-error convention; a static rejection by
   the analyser ($(b,--check)) exits 3, so scripts can tell "this query
   can never run at this associativity" from a runtime failure (the
   learning CLIs reserve 10-14 for the supervisor's failure taxonomy). *)
let status_exit_code = function Ran -> 0 | Rejected -> 3 | Failed -> 2

let batch session sets query =
  List.fold_left
    (fun worst set ->
      session.set <- set;
      invalidate session;
      Printf.printf "--- set %d ---\n%!" set;
      match run_query session query with
      | Ran -> worst
      | Failed -> Failed
      | Rejected -> if worst = Failed then worst else Rejected)
    Ran sets

(* --- Command line --------------------------------------------------------- *)

open Cmdliner

let cpu_arg =
  let doc = "Simulated CPU: haswell, skylake or kabylake." in
  Arg.(value & opt string "skylake" & info [ "cpu" ] ~doc)

let level_arg =
  let doc = "Target cache level (L1, L2, L3)." in
  Arg.(value & opt string "L1" & info [ "level" ] ~doc)

let set_arg = Arg.(value & opt int 0 & info [ "set" ] ~doc:"Target set index.")
let slice_arg = Arg.(value & opt int 0 & info [ "slice" ] ~doc:"Target slice (L3).")
let reps_arg = Arg.(value & opt int 1 & info [ "reps" ] ~doc:"Repetitions (majority vote).")

let noise_arg =
  Arg.(value & flag & info [ "noise" ] ~doc:"Enable measurement noise in the simulator.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulator seed.")

let query_arg =
  let doc = "Run this MBL query in batch mode and exit (otherwise: REPL)." in
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~doc)

let check_arg =
  let doc =
    "Statically analyse each query before executing it (exact expansion \
     cardinality, footprint, profiled-access count); a query the analyser \
     rejects is never executed and exits 3."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let lint_only_arg =
  let doc =
    "Statically analyse queries $(i,without) executing anything (implies \
     $(b,--check)); no calibration traffic is generated.  Exit 0 if every \
     query is accepted, 3 on a rejection."
  in
  Arg.(value & flag & info [ "lint-only" ] ~doc)

let sets_arg =
  let doc = "Comma-separated set indices (or a-b ranges) for batch mode." in
  Arg.(value & opt (some string) None & info [ "sets" ] ~doc)

let trace_arg =
  let doc =
    "Record a structured execution trace and write it to $(docv) as Chrome \
     trace_event JSON (load it in Perfetto or about://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the run's metrics registry (frontend and backend counters and \
     histograms) to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let parse_sets spec =
  String.split_on_char ',' spec
  |> List.concat_map (fun part ->
         match String.index_opt part '-' with
         | Some i ->
             let lo = int_of_string (String.sub part 0 i) in
             let hi =
               int_of_string (String.sub part (i + 1) (String.length part - i - 1))
             in
             List.init (hi - lo + 1) (fun k -> lo + k)
         | None -> [ int_of_string part ])

let main cpu level set slice reps noise seed query sets check lint_only trace
    metrics_path =
  (* Flush observability output on every exit path: batch mode exits 2 on
     a failed query (at_exit still runs), and SIGINT/SIGTERM are converted
     into an exit so a ^C'd or service-managed run keeps its files too. *)
  let registry = Cq_util.Metrics.create () in
  if trace <> None || metrics_path <> None then
    Cq_util.Shutdown.exit_on_signals ();
  (match trace with
  | None -> ()
  | Some path ->
      Cq_util.Trace.enable ();
      at_exit (fun () -> Cq_util.Trace.export_chrome ~path ()));
  (match metrics_path with
  | None -> ()
  | Some path ->
      at_exit (fun () -> Cq_util.Metrics.write_json ~path registry));
  if reps < 1 || (reps <> 1 && reps mod 2 = 0) then
    `Error
      (false,
       Printf.sprintf "repetitions must be 1 or an odd count >= 3 (got %d)" reps)
  else
  match Cq_hwsim.Cpu_model.by_name cpu with
  | None -> `Error (false, Printf.sprintf "unknown CPU %S" cpu)
  | Some model -> (
      match parse_level level with
      | None -> `Error (false, Printf.sprintf "unknown level %S" level)
      | Some level ->
          let noise_cfg =
            if noise then Cq_hwsim.Machine.default_noise
            else Cq_hwsim.Machine.quiet_noise
          in
          let machine =
            Cq_hwsim.Machine.create ~seed:(Int64.of_int seed) ~noise:noise_cfg model
          in
          let session =
            {
              machine;
              level;
              slice;
              set;
              reps;
              reset = Cq_cachequery.Frontend.Flush_refill;
              frontend = None;
              check = check || lint_only;
              lint_only;
              metrics = registry;
            }
          in
          (match (query, sets) with
          | Some q, Some ss -> (
              match batch session (parse_sets ss) q with
              | Ran -> ()
              | s -> exit (status_exit_code s))
          | Some q, None -> (
              match run_query session q with
              | Ran -> ()
              | s -> exit (status_exit_code s))
          | None, _ -> interactive session);
          `Ok ())

let cmd =
  let doc = "query (simulated) hardware cache sets with MBL" in
  Cmd.v
    (Cmd.info "cachequery" ~doc)
    Term.(
      ret
        (const main $ cpu_arg $ level_arg $ set_arg $ slice_arg $ reps_arg
       $ noise_arg $ seed_arg $ query_arg $ sets_arg $ check_arg
       $ lint_only_arg $ trace_arg $ metrics_arg))

let () = exit (Cmd.eval cmd)
