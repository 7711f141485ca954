(* cq-attack: static security analysis of replacement-policy automata.

   Input is a policy automaton from any of the pipeline's sources — a
   zoo policy name (ground truth), a DOT file as written by polca
   [--dot], or a learning-session snapshot (resumed to completion in
   simulation, so the analyzed machine is the one the learner actually
   produces).  Output is the attack report: minimal eviction sets,
   stealthy hit/miss-controlling sequences and leakage measures, as a
   pretty table/report and optionally JSON.

   Whenever a ground-truth policy is at hand, every synthesized sequence
   is verified dynamically before anything is printed: replayed through
   the three Replay paths and through hwsim, byte-for-byte against the
   predicted hit/miss stream.  Use --no-verify to skip (e.g. for very
   large machines). *)

open Cmdliner
module Attack = Cq_analysis.Attack

let fail fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt

let verified policy report no_verify =
  match policy with
  | None -> Ok `Unverified
  | Some p when no_verify -> Ok (`Skipped p)
  | Some p -> (
      match
        (Attack.verify p report, Attack.verify_hwsim p report)
      with
      | Ok (), Ok () -> Ok (`Verified p)
      | Error e, _ -> Error ("replay verification failed: " ^ e)
      | _, Error e -> Error ("hwsim verification failed: " ^ e))

let verdict = function
  | `Verified _ -> "verified (replay paths + hwsim)"
  | `Skipped _ -> "verification skipped (--no-verify)"
  | `Unverified -> "not verified (no ground-truth policy)"

let write_json path json =
  let text = Cq_util.Json.to_string_pretty json ^ "\n" in
  if path = "-" then print_string text
  else begin
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc text);
    Fmt.pr "wrote %s@." path
  end

let analyze_one ~name ?policy machine no_verify =
  let report = Attack.analyze ~name machine in
  match verified policy report no_verify with
  | Error msg -> Error (name ^ ": " ^ msg)
  | Ok v -> Ok (report, v)

let run_all assoc json no_verify =
  let subjects =
    List.filter_map
      (fun e ->
        if e.Cq_policy.Zoo.valid_assoc assoc then
          Some (e.Cq_policy.Zoo.name, e.Cq_policy.Zoo.make assoc)
        else None)
      Cq_policy.Zoo.entries
  in
  let outcomes =
    List.map
      (fun (name, p) ->
        analyze_one ~name ~policy:p (Cq_policy.Policy.to_mealy p) no_verify)
      subjects
  in
  match
    List.find_map (function Error m -> Some m | Ok _ -> None) outcomes
  with
  | Some msg -> fail "%s" msg
  | None ->
      let reports =
        List.filter_map
          (function Ok (r, _) -> Some r | Error _ -> None)
          outcomes
      in
      Fmt.pr "%a@." Attack.pp_table reports;
      Fmt.pr "all sequences %s@."
        (if no_verify then "unverified (--no-verify)"
         else "verified (replay paths + hwsim)");
      Option.iter
        (fun path ->
          write_json path
            (Cq_util.Json.List (List.map Attack.report_json reports)))
        json;
      `Ok ()

let run_single ~name ?policy machine json no_verify =
  match analyze_one ~name ?policy machine no_verify with
  | Error msg -> fail "%s" msg
  | Ok (report, v) ->
      Fmt.pr "%a@." Attack.pp_report report;
      Fmt.pr "%s@." (verdict v);
      Option.iter (fun path -> write_json path (Attack.report_json report)) json;
      `Ok ()

let main policy assoc all dot snapshot json no_verify =
  let zoo name =
    match Cq_policy.Zoo.make ~name ~assoc with
    | Ok p -> Ok p
    | Error msg -> Error msg
  in
  match (dot, snapshot, all, policy) with
  | Some path, None, false, _ -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error msg -> fail "%s" msg
      | text -> (
          match Attack.machine_of_dot text with
          | Error msg -> fail "%s: %s" path msg
          | Ok machine -> (
              match policy with
              | None ->
                  run_single ~name:(Filename.basename path) machine json
                    no_verify
              | Some name -> (
                  match zoo name with
                  | Error msg -> fail "%s" msg
                  | Ok p ->
                      run_single ~name ~policy:p machine json no_verify))))
  | None, Some path, false, Some name -> (
      (* A snapshot holds the learner's knowledge, not a machine: resume
         the simulated learn to completion, then analyze what it
         produces. *)
      match zoo name with
      | Error msg -> fail "%s" msg
      | Ok p -> (
          match Cq_core.Learn.learn_simulated ~identify:false ~resume:path p with
          | exception Cq_core.Session.Corrupt msg -> fail "%s" msg
          | report ->
              run_single
                ~name:(Printf.sprintf "%s(resumed)" name)
                ~policy:p report.Cq_core.Learn.machine json no_verify))
  | None, Some _, false, None ->
      fail "--snapshot needs --policy (the snapshot's oracle) to resume"
  | None, None, true, None -> run_all assoc json no_verify
  | None, None, false, Some name -> (
      match zoo name with
      | Error msg -> fail "%s" msg
      | Ok p ->
          run_single ~name ~policy:p (Cq_policy.Policy.to_mealy p) json
            no_verify)
  | None, None, false, None ->
      fail "nothing to analyze: give --policy, --all, --dot or --snapshot"
  | _ -> fail "--policy/--all, --dot and --snapshot are mutually exclusive"

let policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ] ~docv:"NAME"
        ~doc:
          "Analyze this zoo policy's automaton (ground truth), or name the \
           oracle when combined with $(b,--snapshot) / the verifier when \
           combined with $(b,--dot).")

let assoc_arg =
  Arg.(value & opt int 4 & info [ "assoc" ] ~doc:"Associativity.")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Analyze every zoo policy at $(b,--assoc), ranked by leakage.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Analyze the automaton in this DOT file (as written by polca).")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Resume a simulated learning session from this snapshot and \
           analyze the machine it produces (needs $(b,--policy)).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the report(s) as JSON to $(docv) ($(b,-) for stdout).")

let no_verify_arg =
  Arg.(
    value & flag
    & info [ "no-verify" ]
        ~doc:
          "Skip the dynamic verification of synthesized sequences against \
           the replay paths and hwsim.")

let cmd =
  let doc =
    "synthesize eviction sets, stealthy sequences and leakage bounds from \
     replacement-policy automata"
  in
  Cmd.v
    (Cmd.info "cq-attack" ~doc)
    Term.(
      ret
        (const main $ policy_arg $ assoc_arg $ all_arg $ dot_arg
       $ snapshot_arg $ json_arg $ no_verify_arg))

let () = exit (Cmd.eval cmd)
