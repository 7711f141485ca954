(* cq-lint: the repo's self-analysis pass (see lib/analysis/lint.ml for
   the rules).  Exits 0 when clean, 1 when any finding survives its
   allow-annotations, 2 on usage errors — so CI can gate on it. *)

open Cmdliner

let paths_arg =
  let doc =
    "Files or directories to lint (directories are walked recursively for \
     .ml/.mli files, skipping _build)."
  in
  Arg.(value & pos_all string [ "lib"; "bin"; "test" ] & info [] ~docv:"PATH" ~doc)

(* Trees that import library values without being linted: the
   dead-export rule must see their references too. *)
let reference_trees = [ "bench"; "examples"; "perfbench" ]

let out_arg =
  let doc = "Also write the findings to $(docv) as a JSON report." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let list_rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"List the lint rules and exit.")

let main paths out list_rules =
  if list_rules then begin
    List.iter
      (fun (name, descr) -> Printf.printf "%-22s %s\n" name descr)
      Cq_analysis.Lint.rules;
    `Ok ()
  end
  else
    match List.filter (fun p -> not (Sys.file_exists p)) paths with
    | missing :: _ -> `Error (false, Printf.sprintf "no such path: %s" missing)
    | [] ->
        let refs = List.filter Sys.file_exists reference_trees in
        let findings = Cq_analysis.Lint.lint_paths ~refs paths in
        Option.iter
          (fun path ->
            Cq_util.Atomic_file.write ~path
              (Cq_analysis.Lint.report_json findings))
          out;
        List.iter
          (fun f -> Fmt.pr "@[<v>%a@]@." Cq_analysis.Lint.pp_finding f)
          findings;
        (match findings with
        | [] ->
            Printf.printf "cq-lint: clean (%s)\n" (String.concat " " paths);
            `Ok ()
        | fs ->
            Printf.printf "cq-lint: %d finding(s)\n" (List.length fs);
            exit 1)

let cmd =
  let doc = "lint this repository's OCaml sources for known hazard patterns" in
  Cmd.v
    (Cmd.info "cq-lint" ~doc)
    Term.(ret (const main $ paths_arg $ out_arg $ list_rules_arg))

let () = exit (Cmd.eval cmd)
