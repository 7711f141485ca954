(* cq-workload: trace-driven workload evaluation.

   Replays spec-described traces through zoo policies (and optionally
   through machines produced by the learner, on the compiled fast path),
   tabulating hit rates against the Belady-OPT offline bound, with an
   optional per-state miss attribution table.

   The output is deterministic for fixed flags — no timing, no ambient
   randomness — so CI diffs it against checked-in expectations. *)

open Cmdliner
module W = Cq_workload

let default_traces assoc =
  [
    Printf.sprintf "zipf:n=%d,alpha=1.2,len=20000,seed=1" (8 * assoc);
    Printf.sprintf "uniform:n=%d,len=20000,seed=2" (2 * assoc);
    Printf.sprintf "seq:n=%d,len=20000" (2 * assoc);
    Printf.sprintf "stride:n=%d,stride=3,len=20000" (3 * assoc);
    "anti:len=20000";
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("cq-workload: " ^ msg); exit 2) fmt

let run assoc policies traces learned attr cold top =
  let policies = if policies = [] then [ "LRU"; "FIFO"; "PLRU"; "MRU" ] else policies in
  let specs = if traces = [] then default_traces assoc else traces in
  let traces =
    List.map
      (fun spec ->
        match W.Trace.of_spec ~assoc spec with
        | Ok t -> t
        | Error msg -> fail "bad trace spec %S: %s" spec msg)
      specs
  in
  let subjects =
    List.map
      (fun name ->
        match Cq_policy.Zoo.make ~name ~assoc with
        | Ok p -> (name, p)
        | Error msg -> fail "%s" msg)
      policies
  in
  let rows =
    if learned then
      (* Learn each policy, then replay the learned machine on the
         compiled path — cross-checked against the policy instance so a
         divergence fails loudly rather than skewing the table. *)
      List.concat_map
        (fun (name, p) ->
          let report = Cq_core.Learn.learn_simulated ~identify:false p in
          let c = Cq_automata.Mealy.compile report.Cq_core.Learn.machine in
          List.iter
            (fun (tr : W.Trace.t) ->
              let o_p = W.Replay.policy ~cold p tr.W.Trace.blocks in
              let o_c = W.Replay.compiled ~cold c tr.W.Trace.blocks in
              if not (Bytes.equal o_p.W.Replay.stream o_c.W.Replay.stream) then
                fail "learned %s diverges from the policy on %s" name
                  tr.W.Trace.label)
            traces;
          W.Eval.machines ~cold [ (name ^ "*", c) ] traces)
        subjects
    else W.Eval.policies ~cold subjects traces
  in
  W.Eval.pp_table Format.std_formatter rows;
  if attr then
    List.iter
      (fun (name, p) ->
        let c = Cq_automata.Mealy.compile (Cq_policy.Policy.to_mealy p) in
        let a = W.Replay.attribution c in
        List.iter
          (fun (tr : W.Trace.t) ->
            ignore (W.Replay.compiled ~cold ~attr:a c tr.W.Trace.blocks))
          traces;
        Format.printf "@.miss attribution: %s (%d states, all traces)@." name
          (Cq_automata.Mealy.compiled_n_states c);
        W.Eval.pp_attribution ~top Format.std_formatter a)
      subjects

let assoc_arg =
  Arg.(value & opt int 8 & info [ "assoc" ] ~docv:"N" ~doc:"Associativity.")

let policy_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "policy"; "p" ] ~docv:"NAME"
        ~doc:
          "Zoo policy to replay (repeatable; default LRU, FIFO, PLRU, MRU).")

let trace_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "trace"; "t" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Trace spec, repeatable: %s.  Default: a five-trace suite \
              (zipf, uniform, seq, stride, anti) of 20k accesses each."
             W.Trace.spec_syntax))

let learned_arg =
  Arg.(
    value & flag
    & info [ "learned" ]
        ~doc:
          "Learn each policy first and replay the $(i,learned) machine on \
           the compiled path (cross-checked against the policy; subjects \
           are starred in the table).")

let attr_arg =
  Arg.(
    value & flag
    & info [ "attr" ]
        ~doc:
          "Print the per-state miss attribution table (which automaton \
           states absorbed the misses), aggregated over all traces.")

let cold_arg =
  Arg.(
    value & flag
    & info [ "cold" ]
        ~doc:
          "Start from an empty set (cold misses fill invalid ways) instead \
           of the standard full initial content.")

let top_arg =
  Arg.(
    value & opt int 8
    & info [ "top" ] ~docv:"N" ~doc:"Rows in the attribution table.")

let cmd =
  let doc = "replay synthetic workloads through policies vs Belady-OPT" in
  Cmd.v
    (Cmd.info "cq-workload" ~doc)
    Term.(
      const run $ assoc_arg $ policy_arg $ trace_arg $ learned_arg $ attr_arg
      $ cold_arg $ top_arg)

let () = exit (Cmd.eval cmd)
