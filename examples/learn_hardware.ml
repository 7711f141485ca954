(* Learning a replacement policy from "hardware" (§7).

   The target is the L1 cache of a simulated Intel i5-6500 (Skylake) with
   realistic measurement noise enabled.  CacheQuery handles address
   selection, cache filtering and latency thresholding; Polca turns the
   timed loads into a membership oracle; L* with W-method conformance
   testing learns the automaton; and the result is identified against the
   policy zoo — rediscovering that Intel L1 caches run tree-PLRU
   (128 control states at associativity 8, cf. Table 4).

   Run with:  dune exec examples/learn_hardware.exe *)

let () =
  let machine =
    Cq_hwsim.Machine.create
      ~noise:Cq_hwsim.Machine.default_noise (* gaussian jitter + outliers *)
      Cq_hwsim.Cpu_model.skylake
  in
  Fmt.pr "%a@." Cq_hwsim.Cpu_model.pp_specs (Cq_hwsim.Machine.model machine);
  Fmt.pr "Learning the L1 policy of set 12 from timing measurements...@.";
  let run =
    Cq_core.Hardware.learn_set machine Cq_hwsim.Cpu_model.L1 ~set:12
      ~voting:(Cq_cachequery.Frontend.Fixed 5) (* majority vote against the noise *)
  in
  Fmt.pr "outcome: %a@." Cq_core.Hardware.pp_outcome run.Cq_core.Hardware.outcome;
  match run.Cq_core.Hardware.outcome with
  | Cq_core.Hardware.Learned { report; _ } ->
      Fmt.pr "%a@." Cq_core.Learn.pp_report report
  | Cq_core.Hardware.Partial { failure; _ } ->
      exit (Cq_core.Learn.failure_exit_code failure)
  | Cq_core.Hardware.Failed _ -> exit 1
