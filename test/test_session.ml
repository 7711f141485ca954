(* Tests for durable learning sessions (Session + the Learn/Hardware resume
   plumbing): snapshot round-trips, rejection of damaged files, and the
   headline property — a run killed at an arbitrary query count and resumed
   from its snapshot produces the *identical* automaton a crash-free run
   would have produced. *)

module Session = Cq_core.Session
module Learn = Cq_core.Learn
module Moracle = Cq_learner.Moracle

let temp_snap () = Filename.temp_file "cq_test_session" ".snap"

let with_temp f =
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Byte-identical structure, not just trace equivalence. *)
let same_machine a b =
  Cq_automata.Mealy.equivalent a b
  && Marshal.to_string a [] = Marshal.to_string b []

(* --- Round-trip ---------------------------------------------------------- *)

let sample_calibration =
  {
    Cq_cachequery.Backend.cal_threshold = 140;
    cal_margin = 12;
    cal_miss_ceiling = 400;
    cal_ewma_hit = 80.5;
    cal_ewma_miss = 210.25;
  }

let sample_snapshot () =
  let policy = Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:4 in
  let oracle = Moracle.of_mealy (Cq_policy.Policy.to_mealy policy) in
  let cached, handle = Moracle.cached_session oracle in
  ignore (cached.Moracle.query [ 0; 1; 2 ]);
  ignore (cached.Moracle.query [ 3; 0; 1; 0 ]);
  let table =
    {
      Cq_learner.Lstar.suffixes = [ [ 0 ]; [ 1; 0 ] ];
      reps = [| []; [ 0 ] |];
      rows = [];
    }
  in
  {
    Session.meta =
      Session.make_meta ~label:"roundtrip" ~seed:42
        ~calibration:sample_calibration ~queries:17 ();
    knowledge = handle.Moracle.export ();
    table = Some table;
  }

let test_roundtrip () =
  with_temp (fun path ->
      let snap = sample_snapshot () in
      Session.save ~path snap;
      let snap' = Session.load ~path in
      let m = snap.Session.meta and m' = snap'.Session.meta in
      Alcotest.(check int) "version" Session.version m'.Session.version;
      Alcotest.(check string) "label" m.Session.label m'.Session.label;
      Alcotest.(check int) "queries" m.Session.queries m'.Session.queries;
      Alcotest.(check (option int)) "seed" m.Session.seed m'.Session.seed;
      (match m'.Session.calibration with
      | None -> Alcotest.fail "calibration lost in the round-trip"
      | Some c ->
          Alcotest.(check int) "threshold"
            sample_calibration.Cq_cachequery.Backend.cal_threshold
            c.Cq_cachequery.Backend.cal_threshold;
          Alcotest.(check (float 0.0)) "ewma hit"
            sample_calibration.Cq_cachequery.Backend.cal_ewma_hit
            c.Cq_cachequery.Backend.cal_ewma_hit);
      Alcotest.(check int) "knowledge size"
        (Moracle.knowledge_size snap.Session.knowledge)
        (Moracle.knowledge_size snap'.Session.knowledge);
      match snap'.Session.table with
      | None -> Alcotest.fail "table lost in the round-trip"
      | Some t ->
          Alcotest.(check (list (list int)))
            "suffixes" [ [ 0 ]; [ 1; 0 ] ]
            t.Cq_learner.Lstar.suffixes)

let test_load_opt_missing () =
  Alcotest.(check bool)
    "load_opt on a missing path" true
    (Session.load_opt ~path:"/nonexistent/cq_no_such_snapshot" = None)

(* --- Damage rejection ----------------------------------------------------- *)

let expect_corrupt label path =
  match Session.load ~path with
  | _ -> Alcotest.fail (label ^ ": damaged snapshot was accepted")
  | exception Session.Corrupt _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_rejects_damage () =
  with_temp (fun path ->
      Session.save ~path (sample_snapshot ());
      let good = read_file path in
      (* Missing file. *)
      expect_corrupt "missing" "/nonexistent/cq_no_such_snapshot";
      (* Empty and truncated files (a non-atomic writer's torn output). *)
      write_file path "";
      expect_corrupt "empty" path;
      write_file path (String.sub good 0 (String.length good / 2));
      expect_corrupt "truncated" path;
      write_file path (String.sub good 0 10);
      expect_corrupt "shorter than the header" path;
      (* Wrong magic: some other file format. *)
      let other = Bytes.of_string good in
      Bytes.set other 0 'X';
      write_file path (Bytes.to_string other);
      expect_corrupt "wrong magic" path;
      (* Version mismatch: a snapshot from a future format. *)
      let vers = Bytes.of_string good in
      Bytes.set vers 6 (Char.chr (Session.version + 1));
      write_file path (Bytes.to_string vers);
      expect_corrupt "version mismatch" path;
      (* Payload bit-flip: the digest must catch silent corruption. *)
      let flipped = Bytes.of_string good in
      let i = String.length good - 3 in
      Bytes.set flipped i (Char.chr (Char.code good.[i] lxor 0x40));
      write_file path (Bytes.to_string flipped);
      expect_corrupt "payload bit-flip" path;
      (* And the pristine bytes still load. *)
      write_file path good;
      ignore (Session.load ~path : Cq_policy.Types.output Session.snapshot))

(* --- Crash / resume determinism (simulated oracle) ------------------------ *)

(* Kill a software-simulated learning run with an unclassified exception
   raised from the fault-injection probe at a randomized query count; the
   failure handler must leave a final snapshot behind, and resuming from it
   must replay to the identical automaton. *)
let test_probe_crash_resume_simulated () =
  let policy = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:4 in
  let baseline = Learn.learn_simulated ~identify:false policy in
  let total = baseline.Learn.member_queries in
  let rng = Random.State.make [| 0xC0FFEE |] in
  List.iter
    (fun trial ->
      with_temp (fun path ->
          let kill_at = 1 + Random.State.int rng (max 1 (total * 3 / 4)) in
          let crashed =
            match
              Learn.learn_simulated ~identify:false
                ~snapshot:(Learn.snapshot_policy ~every_queries:25 path)
                ~probe:(fun q -> if q >= kill_at then raise Exit)
                policy
            with
            | _ -> false
            | exception Exit -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "trial %d: probe killed the run (at %d/%d)" trial
               kill_at total)
            true crashed;
          let resumed =
            Learn.learn_simulated ~identify:false ~resume:path policy
          in
          Alcotest.(check int)
            (Printf.sprintf "trial %d: same state count" trial)
            baseline.Learn.states resumed.Learn.states;
          Alcotest.(check bool)
            (Printf.sprintf "trial %d: identical automaton" trial)
            true
            (same_machine baseline.Learn.machine resumed.Learn.machine)))
    [ 1; 2 ]

(* --- Crash / resume determinism (simulated hardware) ---------------------- *)

(* The ISSUE's headline scenario: learning Haswell L1 through the full
   CacheQuery stack, killed mid-run at randomized query counts by the query
   budget (a clean Partial with a final snapshot), then resumed — the
   resumed run must restore the PRNG seed and the calibration record from
   the snapshot and finish with the identical automaton. *)
let test_kill_resume_hardware () =
  let model = Cq_hwsim.Cpu_model.haswell in
  let fresh () =
    Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise model
  in
  let base_run =
    Cq_core.Hardware.learn_set (fresh ())
      Cq_hwsim.Cpu_model.L1
  in
  let base =
    match base_run.Cq_core.Hardware.outcome with
    | Cq_core.Hardware.Learned { report; _ } -> report
    | Cq_core.Hardware.Partial { failure; _ } ->
        Alcotest.fail (Fmt.str "baseline partial: %a" Learn.pp_failure failure)
    | Cq_core.Hardware.Failed { reason; _ } ->
        Alcotest.fail ("baseline failed: " ^ reason)
  in
  let total = base.Learn.member_queries in
  let rng = Random.State.make [| 0xDECAF |] in
  List.iter
    (fun trial ->
      with_temp (fun path ->
          let budget = 1 + Random.State.int rng (max 1 (total * 3 / 4)) in
          let crash_run =
            Cq_core.Hardware.learn_set
              ~snapshot:(Learn.snapshot_policy ~every_queries:50 path)
              ~query_budget:budget (fresh ()) Cq_hwsim.Cpu_model.L1
          in
          let resume_from =
            match crash_run.Cq_core.Hardware.outcome with
            | Cq_core.Hardware.Partial
                {
                  failure = Learn.Budget_exhausted _;
                  snapshot = Some s;
                  _;
                } ->
                s
            | Cq_core.Hardware.Partial { failure; _ } ->
                Alcotest.fail
                  (Fmt.str "trial %d: unexpected failure %a" trial
                     Learn.pp_failure failure)
            | _ ->
                Alcotest.fail
                  (Printf.sprintf
                     "trial %d: budget %d (of %d) did not stop the run" trial
                     budget total)
          in
          let resume_run =
            Cq_core.Hardware.learn_set ~resume:resume_from
              (fresh ()) Cq_hwsim.Cpu_model.L1
          in
          match resume_run.Cq_core.Hardware.outcome with
          | Cq_core.Hardware.Learned { report; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "trial %d: same state count" trial)
                base.Learn.states report.Learn.states;
              Alcotest.(check bool)
                (Printf.sprintf "trial %d: identical automaton" trial)
                true
                (same_machine base.Learn.machine report.Learn.machine)
          | Cq_core.Hardware.Partial { failure; _ } ->
              Alcotest.fail
                (Fmt.str "trial %d: resume partial: %a" trial Learn.pp_failure
                   failure)
          | Cq_core.Hardware.Failed { reason; _ } ->
              Alcotest.fail
                (Printf.sprintf "trial %d: resume failed: %s" trial reason)))
    [ 1; 2 ]

(* --- Quotient learn: budget stop + resume ---------------------------------- *)

(* A quotient learn of Haswell L1 stopped by its query budget and resumed
   from the snapshot ends with the uninterrupted run's automaton, and the
   two legs together issue exactly its membership queries.  Answers the
   device measured speculatively for the conformance suite
   (Moracle.prefetch) must never reach the snapshot: a resumed run would
   then answer them from the trie, and the two legs would undercount. *)
let test_quotient_budget_resume () =
  let learn ?snapshot ?query_budget ?resume () =
    Cq_core.Hardware.learn_set ~quotient:true ?snapshot
      ?query_budget ?resume
      (Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise
         Cq_hwsim.Cpu_model.haswell)
      Cq_hwsim.Cpu_model.L1
  in
  let learned (run : Cq_core.Hardware.run) =
    match run.Cq_core.Hardware.outcome with
    | Cq_core.Hardware.Learned { report; _ } -> report
    | o -> Alcotest.fail (Fmt.str "not learned: %a" Cq_core.Hardware.pp_outcome o)
  in
  let baseline = learned (learn ()) in
  let total = baseline.Learn.member_queries in
  with_temp (fun path ->
      let budget = total / 2 in
      let crash_run =
        learn
          ~snapshot:(Learn.snapshot_policy ~every_queries:25 path)
          ~query_budget:budget ()
      in
      let crashed =
        match crash_run.Cq_core.Hardware.outcome with
        | Cq_core.Hardware.Partial
            { failure = Learn.Budget_exhausted _; member_queries; _ } ->
            member_queries
        | o ->
            Alcotest.fail
              (Fmt.str "budget %d (of %d): %a" budget total
                 Cq_core.Hardware.pp_outcome o)
      in
      let resumed = learned (learn ~resume:path ()) in
      Alcotest.(check bool)
        "same canonical automaton" true
        (Cq_automata.Mealy.isomorphic baseline.Learn.machine
           resumed.Learn.machine);
      Alcotest.(check int) "member queries add up" total
        (crashed + resumed.Learn.member_queries))

(* --- Append-only log --------------------------------------------------------- *)

let file_size path = (Unix.stat path).Unix.st_size

(* Outputs of a word under a fresh trie preloaded from [snap]; [None] when
   the snapshot does not know the word (the backing oracle refuses). *)
let known (snap : int Session.snapshot) word =
  let refuse = Moracle.make ~n_inputs:4 (fun _ -> raise Not_found) in
  let cached, handle = Moracle.cached_session refuse in
  handle.Moracle.preload snap.Session.knowledge;
  try Some (cached.Moracle.query word) with Not_found -> None

(* A journaled session over a prefix-closed oracle whose answers shift
   with [offset] (a changed answer stands in for a measurement repaired
   by [refresh]). *)
let journaled offset =
  Moracle.cached_session ~journal:true
    (Moracle.make ~n_inputs:4 (fun w -> List.map (fun i -> (10 * i) + !offset) w))

let base_of handle ~queries =
  {
    Session.meta = Session.make_meta ~label:"log" ~seed:7 ~queries ();
    knowledge = handle.Moracle.export ();
    table = None;
  }

let w1 = [ 0; 1; 2 ] and w2 = [ 3; 0; 1; 0 ] and w3 = [ 1; 1; 2; 3; 0 ]

(* base (w1) | record 1: w2, 20 queries | record 2: w3, 30 queries *)
let write_three_part path =
  let cached, handle = journaled (ref 0) in
  ignore (cached.Moracle.query w1);
  ignore (handle.Moracle.drain ());
  let base_bytes = Session.write_base ~path (base_of handle ~queries:10) in
  Alcotest.(check int) "base bytes" base_bytes (file_size path);
  ignore (cached.Moracle.query w2);
  let r1 = Session.append ~path ~queries:20 (handle.Moracle.drain ()) in
  Alcotest.(check int) "record bytes" (base_bytes + r1) (file_size path);
  ignore (cached.Moracle.query w3);
  ignore (Session.append ~path ~queries:30 (handle.Moracle.drain ()));
  (base_bytes, base_bytes + r1, file_size path)

let test_log_meta_from_last_record () =
  with_temp (fun path ->
      ignore (write_three_part path);
      let snap : int Session.snapshot = Session.load ~path in
      Alcotest.(check int) "queries of the last record" 30
        snap.Session.meta.Session.queries;
      Alcotest.(check string) "label of the base" "log"
        snap.Session.meta.Session.label;
      Alcotest.(check (option int)) "seed of the base" (Some 7)
        snap.Session.meta.Session.seed;
      List.iter
        (fun w ->
          Alcotest.(check (option (list int)))
            "every logged answer is known"
            (Some (List.map (fun i -> 10 * i) w))
            (known snap w))
        [ w1; w2; w3 ])

let test_log_torn_tail () =
  with_temp (fun path ->
      let _, end1, end2 = write_three_part path in
      let good = read_file path in
      (* A crash mid-append leaves any prefix of the last record: each
         loads to the state at the previous record. *)
      List.iter
        (fun cut ->
          write_file path (String.sub good 0 cut);
          let snap : int Session.snapshot = Session.load ~path in
          let label = Printf.sprintf "cut at %d" cut in
          Alcotest.(check int) (label ^ ": queries") 20
            snap.Session.meta.Session.queries;
          Alcotest.(check bool) (label ^ ": record 1 kept") true
            (known snap w2 <> None);
          Alcotest.(check bool) (label ^ ": record 2 dropped") true
            (known snap w3 = None))
        [ end1 + 1; end1 + 8; end1 + 24; end1 + 30; end2 - 1 ];
      (* A damaged last record of full length is a torn tail too. *)
      let last = Bytes.of_string good in
      Bytes.set last (end2 - 2) (Char.chr (Char.code good.[end2 - 2] lxor 0x10));
      write_file path (Bytes.to_string last);
      let snap : int Session.snapshot = Session.load ~path in
      Alcotest.(check int) "damaged last record dropped" 20
        snap.Session.meta.Session.queries)

let test_log_middle_damage () =
  with_temp (fun path ->
      let end0, end1, _ = write_three_part path in
      let good = read_file path in
      let flip i =
        let b = Bytes.of_string good in
        Bytes.set b i (Char.chr (Char.code good.[i] lxor 0x40));
        write_file path (Bytes.to_string b)
      in
      (* payload, digest and length of record 1, with record 2 behind it *)
      flip (end1 - 3);
      expect_corrupt "record payload bit-flip" path;
      flip (end0 + 10);
      expect_corrupt "record digest bit-flip" path;
      flip (end0 + 1);
      expect_corrupt "record length bit-flip" path;
      (* A base truncated mid-payload stays Corrupt with records behind. *)
      write_file path (String.sub good 0 (end0 - 5));
      expect_corrupt "base truncated mid-payload" path)

let test_log_replays_overwrites () =
  with_temp (fun path ->
      let offset = ref 0 in
      let cached, handle = journaled offset in
      ignore (cached.Moracle.query w2);
      ignore (handle.Moracle.drain ());
      Session.save ~path (base_of handle ~queries:1);
      (* The measurement of w2 is repaired after the base: [refresh]
         overwrites the trie path, and the record must carry the overwrite
         so that replaying it in order beats the base's stale answer. *)
      offset := 1;
      let fresh = handle.Moracle.refresh w2 in
      Alcotest.(check (list int)) "refresh answers anew" [ 31; 1; 11; 1 ] fresh;
      ignore (cached.Moracle.query w1);
      let entries = handle.Moracle.drain () in
      Alcotest.(check int) "journal: overwrite then insert" 2
        (Moracle.knowledge_size entries);
      ignore (Session.append ~path ~queries:3 entries);
      let snap : int Session.snapshot = Session.load ~path in
      Alcotest.(check (option (list int))) "overwrite replayed" (Some fresh)
        (known snap w2);
      Alcotest.(check (option (list int)))
        "later insert replayed" (Some [ 1; 11; 21 ]) (known snap w1);
      Alcotest.(check int) "nothing left to drain" 0
        (Moracle.knowledge_size (handle.Moracle.drain ())))

let test_journal_off_by_default () =
  let cached, handle =
    Moracle.cached_session (Moracle.make ~n_inputs:4 (List.map Fun.id))
  in
  ignore (cached.Moracle.query w3);
  ignore (handle.Moracle.refresh w1);
  Alcotest.(check int) "no journal without ~journal:true" 0
    (Moracle.knowledge_size (handle.Moracle.drain ()))

(* Any interleaving of inserts, overwrites ([refresh] of a word whose
   answer moved), self-preloads and writes: the last base export plus the
   records drained after it rebuild the writer's trie — every word the
   writer learned is answered identically, and the rebuilt trie has the
   writer's maximal paths. *)
let prop_log_rebuilds_trie =
  let word = QCheck.Gen.(list_size (int_range 0 5) (int_bound 3)) in
  let step = QCheck.Gen.(pair (int_bound 4) word) in
  QCheck.Test.make ~count:300 ~name:"log: base + drained records rebuild the trie"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) step))
    (fun steps ->
      let offset = ref 0 in
      let cached, handle = journaled offset in
      let base = ref (handle.Moracle.export ()) and records = ref [] in
      let words = ref [] in
      List.iter
        (fun (kind, w) ->
          match kind with
          | 0 -> (
              match cached.Moracle.query w with
              | _ -> words := w :: !words
              | exception Moracle.Inconsistent _ -> ())
          | 1 ->
              incr offset;
              ignore (handle.Moracle.refresh w);
              words := w :: !words
          | 2 ->
              ignore (handle.Moracle.drain ());
              base := handle.Moracle.export ();
              records := []
          | 3 -> handle.Moracle.preload (handle.Moracle.export ())
          | _ -> records := handle.Moracle.drain () :: !records)
        steps;
      records := handle.Moracle.drain () :: !records;
      let reloaded, rhandle =
        Moracle.cached_session (Moracle.make ~n_inputs:4 (fun _ -> raise Not_found))
      in
      rhandle.Moracle.preload
        (Moracle.knowledge_concat (!base :: List.rev !records));
      Moracle.knowledge_size (rhandle.Moracle.export ())
      = Moracle.knowledge_size (handle.Moracle.export ())
      && List.for_all
           (fun w -> reloaded.Moracle.query w = cached.Moracle.query w)
           !words)

(* A killed PLRU-4 learn snapshotting every 25 queries, with its write
   counters: (bases, appends). *)
let plru4 () = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:4

let crash_plru4 ?resume ~kill_at path =
  let metrics = Cq_util.Metrics.create () in
  (match
     Learn.learn_simulated ~identify:false ~metrics ?resume
       ~snapshot:(Learn.snapshot_policy ~every_queries:25 path)
       ~probe:(fun q -> if q >= kill_at then raise Exit)
       (plru4 ())
   with
  | _ -> Alcotest.fail (Printf.sprintf "kill at %d did not stop the run" kill_at)
  | exception Exit -> ());
  let c name = Cq_util.Metrics.value (Cq_util.Metrics.counter metrics name) in
  (c "learn.snapshot_bases", c "learn.snapshot_appends")

let check_resumes_identical label baseline path =
  let resumed = Learn.learn_simulated ~identify:false ~resume:path (plru4 ()) in
  Alcotest.(check bool) (label ^ ": identical automaton") true
    (same_machine baseline.Learn.machine resumed.Learn.machine);
  resumed

(* Kill points inside the log: after at least one append (no compaction
   yet) and after at least one compaction; each resumes to the identical
   automaton. *)
let test_kill_in_log_resume () =
  let baseline = Learn.learn_simulated ~identify:false (plru4 ()) in
  let total = baseline.Learn.member_queries in
  let after_append = ref false and after_compaction = ref false in
  List.iter
    (fun kill_at ->
      with_temp (fun path ->
          let bases, appends = crash_plru4 ~kill_at path in
          if appends >= 1 && bases = 1 then after_append := true;
          if bases >= 2 then after_compaction := true;
          ignore
            (check_resumes_identical
               (Printf.sprintf "kill at %d/%d (%d bases, %d appends)" kill_at
                  total bases appends)
               baseline path)))
    [ 30; 60; total / 2; total - 5 ];
  Alcotest.(check bool) "a kill landed after an append" true !after_append;
  Alcotest.(check bool) "a kill landed after a compaction" true
    !after_compaction

(* A torn final record resumes to the identical automaton, and so does a
   run that re-resumes after its resumed run was killed too. *)
let test_torn_tail_resume () =
  let baseline = Learn.learn_simulated ~identify:false (plru4 ()) in
  let total = baseline.Learn.member_queries in
  with_temp (fun path ->
      let _, appends = crash_plru4 ~kill_at:(total * 2 / 3) path in
      Alcotest.(check bool) "the crashed run appended" true (appends >= 1);
      let good = read_file path in
      let full : Cq_policy.Types.output Session.snapshot = Session.load ~path in
      write_file path (String.sub good 0 (String.length good - 1));
      let torn : Cq_policy.Types.output Session.snapshot = Session.load ~path in
      Alcotest.(check bool) "torn tail loads to the previous record" true
        (torn.Session.meta.Session.queries < full.Session.meta.Session.queries);
      let torn_bytes = read_file path in
      let resumed = check_resumes_identical "torn tail" baseline path in
      (* Re-resume: a resumed run killed half-way writes a fresh base over
         the torn file, then appends; the next resume still matches. *)
      write_file path torn_bytes;
      let kill_at = max 1 (resumed.Learn.member_queries / 2) in
      ignore (crash_plru4 ~resume:path ~kill_at path);
      ignore (check_resumes_identical "re-resumed" baseline path))

(* A failed append (ENOSPC half-way, or EIO at fsync) degrades the
   session, and the answers it carried are in no record: the next write
   must be a full base.  A run killed soon after a failed append must
   leave a file holding the same answers as a fault-free run killed at
   the same query count. *)
let test_failed_append_rewrites_base () =
  let killed ?faults ~kill_at path =
    let degraded = ref None and stopped = ref 0 in
    let snapshot =
      Learn.snapshot_policy ~every_queries:25
        ~on_degraded:(fun _ ->
          if !degraded = None then degraded := Some !stopped)
        path
    in
    let probe q =
      stopped := q;
      match (kill_at, !degraded) with
      | Some k, _ when q >= k -> raise Exit
      | None, Some d when q >= d + 10 -> raise Exit
      | _ -> ()
    in
    let run () =
      match Learn.learn_simulated ~identify:false ~snapshot ~probe (plru4 ()) with
      | _ -> Alcotest.fail "the probe did not stop the run"
      | exception Exit -> ()
    in
    (match faults with
    | None -> run ()
    | Some spec -> (
        match Cq_util.Faults.of_spec ~seed:1 spec with
        | Ok t -> Cq_util.Faults.with_ambient t run
        | Error msg -> Alcotest.fail msg));
    (!degraded, !stopped)
  in
  let resume path =
    Learn.learn_simulated ~identify:false ~resume:path (plru4 ())
  in
  List.iter
    (fun spec ->
      with_temp (fun faulty ->
          with_temp (fun clean ->
              let degraded, kill_at = killed ~faults:spec ~kill_at:None faulty in
              Alcotest.(check bool) (spec ^ ": the failed append degraded")
                true (degraded <> None);
              ignore (killed ~kill_at:(Some kill_at) clean);
              let ra = resume clean and rb = resume faulty in
              Alcotest.(check int)
                (spec ^ ": same fresh queries after resume")
                ra.Learn.member_queries rb.Learn.member_queries;
              Alcotest.(check bool) (spec ^ ": identical automaton") true
                (same_machine ra.Learn.machine rb.Learn.machine))))
    [ "atomic_file.append:nth=1,limit=1"; "atomic_file.append_fsync:nth=2,limit=1" ]

(* --- Failure taxonomy ------------------------------------------------------ *)

let test_exit_codes () =
  let d =
    {
      Cq_learner.Lstar.reason = "r";
      states = 1;
      queries = 2;
      elapsed = 0.1;
    }
  in
  List.iter
    (fun (failure, code) ->
      Alcotest.(check int) "exit code" code (Learn.failure_exit_code failure))
    [
      (Learn.Transient "t", 10);
      (Learn.Diverged d, 11);
      (Learn.Budget_exhausted "b", 12);
      (Learn.Invalid "i", 14);
    ]

(* Deadline supervision converts a runaway run into Budget_exhausted with a
   snapshot, instead of an open-ended hang. *)
let test_deadline_trips () =
  with_temp (fun path ->
      let policy = Cq_policy.Zoo.make_exn ~name:"PLRU" ~assoc:8 in
      match
        Learn.run ~identify:false
          ~snapshot:(Learn.snapshot_policy ~every_queries:10 path)
          ~deadline:(Cq_util.Clock.after 0.0)
          (Cq_cache.Oracle.of_policy policy)
      with
      | Learn.Complete _ -> Alcotest.fail "a 0-second deadline never tripped"
      | Learn.Partial p -> (
          (match p.Learn.failure with
          | Learn.Budget_exhausted _ -> ()
          | f ->
              Alcotest.fail
                (Fmt.str "expected Budget_exhausted, got %a" Learn.pp_failure f));
          match p.Learn.snapshot with
          | Some s -> Alcotest.(check bool) "snapshot exists" true (Sys.file_exists s)
          | None -> Alcotest.fail "no final snapshot on the way down"))

let suite =
  ( "session",
    [
      Alcotest.test_case "snapshot round-trip" `Quick test_roundtrip;
      Alcotest.test_case "load_opt on missing file" `Quick test_load_opt_missing;
      Alcotest.test_case "rejects damaged snapshots" `Quick test_rejects_damage;
      Alcotest.test_case "probe crash + resume (simulated)" `Quick
        test_probe_crash_resume_simulated;
      Alcotest.test_case "kill + resume (Haswell L1)" `Quick
        test_kill_resume_hardware;
      Alcotest.test_case "quotient budget stop + resume (Haswell L1)" `Quick
        test_quotient_budget_resume;
      Alcotest.test_case "log: meta.queries from the last record" `Quick
        test_log_meta_from_last_record;
      Alcotest.test_case "log: torn final record is dropped" `Quick
        test_log_torn_tail;
      Alcotest.test_case "log: damaged middle record is Corrupt" `Quick
        test_log_middle_damage;
      Alcotest.test_case "log: refresh overwrite replayed in order" `Quick
        test_log_replays_overwrites;
      Alcotest.test_case "log: no journal without a snapshot policy" `Quick
        test_journal_off_by_default;
      QCheck_alcotest.to_alcotest prop_log_rebuilds_trie;
      Alcotest.test_case "kill inside the log + resume (simulated)" `Quick
        test_kill_in_log_resume;
      Alcotest.test_case "torn tail + resume + re-resume (simulated)" `Quick
        test_torn_tail_resume;
      Alcotest.test_case "failed append degrades, next write is a base"
        `Quick test_failed_append_rewrites_base;
      Alcotest.test_case "failure exit codes" `Quick test_exit_codes;
      Alcotest.test_case "deadline trips to Partial" `Quick test_deadline_trips;
    ] )
