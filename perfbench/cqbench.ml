(* Repository benchmark program: runs one workload in a fresh process and
   prints one JSON result object as the last line of standard output.

     cqbench.exe --workload hw-durable|sim-table2|serve --seed N
                 --seconds S --trace 0|1 --tmp DIR [--daemon PATH]

   Workloads (see perfbench/LAYERS.md for the layer map):
   - hw-durable: Haswell i7-4790 L1 set 0 learned through
     [Hardware.learn_set] with default snapshots, stopped by a query
     budget at half the learn and resumed to completion on a fresh
     machine.  The seed drives reset discovery.
   - sim-table2: the paper's Table 2 campaign (rows of at most 300
     states), New1-4, New2-4 and a quotient PLRU-12, through
     [Learn.learn_simulated].  No random input; the seed is unused.
   - serve: the built cachequeryd driven through [Cq_service.Client] on
     one connection: sim queries, hw MBL queries and trace replays.  The
     seed drives the query words and the replay trace seeds.

   The work unit of a workload repeats until [--seconds] of measured time
   have passed (at least once); the run reports its fastest unit, at a
   nominal clock.  With [--trace 0] every metric is end to end, measured
   with tracing off.  With [--trace 1] the unit runs once untraced and
   once traced, and the run reports the per-layer split and the tracing
   overhead.  Every result is checked; exit status 1 when a check
   failed, 2 on bad usage.
   All files (snapshots, daemon socket and state) stay under [--tmp]. *)

module M = Cq_util.Metrics
module J = Cq_service.Json
module Client = Cq_service.Client

let mono = Cq_util.Clock.mono
let time = Cq_util.Clock.time

(* ---------- accounting ---------- *)

let attempted = ref 0
let failed = ref 0

(* One operation whose result was checked. *)
let op what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "cqbench: check failed: %s\n%!" what
  end

let results : (string * float * string) list ref = ref []
let emit name unit_ v = results := (name, v, unit_) :: !results

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result () =
  let metrics =
    List.rev_map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) u)
      !results
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed
    (String.concat ", " metrics)

let median = Cq_util.Stats.median
let percentile = Cq_util.Stats.percentile
let fastest = List.fold_left Float.min infinity

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* ---------- host clock ---------- *)

(* The benchmark host is a shared VM whose clock drifts by a tenth over
   minutes with its neighbours' load, and the times of identical runs
   drift with it.  A dependent chain of integer multiply-adds takes a
   fixed number of cycles whatever the memory system is doing, so its
   time measures the current clock.  The chain is timed between work
   units (never inside a timed region), and unit and daemon set-up times
   are reported at a nominal clock: measured time x [clock_nominal_s] /
   the run's median chain time.  On a host where the chain takes
   [clock_nominal_s] they are plain wall times. *)
let clock_nominal_s = 0.005

let clock_chain () =
  let x = ref 1 in
  for i = 1 to 3_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fff_ffff
  done;
  ignore (Sys.opaque_identity !x)

let clock_samples = ref []

(* Time the chain [n] times. *)
let probe_clock n =
  for _ = 1 to n do
    clock_samples := snd (time clock_chain) :: !clock_samples
  done

(* Measured seconds -> seconds at the nominal clock. *)
let at_nominal_clock s = s *. clock_nominal_s /. median !clock_samples

(* ---------- learn set-up ---------- *)

(* A learn workload's set-up (building its machines or policies) is a few
   microseconds of fresh allocation, and the host slows allocation by half
   and more for seconds at a time, far more than it slows the clock.  So
   the set-up is timed in batches, each right after a batch of a fixed
   allocation reference of about the same cost (no program code), and
   reported at the reference's nominal speed: [alloc_nominal_s] x the
   median ratio of a set-up batch to its reference batch.  On a host
   where the reference takes [alloc_nominal_s] it is the plain set-up
   time. *)
let alloc_nominal_s = 4e-6

let alloc_reference () =
  ignore
    (Sys.opaque_identity
       ( Array.init 3 (fun _ -> Array.make 1024 0),
         List.init 20 (fun i -> (i, ref i)) ))

(* Callers time it after their units, so that its garbage does not count
   in the first unit's peak RSS. *)
let learn_setup_s f =
  let batch g = snd (time (fun () -> for _ = 1 to 10 do g () done)) in
  alloc_nominal_s
  *. median
       (List.init 101 (fun _ ->
            let r = batch alloc_reference in
            batch f /. r))

(* The end-to-end metrics every workload reports (tracing off), from the
   set-up time and the time of one work unit, which completes [ops]
   operations.  The unit time is that of the run's fastest unit: the
   host's slow phases only add time, and they come and go within a run. *)
let emit_end_to_end ~setup_s ~peak_rss_mb ~work_s ~ops =
  Printf.eprintf
    "cqbench: unit %.4f s measured; clock chain %.6f s (median of %d)\n%!"
    work_s (median !clock_samples) (List.length !clock_samples);
  let work_s = at_nominal_clock work_s in
  emit "setup_s" "s" setup_s;
  emit "peak_rss_mb" "MB" peak_rss_mb;
  emit "work_s" "s" work_s;
  emit "ops_per_s" "1/s" (ops /. work_s)

(* Run [unit] at least once, and again while another unit of the same
   length still fits in [seconds] of measured time (the float [unit]
   returns); the measured times, in order.  The clock is probed before
   every unit and after the last; [after_first] runs after the first. *)
let repeat_for ?(after_first = ignore) seconds unit =
  let rec go acc total =
    probe_clock 10;
    let dt = unit () in
    if acc = [] then after_first ();
    Printf.eprintf "cqbench: unit %d: %.3f s\n%!" (List.length acc) dt;
    let acc = dt :: acc and total = total +. dt in
    if total +. dt > seconds then List.rev acc else go acc total
  in
  let times = go [] 0. in
  probe_clock 10;
  times

(* ---------- per-layer accounting (traced runs) ---------- *)

(* Every per-layer metric, in report order, with its unit.  A traced run
   reports all of them; a layer its workload never enters reads 0. *)
let layer_metrics =
  [
    ("timed_loads", "count");
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("mbl_p50_ms", "ms");
    ("replay_p50_ms", "ms");
    ("hwsim.loads", "count");
    ("backend.timed_loads", "count");
    ("backend.filter_loads", "count");
    ("device.s", "s");
    ("device.calls", "count");
    ("polca.s", "s");
    ("member.queries", "count");
    ("member.symbols", "count");
    ("cache.accesses", "count");
    ("cache.accesses_saved", "count");
    ("learner.s", "s");
    ("equivalence.s", "s");
    ("member.cache_hits", "count");
    ("quotient.alias_queries", "count");
    ("session.save_s", "s");
    ("session.export_s", "s");
    ("session.writes", "count");
    ("session.bytes", "bytes");
    ("session.load_s", "s");
    ("reset.s", "s");
    ("service.request_s", "s");
    ("service.gate_wait_s", "s");
    ("service.requests", "count");
    ("service.transport_s", "s");
    ("service.query_span_s", "s");
    ("service.replay_span_s", "s");
    ("workload.trace_s", "s");
    ("workload.compile_s", "s");
    ("workload.replay_s", "s");
    ("workload.opt_s", "s");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("trace.untraced_s", "s");
    ("trace.traced_s", "s");
    ("trace.overhead_s", "s");
    ("trace.dropped_events", "count");
    ("clock.chain_s", "s");
  ]

let layers : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  if not (List.mem_assoc name layer_metrics) then
    invalid_arg ("cqbench: unknown layer metric " ^ name);
  Hashtbl.replace layers name
    (v +. Option.value ~default:0. (Hashtbl.find_opt layers name))

let emit_layers () =
  probe_clock 10;
  add "clock.chain_s" (median !clock_samples);
  List.iter
    (fun (name, u) ->
      emit name u (Option.value ~default:0. (Hashtbl.find_opt layers name)))
    layer_metrics

(* Registry lookups by name: a histogram's count and sum, a counter's
   value (as its "count"). *)
let reg_count r name =
  match List.assoc_opt name (M.snapshot r) with
  | Some (M.Counter_value n) -> float_of_int n
  | Some (M.Histogram_value h) -> float_of_int h.M.hs_count
  | _ -> 0.

let reg_sum r name =
  match List.assoc_opt name (M.snapshot r) with
  | Some (M.Histogram_value h) -> h.M.hs_sum
  | _ -> 0.

(* Span totals of the trace ring since the last [Trace.clear]: seconds
   per span name, and the bytes the session layer wrote. *)
type spans = { span_s : string -> float; saved_bytes : float }

let collect_spans () =
  let tbl = Hashtbl.create 16 and bytes = ref 0. in
  List.iter
    (fun (ev : Cq_util.Trace.event) ->
      if ev.kind = Cq_util.Trace.Span then begin
        let s = Option.value ~default:0. (Hashtbl.find_opt tbl ev.name) in
        Hashtbl.replace tbl ev.name (s +. (ev.dur_us /. 1e6));
        if ev.name = "session.save" then
          match List.assoc_opt "bytes" ev.args with
          | Some b -> bytes := !bytes +. float_of_string b
          | None -> ()
      end)
    (Cq_util.Trace.events ());
  add "trace.dropped_events" (float_of_int (Cq_util.Trace.dropped ()));
  Cq_util.Trace.clear ();
  {
    span_s = (fun n -> Option.value ~default:0. (Hashtbl.find_opt tbl n));
    saved_bytes = !bytes;
  }

(* The learner-side layers of one learn: its metrics registry, its spans
   and the device time measured under it. *)
let add_learn_layers registry spans ~device_s =
  let c name = reg_count registry name in
  add "member.queries" (c "member.queries");
  add "member.symbols" (c "member.symbols");
  add "member.cache_hits" (c "member.cache_hits");
  add "cache.accesses" (c "oracle.block_accesses");
  add "cache.accesses_saved" (c "oracle.accesses_saved");
  let member_s = reg_sum registry "member.latency_seconds" in
  let write_s = spans.span_s "learn.snapshot.write" in
  let save_s = reg_sum registry "learn.snapshot_write_seconds" in
  add "polca.s" (member_s -. device_s);
  add "learner.s" (spans.span_s "learn.run" -. member_s -. write_s);
  add "equivalence.s" (spans.span_s "learn.equivalence");
  add "session.save_s" save_s;
  add "session.export_s" (write_s -. save_s);
  add "session.writes" (c "learn.snapshot_write_seconds");
  add "session.bytes" spans.saved_bytes;
  add "session.load_s" (reg_sum registry "learn.snapshot_replay_seconds")

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  add "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  add "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  r

let with_tracing f =
  Cq_util.Trace.enable ~capacity:(1 lsl 20) ();
  Fun.protect ~finally:Cq_util.Trace.disable f

let report_overhead ~untraced ~traced =
  add "trace.untraced_s" untraced;
  add "trace.traced_s" traced;
  add "trace.overhead_s" (traced -. untraced)

(* Device time: the closures of a cache oracle wrapped in a timer —
   queries, batches, and the batch primitives including the restore thunk
   a checkpoint returns. *)
type device_timer = { mutable dev_s : float; mutable dev_calls : int }

let timed d f x =
  let t0 = mono () in
  let account () =
    d.dev_s <- d.dev_s +. (mono () -. t0);
    d.dev_calls <- d.dev_calls + 1
  in
  match f x with
  | r ->
      account ();
      r
  | exception e ->
      account ();
      raise e

let wrap_oracle d (o : Cq_cache.Oracle.t) =
  let ops =
    Option.map
      (fun (ops : _ Cq_cache.Batch.ops) ->
        {
          Cq_cache.Batch.reset = timed d ops.reset;
          access = timed d ops.access;
          checkpoint = (fun () -> timed d (timed d ops.checkpoint ()));
        })
      o.Cq_cache.Oracle.ops
  in
  {
    o with
    Cq_cache.Oracle.query = timed d o.Cq_cache.Oracle.query;
    query_batch = timed d o.Cq_cache.Oracle.query_batch;
    ops;
  }

(* ---------- hw-durable ---------- *)

let haswell = Cq_hwsim.Cpu_model.haswell
let l1 = Cq_hwsim.Cpu_model.L1

(* Half of the 75,942 hardware queries of an uninterrupted learn. *)
let hw_budget = 37_971

let quiet_machine () =
  Cq_hwsim.Machine.create ~noise:Cq_hwsim.Machine.quiet_noise haswell

type hw_counts = { timed_loads : int; queries : int }

let check_phase1 ~queries (o : Cq_core.Hardware.outcome) =
  match o with
  | Cq_core.Hardware.Partial
      {
        failure = Cq_core.Learn.Budget_exhausted _;
        snapshot = Some _;
        member_queries;
        _;
      } ->
      op "hw-durable phase 1 ends Partial Budget_exhausted with a snapshot"
        true;
      queries := !queries + member_queries
  | o ->
      op
        (Fmt.str "hw-durable phase 1 ends Partial Budget_exhausted: got %a"
           Cq_core.Hardware.pp_outcome o)
        false

let check_phase2 ~queries (o : Cq_core.Hardware.outcome) =
  match o with
  | Cq_core.Hardware.Learned { report; _ } ->
      queries := !queries + report.Cq_core.Learn.member_queries;
      op
        (Printf.sprintf
           "hw-durable resume learns PLRU with 128 states: got %d states, %s"
           report.Cq_core.Learn.states
           (String.concat "," report.Cq_core.Learn.identified))
        (report.Cq_core.Learn.states = 128
        && List.mem "PLRU" report.Cq_core.Learn.identified)
  | o ->
      op
        (Fmt.str "hw-durable phase 2 learns: got %a" Cq_core.Hardware.pp_outcome
           o)
        false

(* One crash-and-resume learn through the public entry point; returns
   its learn time and counts. *)
let hw_unit ~seed ~snap (m1, m2) =
  remove_if_exists snap;
  let policy = Cq_core.Learn.snapshot_policy snap in
  let queries = ref 0 in
  let r1, t1 =
    time (fun () ->
        Cq_core.Hardware.learn_set ~seed ~check_hits:false ~snapshot:policy
          ~query_budget:hw_budget m1 l1)
  in
  check_phase1 ~queries r1.Cq_core.Hardware.outcome;
  probe_clock 10;
  let r2, t2 =
    time (fun () ->
        Cq_core.Hardware.learn_set ~seed ~check_hits:false ~snapshot:policy
          ~resume:snap m2 l1)
  in
  check_phase2 ~queries r2.Cq_core.Hardware.outcome;
  remove_if_exists snap;
  ( t1 +. t2,
    {
      timed_loads = r1.Cq_core.Hardware.timed_loads + r2.Cq_core.Hardware.timed_loads;
      queries = !queries;
    } )

(* The traced twin of one [learn_set] phase: [learn_set] builds its
   oracle internally, so this drives the same public pieces in the same
   order, with the frontend's oracle wrapped in a device timer. *)
let hw_traced_phase ~seed ?resume ?query_budget ~snap machine =
  let registry = M.create () in
  let meta =
    Option.map
      (fun path ->
        let snap, dt =
          time (fun () ->
              (Cq_core.Session.load ~path
                : Cq_policy.Types.output Cq_core.Session.snapshot))
        in
        add "session.load_s" dt;
        snap.Cq_core.Session.meta)
      resume
  in
  let seed =
    match meta with
    | Some { Cq_core.Session.seed = Some s; _ } -> s
    | _ -> seed
  in
  let backend =
    Cq_cachequery.Backend.create ~metrics:registry machine
      { Cq_cachequery.Backend.level = l1; slice = 0; set = 0 }
  in
  (match meta with
  | Some { Cq_core.Session.calibration = Some cal; _ } ->
      Cq_cachequery.Backend.restore_calibration backend cal
  | _ -> ignore (Cq_cachequery.Backend.calibrate backend));
  let frontend = Cq_cachequery.Frontend.create ~metrics:registry backend in
  let reset, reset_s =
    time (fun () ->
        Cq_core.Reset.find ~trials:24 ~prng:(Cq_util.Prng.of_int seed) frontend)
  in
  add "reset.s" reset_s;
  if reset = None then failwith "hw-durable traced: no reset sequence found";
  let on_retry _ =
    Cq_cachequery.Frontend.clear_memo frontend;
    Cq_cachequery.Frontend.set_voting frontend
      (Cq_cachequery.Frontend.Adaptive { max = 3 })
  in
  let snapshot_meta () =
    Cq_core.Session.make_meta ~label:"hw-durable" ~seed
      ~calibration:(Cq_cachequery.Backend.calibration backend)
      ~queries:0 ()
  in
  let dev = { dev_s = 0.; dev_calls = 0 } in
  let outcome =
    Cq_core.Learn.run ~check_hits:false ~memoize:false ~max_states:100_000
      ~retries:3 ~on_retry
      ~device_stats:(Cq_cachequery.Frontend.stats frontend)
      ~metrics:registry
      ~snapshot:(Cq_core.Learn.snapshot_policy snap)
      ?resume ~snapshot_meta ?query_budget
      (wrap_oracle dev (Cq_cachequery.Frontend.oracle frontend))
  in
  add_learn_layers registry (collect_spans ()) ~device_s:dev.dev_s;
  add "device.s" dev.dev_s;
  add "device.calls" (float_of_int dev.dev_calls);
  add "hwsim.loads" (float_of_int (Cq_hwsim.Machine.loads machine));
  add "backend.timed_loads"
    (float_of_int (Cq_cachequery.Backend.timed_loads backend));
  add "backend.filter_loads"
    (float_of_int (Cq_cachequery.Backend.filter_loads backend));
  (outcome, Cq_cachequery.Backend.timed_loads backend,
   int_of_float (reg_count registry "member.queries"))

let hw_durable ~seed ~seconds ~trace =
  let snap = "hw-durable.snap" in
  if not trace then begin
    let counts = ref None and rss = ref 0. in
    let times =
      repeat_for
        ~after_first:(fun () -> rss := peak_rss_mb "self")
        seconds
        (fun () ->
          let machines = (quiet_machine (), quiet_machine ()) in
          let dt, c = hw_unit ~seed ~snap machines in
          (match !counts with
          | None -> counts := Some c
          | Some c0 ->
              op "hw-durable counts repeat exactly across units" (c = c0));
          dt)
    in
    let c = Option.get !counts in
    let setup_s =
      learn_setup_s (fun () ->
          ignore (Sys.opaque_identity (quiet_machine (), quiet_machine ())))
    in
    emit_end_to_end ~setup_s ~peak_rss_mb:!rss ~work_s:(fastest times)
      ~ops:(float_of_int c.queries)
  end
  else begin
    let untraced_s, c = hw_unit ~seed ~snap (quiet_machine (), quiet_machine ()) in
    let m1 = quiet_machine () and m2 = quiet_machine () in
    remove_if_exists snap;
    let (loads, queries), traced_s =
      time (fun () ->
          gc_delta (fun () ->
              with_tracing (fun () ->
                  let o1, l1, q1 =
                    hw_traced_phase ~seed ~query_budget:hw_budget ~snap m1
                  in
                  (match o1 with
                  | Cq_core.Learn.Partial
                      { failure = Cq_core.Learn.Budget_exhausted _; _ } ->
                      op "hw-durable traced phase 1 exhausts its budget" true
                  | _ -> op "hw-durable traced phase 1 exhausts its budget" false);
                  let o2, l2, q2 = hw_traced_phase ~seed ~resume:snap ~snap m2 in
                  (match o2 with
                  | Cq_core.Learn.Complete r ->
                      op "hw-durable traced resume learns PLRU with 128 states"
                        (r.Cq_core.Learn.states = 128
                        && List.mem "PLRU" r.Cq_core.Learn.identified)
                  | Cq_core.Learn.Partial _ ->
                      op "hw-durable traced resume learns PLRU with 128 states"
                        false);
                  (l1 + l2, q1 + q2))))
    in
    remove_if_exists snap;
    op
      (Printf.sprintf
         "traced hw-durable reproduces the untraced counts: timed loads %d vs \
          %d, queries %d vs %d"
         loads c.timed_loads queries c.queries)
      (loads = c.timed_loads && queries = c.queries);
    add "timed_loads" (float_of_int c.timed_loads);
    report_overhead ~untraced:untraced_s ~traced:traced_s;
    emit_layers ()
  end

(* ---------- sim-table2 ---------- *)

(* (policy, assoc, expected states, quotient): every Table 2 row with at
   most 300 states, New1-4 and New2-4 (Table 4), and PLRU-12 learned in
   symmetry-quotient mode. *)
let table2_rows =
  [
    ("FIFO", 2, 2, false); ("FIFO", 4, 4, false); ("FIFO", 6, 6, false);
    ("FIFO", 8, 8, false); ("FIFO", 10, 10, false); ("FIFO", 12, 12, false);
    ("FIFO", 14, 14, false); ("FIFO", 16, 16, false);
    ("LRU", 2, 2, false); ("LRU", 4, 24, false);
    ("PLRU", 2, 2, false); ("PLRU", 4, 8, false); ("PLRU", 8, 128, false);
    ("MRU", 2, 2, false); ("MRU", 4, 14, false); ("MRU", 6, 62, false);
    ("MRU", 8, 254, false);
    ("LIP", 2, 2, false); ("LIP", 4, 24, false);
    ("SRRIP-HP", 2, 12, false); ("SRRIP-HP", 4, 178, false);
    ("SRRIP-FP", 2, 16, false); ("SRRIP-FP", 4, 256, false);
    ("New1", 4, 160, false); ("New2", 4, 175, false);
    ("PLRU", 12, 2048, true);
  ]

let make_policies () =
  List.map
    (fun (name, assoc, _, _) -> Cq_policy.Zoo.make_exn ~name ~assoc)
    table2_rows

let check_learn (name, assoc, states, _) policy (r : Cq_core.Learn.report) =
  op
    (Printf.sprintf "%s-%d learns %d states and matches ground truth (got %d)"
       name assoc states r.Cq_core.Learn.states)
    (r.Cq_core.Learn.states = states && Cq_core.Learn.verify_against r policy)

(* One campaign: learn every row in order; returns the learn time and
   the report of each row.  [traced] gives each learn its own metrics
   registry and folds it, with the learn's spans, into the layers. *)
let sim_unit ?(traced = false) policies =
  let learned =
    List.map2
      (fun ((_, _, _, quotient) as row) policy ->
        let learn ?metrics () =
          Cq_core.Learn.learn_simulated ~identify:false ~quotient ?metrics
            policy
        in
        probe_clock 1;
        let r, dt =
          if not traced then time (fun () -> learn ())
          else begin
            let registry = M.create () in
            let r, dt =
              gc_delta (fun () -> time (fun () -> learn ~metrics:registry ()))
            in
            add_learn_layers registry (collect_spans ()) ~device_s:0.;
            (r, dt)
          end
        in
        (row, policy, r, dt))
      table2_rows policies
  in
  List.iter (fun (row, policy, r, _) -> check_learn row policy r) learned;
  ( List.map (fun (_, _, _, dt) -> dt) learned,
    List.map (fun (_, _, r, _) -> r) learned )

let sum = List.fold_left ( +. ) 0.

let sim_table2 ~seconds ~trace =
  let policies = make_policies () in
  let queries rs =
    List.map (fun (r : Cq_core.Learn.report) -> r.member_queries) rs
  in
  if not trace then begin
    let counts = ref None and rss = ref 0. in
    let times =
      repeat_for
        ~after_first:(fun () -> rss := peak_rss_mb "self")
        seconds
        (fun () ->
          let dts, rs = sim_unit policies in
          (match !counts with
          | None -> counts := Some (queries rs)
          | Some q0 ->
              op "sim-table2 query counts repeat exactly across units"
                (queries rs = q0));
          sum dts)
    in
    let queries = List.fold_left ( + ) 0 (Option.get !counts) in
    let setup_s =
      learn_setup_s (fun () -> ignore (Sys.opaque_identity (make_policies ())))
    in
    emit_end_to_end ~setup_s ~peak_rss_mb:!rss ~work_s:(fastest times)
      ~ops:(float_of_int queries)
  end
  else begin
    let untraced, rs0 = sim_unit policies in
    let traced, rs =
      with_tracing (fun () -> sim_unit ~traced:true policies)
    in
    List.iter
      (fun r ->
        match r.Cq_core.Learn.quotient with
        | Some q ->
            add "quotient.alias_queries"
              (float_of_int q.Cq_learner.Quotient.alias_queries)
        | None -> ())
      rs;
    op "traced sim-table2 reproduces the untraced query counts"
      (queries rs = queries rs0);
    report_overhead ~untraced:(sum untraced) ~traced:(sum traced);
    emit_layers ()
  end

(* ---------- serve ---------- *)

let rounds = 300
let sim_per_round = 40
let hw_per_round = 4
let word_len = 12
let mbl = "@ M _?"
let setup_reps = 9
let requests_per_unit = rounds * (sim_per_round + hw_per_round + 1)

type serve_inputs = { words : int list array; specs : string array }

let serve_inputs seed =
  let prng = Cq_util.Prng.of_int seed in
  let words =
    Array.init (rounds * sim_per_round) (fun _ ->
        List.init word_len (fun _ -> Cq_util.Prng.int prng 5))
  in
  let specs =
    Array.init rounds (fun _ ->
        Printf.sprintf "zipf:n=64,alpha=1.2,len=100000,seed=%d"
          (Cq_util.Prng.int prng 1_000_000_000))
  in
  { words; specs }

let lru4 () = Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:4

let outcome_label = function
  | Cq_cache.Cache_set.Hit -> "Hit"
  | Cq_cache.Cache_set.Miss -> "Miss"

(* An MBL reply in one comparable string: query => outcomes. *)
let mbl_of_results rs =
  String.concat "; "
    (List.map
       (fun (q, os) ->
         Cq_mbl.Expand.query_to_string q ^ " => "
         ^ String.concat " " (List.map outcome_label os))
       rs)

let mbl_of_reply doc =
  match J.mem_list "results" doc with
  | None -> "<no results>"
  | Some rs ->
      String.concat "; "
        (List.map
           (fun r ->
             Option.value ~default:"?" (J.mem_str "query" r)
             ^ " => "
             ^ String.concat " "
                 (List.map
                    (fun o -> Option.value ~default:"?" (J.to_str o))
                    (Option.value ~default:[] (J.mem_list "outcomes" r))))
           rs)

(* The in-process twin of the daemon's hw session: an identically seeded
   quiet Haswell machine behind a default frontend, fed the same MBL
   sequence. *)
let mbl_reference () =
  let machine =
    Cq_hwsim.Machine.create ~seed:42L ~noise:Cq_hwsim.Machine.quiet_noise
      haswell
  in
  let backend =
    Cq_cachequery.Backend.create machine
      { Cq_cachequery.Backend.level = l1; slice = 0; set = 0 }
  in
  ignore (Cq_cachequery.Backend.calibrate backend);
  let fe = Cq_cachequery.Frontend.create backend in
  fun () -> mbl_of_results (Cq_cachequery.Frontend.run_mbl fe mbl)

type daemon = { pid : int; client : Client.t; sim : int; hw : int }

let stop_daemon d =
  (try Client.shutdown d.client with _ -> ());
  (try Client.close d.client with _ -> ());
  let deadline = mono () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when mono () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Poll [f] every 0.5 ms until it returns [Some]; set-up only. *)
let poll ~what ~timeout f =
  let deadline = mono () +. timeout in
  let rec go () =
    match f () with
    | Some v -> v
    | None when mono () > deadline -> failwith ("serve set-up timed out: " ^ what)
    | None ->
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* Set-up of one daemon: spawn it, wait for the first ping, learn LRU-4
   in a sim session, open the hw session and calibrate it with one MBL
   query.  Returns the live daemon, its set-up time and the first MBL
   reply. *)
let start_daemon ~daemon ~dir ~args =
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = mono () in
  let pid =
    Unix.create_process daemon
      (Array.of_list
         ([ daemon; "--socket"; sock; "--state-dir"; Filename.concat dir "state" ]
         @ args))
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  match
    let client =
      poll ~what:"daemon socket" ~timeout:30. (fun () ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | p, _ when p = pid -> failwith "cachequeryd exited during set-up"
          | _ -> (
              match Client.connect_unix sock with
              | c -> (
                  match Client.ping c with
                  | _ -> Some c
                  | exception _ ->
                      Client.close c;
                      None)
              | exception _ -> None))
    in
    let sim = Client.create_sim client ~policy:"LRU" ~assoc:4 () in
    Client.learn_start client sim;
    let st =
      poll ~what:"LRU-4 learn" ~timeout:60. (fun () ->
          let st = Client.status client sim in
          match J.mem_str "state" st with
          | Some ("done" | "failed") -> Some st
          | _ -> None)
    in
    let hw = Client.create_hw client ~cpu:"haswell" ~level:"L1" ~set:0 () in
    let first = Client.query_mbl client hw mbl in
    let setup_s = mono () -. t0 in
    op "daemon learns LRU-4 with 24 states"
      (J.mem_str "state" st = Some "done" && J.mem_int "states" st = Some 24);
    ({ pid; client; sim; hw }, setup_s, mbl_of_reply first)
  with
  | r -> r
  | exception e ->
      kill_pid pid;
      raise e

type serve_samples = {
  query_s : float array;
  mbl_s : float array;
  replay_s : float array;
  round_s : float array;
  loop_s : float;
}

(* The timed closed loop on one connection; replies are checked after
   the loop against references computed before it. *)
let serve_loop d inputs ~word_ref ~replay_ref ~mbl_ref =
  let c = d.client in
  let nq = rounds * sim_per_round and nm = rounds * hw_per_round in
  let query_s = Array.make nq 0. and mbl_s = Array.make nm 0.
  and replay_s = Array.make rounds 0.
  and round_s = Array.make rounds 0. in
  let query_out = Array.make nq (Error "not run")
  and mbl_out = Array.make nm (Error "not run")
  and replay_out = Array.make rounds (Error "not run") in
  let call f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let t0 = mono () in
  for r = 0 to rounds - 1 do
    let t_round = mono () in
    for i = 0 to sim_per_round - 1 do
      let k = (r * sim_per_round) + i in
      let t = mono () in
      query_out.(k) <- call (fun () -> Client.query_sim c d.sim inputs.words.(k));
      query_s.(k) <- mono () -. t
    done;
    for i = 0 to hw_per_round - 1 do
      let k = (r * hw_per_round) + i in
      let t = mono () in
      mbl_out.(k) <- call (fun () -> Client.query_mbl c d.hw mbl);
      mbl_s.(k) <- mono () -. t
    done;
    let t = mono () in
    replay_out.(r) <-
      call (fun () -> Client.replay c ~spec:inputs.specs.(r) d.sim);
    replay_s.(r) <- mono () -. t;
    round_s.(r) <- mono () -. t_round
  done;
  let loop_s = mono () -. t0 in
  Array.iteri
    (fun k out ->
      op
        (Printf.sprintf "sim query %d equals Polca.run" k)
        (out = Ok word_ref.(k)))
    query_out;
  Array.iteri
    (fun k out ->
      op
        (Printf.sprintf "hw query %d equals the in-process frontend" k)
        (match out with Ok doc -> mbl_of_reply doc = mbl_ref.(k) | Error _ -> false))
    mbl_out;
  Array.iteri
    (fun k out ->
      let hits, opt_hits = replay_ref.(k) in
      op
        (Printf.sprintf "replay %d equals Replay.policy and Opt.replay" k)
        (match out with
        | Ok doc ->
            J.mem_str "source" doc = Some "learned"
            && J.mem_int "hits" doc = Some hits
            && J.mem_int "opt_hits" doc = Some opt_hits
        | Error _ -> false))
    replay_out;
  { query_s; mbl_s; replay_s; round_s; loop_s }

let ms xs p = 1000. *. percentile (Array.to_list xs) p

(* Set up [setup_reps] daemons (keeping the last), run loop units on it
   for [seconds], and stop everything.  Each unit's hw references are
   computed just before it.  [args] are extra daemon flags; [before] and
   [after] see the live daemon around the units. *)
let serve_once ~daemon ~tag ~args ~seconds ~inputs ~word_ref ~replay_ref
    ?(before = ignore) ~after () =
  let next_mbl = mbl_reference () in
  let live = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter stop_daemon !live)
    (fun () ->
      let setups =
        List.init setup_reps (fun i ->
            Option.iter stop_daemon !live;
            live := None;
            probe_clock 2;
            let d, dt, first =
              start_daemon ~daemon ~dir:(Printf.sprintf "%s-%d" tag i) ~args
            in
            live := Some d;
            (dt, first))
      in
      let first_ref = next_mbl () in
      List.iter
        (fun (_, first) ->
          op "set-up MBL query equals the in-process frontend" (first = first_ref))
        setups;
      let d = Option.get !live in
      before d;
      let units = ref [] in
      ignore
        (repeat_for seconds (fun () ->
             let mbl_ref =
               Array.init (rounds * hw_per_round) (fun _ -> next_mbl ())
             in
             let s = serve_loop d inputs ~word_ref ~replay_ref ~mbl_ref in
             units := s :: !units;
             s.loop_s));
      let units = List.rev !units in
      (median (List.map fst setups), units, after d))

let serve ~daemon ~seed ~seconds ~trace =
  let inputs = serve_inputs seed in
  let polca =
    Cq_core.Polca.create ~check_hits:false (Cq_cache.Oracle.of_policy (lru4 ()))
  in
  let word_ref =
    Array.map
      (fun w ->
        List.map Cq_policy.Types.output_label (Cq_core.Polca.run polca w))
      inputs.words
  in
  let replay_ref =
    Array.map
      (fun spec ->
        let blocks = (Cq_workload.Trace.of_spec_exn ~assoc:4 spec).blocks in
        ( (Cq_workload.Replay.policy (lru4 ()) blocks).Cq_workload.Replay.hits,
          (Cq_workload.Opt.replay ~assoc:4 blocks).Cq_workload.Replay.hits ))
      inputs.specs
  in
  let run ~tag ~args ~seconds ?before ~after () =
    serve_once ~daemon ~tag ~args ~seconds ~inputs ~word_ref ~replay_ref
      ?before ~after ()
  in
  if not trace then begin
    let setup_s, units, rss =
      run ~tag:"serve" ~args:[] ~seconds
        ~after:(fun d -> peak_rss_mb (string_of_int d.pid))
        ()
    in
    (* A loop's time as [rounds] median rounds: rounds are alike, and a
       burst of host contention then moves the median little. *)
    let loop_s s = float_of_int rounds *. median (Array.to_list s.round_s) in
    emit_end_to_end ~setup_s:(at_nominal_clock setup_s) ~peak_rss_mb:rss
      ~work_s:(fastest (List.map loop_s units))
      ~ops:(float_of_int requests_per_unit)
  end
  else begin
    let _, plain, () =
      run ~tag:"serve-plain" ~args:[] ~seconds:0. ~after:ignore ()
    in
    let stats d = Client.call d.client "stats" in
    let before = ref J.Null in
    let _, traced, after =
      gc_delta (fun () ->
          run ~tag:"serve-traced" ~seconds:0.
            ~args:[ "--trace"; "serve.trace.json" ]
            ~before:(fun d -> before := stats d)
            ~after:stats ())
    in
    let s0 = List.hd plain and s = List.hd traced in
    add "query_p50_ms" (ms s0.query_s 50.);
    add "query_p99_ms" (ms s0.query_s 99.);
    add "mbl_p50_ms" (ms s0.mbl_s 50.);
    add "replay_p50_ms" (ms s0.replay_s 50.);
    (* Daemon-side request and gate-wait histograms over the loop: the
       [stats] replies after it minus those before it. *)
    let hist name field =
      let get doc =
        Option.bind (J.member "metrics" doc) (fun m ->
            Option.bind (J.member name m) (fun h ->
                Option.bind (J.member field h) J.to_float))
        |> Option.value ~default:0.
      in
      get after -. get !before
    in
    let client_s =
      Array.fold_left ( +. ) 0. s.query_s
      +. Array.fold_left ( +. ) 0. s.mbl_s
      +. Array.fold_left ( +. ) 0. s.replay_s
    in
    let req_s = hist "service.request_seconds" "sum" in
    add "service.requests" (hist "service.request_seconds" "count");
    add "service.request_s" req_s;
    add "service.gate_wait_s" (hist "service.gate.wait_seconds" "sum");
    add "service.transport_s" (client_s -. req_s);
    (* Per-verb daemon spans from the trace the daemon wrote on exit. *)
    (match
       J.parse_opt
         (In_channel.with_open_bin "serve.trace.json" In_channel.input_all)
     with
    | Some (J.List evs) ->
        List.iter
          (fun ev ->
            let dur_s =
              Option.value ~default:0.
                (Option.bind (J.member "dur" ev) J.to_float)
              /. 1e6
            in
            match J.mem_str "name" ev with
            | Some "service.query" -> add "service.query_span_s" dur_s
            | Some "service.replay" -> add "service.replay_span_s" dur_s
            | _ -> ())
          evs
    | _ -> op "daemon trace file parses" false
    | exception Sys_error _ -> op "daemon wrote its trace file" false);
    (* The replay path's layers, timed in-process on this run's specs. *)
    let machine =
      (Cq_core.Learn.learn_simulated ~identify:false (lru4 ()))
        .Cq_core.Learn.machine
    in
    Array.iteri
      (fun k spec ->
        let tr, dt =
          time (fun () -> Cq_workload.Trace.of_spec_exn ~assoc:4 spec)
        in
        add "workload.trace_s" dt;
        let blocks = tr.Cq_workload.Trace.blocks in
        let cm, dt = time (fun () -> Cq_automata.Mealy.compile machine) in
        add "workload.compile_s" dt;
        let o, dt = time (fun () -> Cq_workload.Replay.compiled cm blocks) in
        add "workload.replay_s" dt;
        let opt, dt = time (fun () -> Cq_workload.Opt.replay ~assoc:4 blocks) in
        add "workload.opt_s" dt;
        op "in-process replay equals the reference"
          ((o.Cq_workload.Replay.hits, opt.Cq_workload.Replay.hits)
          = replay_ref.(k)))
      inputs.specs;
    report_overhead ~untraced:s0.loop_s ~traced:s.loop_s;
    emit_layers ()
  end

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: cqbench.exe --workload hw-durable|sim-table2|serve --seed N \
     --seconds S --trace 0|1 --tmp DIR [--daemon PATH]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int_of "seed" in
  let seconds = float_of_int (int_of "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let daemon =
    match List.assoc_opt "daemon" opts with
    | Some p when Filename.is_relative p -> Filename.concat (Sys.getcwd ()) p
    | Some p -> p
    | None -> ""
  in
  Sys.chdir (get "tmp");
  (match workload with
  | "hw-durable" -> hw_durable ~seed ~seconds ~trace
  | "sim-table2" -> sim_table2 ~seconds ~trace
  | "serve" when daemon <> "" -> serve ~daemon ~seed ~seconds ~trace
  | _ -> usage ());
  print_result ();
  exit (if !failed = 0 then 0 else 1)
