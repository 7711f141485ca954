(* The CacheQuery backend — the role played by the paper's Linux kernel
   module.  Given a target cache set (level, slice, set index) on a
   simulated machine, it:

   - selects congruent physical addresses and maps abstract blocks to them
     (the paper's per-level memory pools);
   - keeps higher cache levels out of the way by accessing non-interfering
     eviction sets after every load (cache filtering, §4.3);
   - executes queries as sequences of timed loads / clflushes and
     classifies each profiled load as a hit or miss at the target level via
     a calibrated latency threshold;
   - disables prefetchers and runs in a low-noise configuration, with
     repetition and majority voting left to the frontend. *)

type target = {
  level : Cq_hwsim.Cpu_model.level;
  slice : int;
  set : int;
}

type t = {
  machine : Cq_hwsim.Machine.t;
  target : target;
  (* block -> physical address, lazily extended *)
  block_addr : (Cq_cache.Block.t, int) Hashtbl.t;
  mutable pool : int list; (* unassigned congruent addresses *)
  mutable pool_cursor : int; (* line index where enumeration resumes *)
  mutable threshold : int; (* latency <= threshold ==> hit at target level *)
  (* Addresses used to evict the target blocks from levels above the
     target; chosen congruent at the higher level but non-interfering at
     the target level and below. *)
  filter_sets : (Cq_hwsim.Cpu_model.level * int list) list;
  (* Sweep that evicts a block from the target level itself (same target
     set, non-interfering below); used by calibration to observe
     "miss at target, hit at next level" latencies.  Empty for L3, where
     a plain flush yields the memory-latency miss population. *)
  calib_sweep : int list;
  mutable calib_dirty : bool; (* calibration touched the target set *)
  (* Registry-backed load/recalibration accounting (Cq_util.Metrics): the
     report fields and a --metrics export read the same cells. *)
  timed_loads : Cq_util.Metrics.counter;
  filter_loads : Cq_util.Metrics.counter;
  (* Noise layer (§4.3 hardening): [margin] is the half-width of the
     "suspicious" latency band around the threshold.  A latency at most
     [threshold - margin] is a confident hit (outlier spikes only push
     latencies *up*, so low readings are trustworthy); latencies inside
     the band feed the drift detector below. *)
  mutable margin : int;
  (* Drift detector: over a sliding window of classifications, count how
     many fell within [margin] of the threshold.  When the crowded
     fraction exceeds [drift_fraction] the hit/miss populations have
     drifted towards the threshold and a recalibration is requested; the
     frontend honours it at the next reset boundary (recalibrating
     mid-query would perturb the state under measurement). *)
  mutable window_classified : int;
  mutable window_near : int;
  (* Direct drift estimator: exponential moving averages of the observed
     hit and miss latency populations (outlier-range readings excluded).
     Noise sources shift both populations together, so when the EWMA
     midpoint departs from the calibrated threshold by more than half the
     margin, the populations have drifted and the threshold is going
     stale — request a recalibration long before misclassifications set
     in.  (The window counters above remain as a coarser backstop that
     also catches variance growth.) *)
  mutable ewma_hit : float;
  mutable ewma_miss : float;
  mutable recalibrate_due : bool;
  recalibrations : Cq_util.Metrics.counter;
  (* Upper bound of the confident-miss band: a latency above
     [threshold + margin] but at most [miss_ceiling] sits inside the
     next-level population and cannot be an outlier-spiked hit (spikes add
     far more than the level gap), so a single sample suffices.  Beyond the
     ceiling the reading is suspicious — an interrupt-style spike on either
     population — and must be voted. *)
  mutable miss_ceiling : int;
  (* A non-interfering address (different set at every level) used to let
     transient common-mode noise bursts expire between vote re-measurements
     without touching the state under measurement. *)
  settle_addr : int;
}

(* Window length / crowding fraction for the drift detector.  256 profiled
   loads is a handful of queries; >25% of them inside the margin band never
   happens when the populations are where calibration left them. *)
let drift_window = 256
let drift_fraction = 0.25

(* EWMA smoothing for the population trackers.  1/alpha ~ 100 samples:
   enough smoothing that jitter cannot fire the detector spuriously
   (midpoint sigma ~ 0.08 cycles at jitter sigma 1.5), short enough that
   the estimate lags real drift by a fraction of a cycle. *)
let ewma_alpha = 0.01

let machine t = t.machine
let target t = t.target
let threshold t = t.threshold
let timed_loads t = Cq_util.Metrics.value t.timed_loads
let load_counter t = t.timed_loads
let filter_loads t = Cq_util.Metrics.value t.filter_loads
let recalibrations t = Cq_util.Metrics.value t.recalibrations
let recalibrate_due t = t.recalibrate_due

let line_size t = (Cq_hwsim.Machine.model t.machine).Cq_hwsim.Cpu_model.line_size

(* Levels strictly above (closer to the core than) the target level. *)
let levels_above = function
  | Cq_hwsim.Cpu_model.L1 -> []
  | Cq_hwsim.Cpu_model.L2 -> [ Cq_hwsim.Cpu_model.L1 ]
  | Cq_hwsim.Cpu_model.L3 -> [ Cq_hwsim.Cpu_model.L1; Cq_hwsim.Cpu_model.L2 ]

(* Build, for each level above the target, an eviction set: addresses that
   are congruent with the target's image at that level but map to a
   *different* set at the target level (and, for L1 filtering under an L3
   target, also a different L2 set), so that accessing them cannot disturb
   the state under measurement.  Their own L3 sets are also kept distinct
   from the target's to avoid inclusive back-invalidation. *)
let build_filter_sets machine (target : target) =
  let sample_addr =
    List.hd
      (Cq_hwsim.Machine.congruent_addresses machine target.level
         ~slice:target.slice ~set:target.set 1)
  in
  List.map
    (fun above ->
      let a_slice, a_set = Cq_hwsim.Machine.map_addr machine above sample_addr in
      let spec =
        Cq_hwsim.Cpu_model.spec (Cq_hwsim.Machine.model machine) above
      in
      let non_interfering addr =
        let t_slice, t_set =
          Cq_hwsim.Machine.map_addr machine target.level addr
        in
        not (t_slice = target.slice && t_set = target.set)
        &&
        (* never fight the inclusive L3 set of the target's blocks *)
        match target.level with
        | Cq_hwsim.Cpu_model.L3 -> true
        | _ ->
            let l3_slice, l3_set =
              Cq_hwsim.Machine.map_addr machine Cq_hwsim.Cpu_model.L3 addr
            in
            let t3_slice, t3_set =
              Cq_hwsim.Machine.map_addr machine Cq_hwsim.Cpu_model.L3 sample_addr
            in
            not (l3_slice = t3_slice && l3_set = t3_set)
      in
      (* Twice the associativity thrashes any of the deterministic policies
         we model out of the level. *)
      let addrs =
        Cq_hwsim.Machine.congruent_addresses machine above ~slice:a_slice
          ~set:a_set ~filter:non_interfering
          (2 * spec.Cq_hwsim.Cpu_model.assoc)
      in
      (above, addrs))
    (levels_above target.level)

(* Addresses in the *target* set itself whose L3 (or L2) images differ from
   the sample's, so sweeping them evicts a block from the target level
   without perturbing deeper levels' copies of it. *)
let build_calib_sweep machine (target : target) =
  let model = Cq_hwsim.Machine.model machine in
  let spec = Cq_hwsim.Cpu_model.spec model target.level in
  match target.level with
  | Cq_hwsim.Cpu_model.L3 -> []
  | (Cq_hwsim.Cpu_model.L1 | Cq_hwsim.Cpu_model.L2) as level ->
      let sample =
        List.hd
          (Cq_hwsim.Machine.congruent_addresses machine level
             ~slice:target.slice ~set:target.set 1)
      in
      let next =
        match level with
        | Cq_hwsim.Cpu_model.L1 -> Cq_hwsim.Cpu_model.L2
        | _ -> Cq_hwsim.Cpu_model.L3
      in
      let next_slice, next_set = Cq_hwsim.Machine.map_addr machine next sample in
      let l3_slice, l3_set =
        Cq_hwsim.Machine.map_addr machine Cq_hwsim.Cpu_model.L3 sample
      in
      let filter addr =
        let ns, nt = Cq_hwsim.Machine.map_addr machine next addr in
        let ts, tt =
          Cq_hwsim.Machine.map_addr machine Cq_hwsim.Cpu_model.L3 addr
        in
        (not (ns = next_slice && nt = next_set))
        && not (ts = l3_slice && tt = l3_set)
      in
      Cq_hwsim.Machine.congruent_addresses machine level ~slice:target.slice
        ~set:target.set ~filter
        (2 * spec.Cq_hwsim.Cpu_model.assoc)

(* Model-derived margin: a quarter of the gap between the target level's
   hit latency and the next level's, mirroring how [calibrate] derives the
   margin from the measured medians. *)
let default_margin machine level =
  let model = Cq_hwsim.Machine.model machine in
  let gap =
    match level with
    | Cq_hwsim.Cpu_model.L1 ->
        model.Cq_hwsim.Cpu_model.l2.hit_latency
        - model.Cq_hwsim.Cpu_model.l1.hit_latency
    | Cq_hwsim.Cpu_model.L2 ->
        model.Cq_hwsim.Cpu_model.l3.hit_latency
        - model.Cq_hwsim.Cpu_model.l2.hit_latency
    | Cq_hwsim.Cpu_model.L3 ->
        model.Cq_hwsim.Cpu_model.memory_latency
        - model.Cq_hwsim.Cpu_model.l3.hit_latency
  in
  max 1 (gap / 4)

(* The latency a miss is served at: the next level's hit latency (memory
   for the last level). *)
let next_level_latency machine level =
  let model = Cq_hwsim.Machine.model machine in
  match level with
  | Cq_hwsim.Cpu_model.L1 -> model.Cq_hwsim.Cpu_model.l2.hit_latency
  | Cq_hwsim.Cpu_model.L2 -> model.Cq_hwsim.Cpu_model.l3.hit_latency
  | Cq_hwsim.Cpu_model.L3 -> model.Cq_hwsim.Cpu_model.memory_latency

let default_threshold machine level =
  let model = Cq_hwsim.Machine.model machine in
  match level with
  | Cq_hwsim.Cpu_model.L1 ->
      (model.Cq_hwsim.Cpu_model.l1.hit_latency
      + model.Cq_hwsim.Cpu_model.l2.hit_latency)
      / 2
  | Cq_hwsim.Cpu_model.L2 ->
      (model.Cq_hwsim.Cpu_model.l2.hit_latency
      + model.Cq_hwsim.Cpu_model.l3.hit_latency)
      / 2
  | Cq_hwsim.Cpu_model.L3 ->
      (model.Cq_hwsim.Cpu_model.l3.hit_latency
      + model.Cq_hwsim.Cpu_model.memory_latency)
      / 2

let create ?(disable_prefetchers = true) ?metrics machine (target : target) =
  let model = Cq_hwsim.Machine.model machine in
  let registry =
    match metrics with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let spec = Cq_hwsim.Cpu_model.spec model target.level in
  if target.slice < 0 || target.slice >= spec.Cq_hwsim.Cpu_model.slices then
    invalid_arg "Backend.create: slice out of range";
  if target.set < 0 || target.set >= spec.Cq_hwsim.Cpu_model.sets_per_slice then
    invalid_arg "Backend.create: set out of range";
  if disable_prefetchers then Cq_hwsim.Machine.set_prefetchers machine false;
  let sample_addr =
    List.hd
      (Cq_hwsim.Machine.congruent_addresses machine target.level
         ~slice:target.slice ~set:target.set 1)
  in
  let threshold = default_threshold machine target.level in
  let next_latency = next_level_latency machine target.level in
  {
    machine;
    target;
    block_addr = Hashtbl.create 64;
    pool = [];
    pool_cursor = 0;
    (* model-derived default; refined by [calibrate] *)
    threshold;
    filter_sets = build_filter_sets machine target;
    calib_sweep = build_calib_sweep machine target;
    calib_dirty = false;
    timed_loads = Cq_util.Metrics.counter registry "backend.timed_loads";
    filter_loads = Cq_util.Metrics.counter registry "backend.filter_loads";
    margin = default_margin machine target.level;
    window_classified = 0;
    window_near = 0;
    (* model-derived population centres; re-seeded by [calibrate] *)
    ewma_hit = float_of_int ((2 * threshold) - next_latency);
    ewma_miss = float_of_int next_latency;
    recalibrate_due = false;
    recalibrations = Cq_util.Metrics.counter registry "backend.recalibrations";
    (* mirrors the [calibrate] update with model medians *)
    miss_ceiling = (2 * next_latency) - threshold;
    (* one line further: a different set index at every cache level, so
       loading it never disturbs the target set *)
    settle_addr =
      sample_addr
      + (Cq_hwsim.Machine.model machine).Cq_hwsim.Cpu_model.line_size;
  }

(* Address of a block, allocating a fresh congruent address on first use. *)
let rec addr_of_block t block =
  match Hashtbl.find_opt t.block_addr block with
  | Some a -> a
  | None -> (
      match t.pool with
      | a :: rest ->
          t.pool <- rest;
          Hashtbl.add t.block_addr block a; (* cq-lint: allow hashtbl-add: find_opt miss *)
          a
      | [] ->
          (* The calibration sweep draws from the same congruent stream;
             block addresses must never alias it, or sweeping would touch
             the blocks under measurement. *)
          let not_in_sweep a = not (List.mem a t.calib_sweep) in
          let fresh =
            Cq_hwsim.Machine.congruent_addresses t.machine t.target.level
              ~slice:t.target.slice ~set:t.target.set ~start:t.pool_cursor
              ~filter:not_in_sweep 32
          in
          (match List.rev fresh with
          | last :: _ ->
              (* Resume enumeration just past the last stride step used. *)
              let model = Cq_hwsim.Machine.model t.machine in
              let spec = Cq_hwsim.Cpu_model.spec model t.target.level in
              let stride = spec.Cq_hwsim.Cpu_model.sets_per_slice * line_size t in
              t.pool_cursor <- ((last - (t.target.set * line_size t)) / stride) + 1
          | [] -> ());
          t.pool <- fresh;
          addr_of_block t block)

(* Cache filtering: push the just-accessed data out of the levels above the
   target by sweeping the pre-computed non-interfering eviction sets. *)
let filter_higher_levels t =
  List.iter
    (fun (_, addrs) ->
      List.iter
        (fun a ->
          Cq_util.Metrics.incr t.filter_loads;
          ignore (Cq_hwsim.Machine.load t.machine a))
        addrs)
    t.filter_sets

(* One timed, filtered load of a block; returns the measured cycles. *)
let timed_load t block =
  let addr = addr_of_block t block in
  (* For L2/L3 targets the block must not be served by a higher level. *)
  let cycles = Cq_hwsim.Machine.load t.machine addr in
  Cq_util.Metrics.incr t.timed_loads;
  filter_higher_levels t;
  cycles

let classify t cycles =
  (* Feed the population trackers (outlier-range readings excluded: a
     spiked latency says nothing about where the population sits). *)
  if cycles <= t.threshold then
    t.ewma_hit <- t.ewma_hit +. (ewma_alpha *. (float_of_int cycles -. t.ewma_hit))
  else if cycles <= t.miss_ceiling then
    t.ewma_miss <-
      t.ewma_miss +. (ewma_alpha *. (float_of_int cycles -. t.ewma_miss));
  let midpoint = (t.ewma_hit +. t.ewma_miss) /. 2.0 in
  if Float.abs (midpoint -. float_of_int t.threshold) > float_of_int t.margin /. 2.0
  then t.recalibrate_due <- true;
  (* Coarser backstop: latencies crowding the threshold mean the
     populations have moved (or widened) since calibration. *)
  t.window_classified <- t.window_classified + 1;
  if abs (cycles - t.threshold) <= t.margin then
    t.window_near <- t.window_near + 1;
  if t.window_classified >= drift_window then begin
    if
      float_of_int t.window_near
      > drift_fraction *. float_of_int t.window_classified
    then t.recalibrate_due <- true;
    t.window_classified <- 0;
    t.window_near <- 0
  end;
  if cycles <= t.threshold then Cq_cache.Cache_set.Hit else Cq_cache.Cache_set.Miss

(* A latency this far below the threshold cannot be a disguised miss:
   simulated (and real) noise sources — jitter, interrupt outliers, bursts,
   drift — only *add* cycles, so the frontend's voting layer may accept a
   single confident-hit sample without re-measuring. *)
let confident_hit t cycles = cycles <= t.threshold - t.margin

(* A latency clearly above the threshold but inside the next-level
   population is a confident miss: an outlier-spiked *hit* would land far
   beyond the ceiling (spikes add much more than the level gap), so the
   only reading that needs a vote on the miss side is one above the
   ceiling.  Only sound when spikes are large relative to the gap — which
   is what interrupt/SMI-style outliers look like. *)
let confident_miss t cycles =
  cycles > t.threshold + t.margin && cycles <= t.miss_ceiling

(* Let transient common-mode noise (an interrupt-storm burst) expire
   between vote re-measurements: issue untimed loads to a non-interfering
   address (different set at every level).  Without this, consecutive
   re-measurements of a disputed access can all land inside the same burst
   and outvote the truth. *)
let settle ?(loads = 8) t =
  for _ = 1 to loads do
    Cq_util.Metrics.incr t.filter_loads;
    ignore (Cq_hwsim.Machine.load t.machine t.settle_addr)
  done

let flush_block t block =
  let addr = addr_of_block t block in
  Cq_hwsim.Machine.clflush t.machine addr

(* Flush every address this backend has ever directed at the target set —
   assigned block addresses, the unassigned remainder of the pool, and the
   calibration sweep.  This is the building block of the Flush+Refill
   reset: afterwards the target set holds no valid line. *)
let flush_all_known t =
  Cq_util.Trace.with_span ~cat:"backend" "backend.flush" @@ fun () ->
  Hashtbl.iter (fun _ addr -> Cq_hwsim.Machine.clflush t.machine addr) t.block_addr;
  (* The unassigned pool has never been accessed, so it cannot be cached.
     The calibration sweep only needs flushing once after calibration. *)
  if t.calib_dirty then begin
    List.iter (Cq_hwsim.Machine.clflush t.machine) t.calib_sweep;
    t.calib_dirty <- false
  end

(* Execute one concrete query (an expanded MBL query): perform each
   operation in order and report hit/miss for the profiled ones. *)
let run_query t (q : Cq_mbl.Expand.query) =
  List.filter_map
    (fun (el : Cq_mbl.Expand.element) ->
      match el.tag with
      | Some Cq_mbl.Ast.Flush ->
          flush_block t el.block;
          None
      | Some Cq_mbl.Ast.Profile ->
          let cycles = timed_load t el.block in
          Some (classify t cycles)
      | None ->
          ignore (timed_load t el.block);
          None)
    q

(* Calibration: build latency samples for "hit at target level" and "served
   by the next level" and place the threshold between the two populations
   (Otsu).  Uses scratch blocks far away from the learning alphabet. *)
let calibrate ?(samples = 64) t =
  Cq_util.Trace.with_span ~cat:"backend" "backend.calibrate" @@ fun () ->
  t.calib_dirty <- true;
  let scratch i = Cq_cache.Block.aux (90_000 + i) in
  let hit_samples = ref [] and miss_samples = ref [] in
  for i = 0 to samples - 1 do
    let b = scratch i in
    (* First touch: fills the whole hierarchy. *)
    ignore (timed_load t b);
    (* Second touch after filtering: served by the target level. *)
    let hit_cycles = timed_load t b in
    hit_samples := hit_cycles :: !hit_samples;
    (* Evict from the target level only (keeping the next level's copy),
       or flush entirely when the target is the last level: the re-touch
       then samples the closest "miss" population the learner will see. *)
    (match t.calib_sweep with
    | [] -> flush_block t b
    | sweep ->
        List.iter (fun a -> ignore (Cq_hwsim.Machine.load t.machine a)) sweep;
        List.iter
          (fun a -> ignore (Cq_hwsim.Machine.load t.machine a))
          (List.rev sweep));
    let miss_cycles = timed_load t b in
    miss_samples := miss_cycles :: !miss_samples
  done;
  (* Medians are robust against interrupt/TLB-style outlier spikes, which
     would otherwise dominate a variance-based split like Otsu's. *)
  let med xs = Cq_util.Stats.median (List.map float_of_int xs) in
  let hit_med = med !hit_samples and miss_med = med !miss_samples in
  if miss_med > hit_med +. 1.0 then begin
    t.threshold <- int_of_float (Float.round ((hit_med +. miss_med) /. 2.0));
    t.margin <-
      max 1 (int_of_float (Float.round ((miss_med -. hit_med) /. 4.0)));
    t.miss_ceiling <- (2 * int_of_float (Float.round miss_med)) - t.threshold;
    (* Re-seed the drift estimator on the freshly measured populations. *)
    t.ewma_hit <- hit_med;
    t.ewma_miss <- miss_med
  end;
  (* else: populations indistinguishable; keep the model-derived default *)
  (t.threshold, !hit_samples, !miss_samples)

(* Portable calibration state, for session snapshots: a resumed run
   restores it instead of re-measuring, so it classifies exactly like the
   crashed one. *)
type calibration = {
  cal_threshold : int;
  cal_margin : int;
  cal_miss_ceiling : int;
  cal_ewma_hit : float;
  cal_ewma_miss : float;
}

let calibration t =
  {
    cal_threshold = t.threshold;
    cal_margin = t.margin;
    cal_miss_ceiling = t.miss_ceiling;
    cal_ewma_hit = t.ewma_hit;
    cal_ewma_miss = t.ewma_miss;
  }

let restore_calibration t cal =
  t.threshold <- cal.cal_threshold;
  t.margin <- cal.cal_margin;
  t.miss_ceiling <- cal.cal_miss_ceiling;
  t.ewma_hit <- cal.cal_ewma_hit;
  t.ewma_miss <- cal.cal_ewma_miss;
  t.window_classified <- 0;
  t.window_near <- 0;
  t.recalibrate_due <- false

(* Honour a pending drift-triggered recalibration.  Must only be called at
   a reset boundary: calibration sweeps the target set, so running it
   mid-query would corrupt the state under measurement.  Returns whether a
   recalibration ran. *)
let maybe_recalibrate ?samples t =
  if not t.recalibrate_due then false
  else begin
    t.recalibrate_due <- false;
    t.window_classified <- 0;
    t.window_near <- 0;
    Cq_util.Trace.instant ~cat:"backend" "backend.recalibrate";
    ignore (calibrate ?samples t);
    Cq_util.Metrics.incr t.recalibrations;
    true
  end
