(** The CacheQuery backend — the role of the paper's Linux kernel module
    (§4.2/§4.3): address selection, cache filtering, code "generation"
    (timed load sequences on the simulated machine), latency calibration
    and hit/miss classification for one target cache set. *)

type target = {
  level : Cq_hwsim.Cpu_model.level;
  slice : int;
  set : int;
}

type t

val create :
  ?disable_prefetchers:bool ->
  ?metrics:Cq_util.Metrics.t ->
  Cq_hwsim.Machine.t ->
  target ->
  t
(** Attach to a target set: select congruent address pools and build the
    non-interfering eviction sets used for cache filtering.  Disables the
    machine's prefetchers by default, as the real tool does.  [metrics]
    receives the backend's counters ([backend.timed_loads],
    [backend.filter_loads], [backend.recalibrations]); default is a
    private registry readable through the accessors below. *)

val machine : t -> Cq_hwsim.Machine.t
val target : t -> target

val threshold : t -> int
(** Current hit/miss latency threshold (cycles). *)

val timed_loads : t -> int

val load_counter : t -> Cq_util.Metrics.counter
(** The counter behind {!timed_loads}: every timed load, whichever path
    issued it. *)

val filter_loads : t -> int

val recalibrations : t -> int
(** Drift-triggered recalibrations performed so far. *)

val recalibrate_due : t -> bool
(** Whether the drift detector has requested a recalibration (honoured by
    {!maybe_recalibrate} at the next reset boundary). *)

val timed_load : t -> Cq_cache.Block.t -> int
(** One profiled load of a block, followed by the filtering sweep that
    keeps levels above the target out of the way; returns measured
    cycles. *)

val classify : t -> int -> Cq_cache.Cache_set.result
(** Cycles -> Hit/Miss at the target level, via the threshold.  Also feeds
    the drift detector: when too many classified latencies crowd the
    threshold (the populations drifted since calibration), a recalibration
    is flagged for {!maybe_recalibrate}. *)

val confident_hit : t -> int -> bool
(** [cycles <= threshold - margin], where [margin] is the half-width of
    the suspicious band around the threshold (set by {!calibrate}):
    noise sources only add latency, so a reading this low cannot be a
    disguised miss and a single sample suffices (the voting layer's fast
    path). *)

val confident_miss : t -> int -> bool
(** Clearly above the threshold yet inside the next-level latency
    population (below the miss ceiling): cannot be an outlier-spiked hit —
    spikes overshoot the level gap — so a single sample suffices. *)

val settle : ?loads:int -> t -> unit
(** Issue untimed loads to a non-interfering address so a transient
    common-mode noise burst can expire between vote re-measurements. *)

val flush_all_known : t -> unit
(** clflush everything this backend ever directed at the target set (the
    building block of the Flush+Refill reset). *)

val run_query : t -> Cq_mbl.Expand.query -> Cq_cache.Cache_set.result list
(** Execute an expanded MBL query; returns outcomes of profiled accesses. *)

val calibrate : ?samples:int -> t -> int * int list * int list
(** Measure known-hit and known-miss latency populations at the target
    level and set the threshold between their medians (and the margin to a
    quarter of their separation); returns
    [(threshold, hit_samples, miss_samples)]. *)

type calibration = {
  cal_threshold : int;
  cal_margin : int;
  cal_miss_ceiling : int;
  cal_ewma_hit : float;
  cal_ewma_miss : float;
}
(** The portable calibration state: threshold, margin, miss ceiling and
    the drift estimator's population centres.  Marshal-safe — learning
    sessions persist it in snapshots so a resumed run classifies exactly
    like the crashed one without re-measuring. *)

val calibration : t -> calibration
(** Snapshot the current calibration state. *)

val restore_calibration : t -> calibration -> unit
(** Restore a previously captured calibration state (in place of a fresh
    {!calibrate}); also resets the drift-detector window. *)

val maybe_recalibrate : ?samples:int -> t -> bool
(** Run {!calibrate} if the drift detector requested it; returns whether a
    recalibration ran.  Only call at a reset boundary — calibration sweeps
    the target set and would corrupt a query in flight. *)
