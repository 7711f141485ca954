(* The simulated silicon CPU: an inclusive three-level cache hierarchy with
   slicing, set indexing, adaptive L3 set-dueling, hardware prefetchers,
   Intel CAT way masking, and a cycle-accounting timing model with
   configurable measurement noise.

   This is the substitution target for the paper's physical i7-4790 /
   i5-6500 / i7-8550U machines: the CacheQuery backend only ever observes
   load latencies, clflush/wbinvd, and the ability to pick addresses, all
   of which this module provides. *)

type noise_config = {
  jitter_sigma : float; (* per-load gaussian jitter, cycles *)
  outlier_prob : float; (* probability of an interrupt/TLB-style spike *)
  outlier_cycles : int; (* magnitude of a spike *)
  (* Fault injection for the noise-robustness layer: *)
  burst_prob : float; (* probability per load that a noise burst starts *)
  burst_len : int; (* loads a burst lasts once started *)
  burst_cycles : int; (* extra cycles added to every load during a burst *)
  drift_rate : float; (* slow common-mode latency drift, cycles per load *)
}

let quiet_noise =
  {
    jitter_sigma = 0.0;
    outlier_prob = 0.0;
    outlier_cycles = 0;
    burst_prob = 0.0;
    burst_len = 0;
    burst_cycles = 0;
    drift_rate = 0.0;
  }

let default_noise =
  { quiet_noise with jitter_sigma = 1.5; outlier_prob = 0.002; outlier_cycles = 250 }

(* Interrupt-storm-style bursts on top of the default noise: for a short
   run of loads, every latency is inflated by an amount large enough to
   flip hit classifications — transient, unlike structural nondeterminism. *)
let burst_noise =
  { default_noise with burst_prob = 0.0004; burst_len = 8; burst_cycles = 180 }

(* DVFS/thermal-style drift on top of the default noise: all latencies
   creep upward as the run progresses, so a threshold calibrated once
   eventually sits inside the hit population. *)
let drift_noise = { default_noise with drift_rate = 0.0002 }

type t = {
  model : Cpu_model.t;
  prng : Cq_util.Prng.t;
  noise : noise_config ref;
  mutable l1 : Cache_level.t;
  mutable l2 : Cache_level.t;
  mutable l3 : Cache_level.t;
  mutable psel : int; (* set-dueling counter, 0 .. psel_max *)
  mutable prefetchers : bool;
  mutable loads : int;
  mutable last_line : int; (* for the adjacent-line prefetcher *)
  mutable burst_remaining : int; (* loads left in the active noise burst *)
  slice_bits : int; (* log2 of the L3 slice count *)
}

let psel_max = 1023
let psel_threshold = 512

let create ?(seed = 0xC0FFEEL) ?(noise = quiet_noise) model =
  let prng = Cq_util.Prng.create seed in
  {
    model;
    prng;
    noise = ref noise;
    l1 = Cache_level.create ~prng:(Cq_util.Prng.split prng) Cpu_model.L1 model.Cpu_model.l1;
    l2 = Cache_level.create ~prng:(Cq_util.Prng.split prng) Cpu_model.L2 model.Cpu_model.l2;
    l3 = Cache_level.create ~prng:(Cq_util.Prng.split prng) Cpu_model.L3 model.Cpu_model.l3;
    psel = psel_max / 2;
    prefetchers = true;
    loads = 0;
    last_line = -1;
    burst_remaining = 0;
    slice_bits =
      int_of_float
        (Float.round (Float.log2 (float_of_int model.Cpu_model.l3.slices)));
  }

let model t = t.model
let set_noise t noise = t.noise := noise
let set_prefetchers t enabled = t.prefetchers <- enabled
let loads t = t.loads

let level_cache t = function
  | Cpu_model.L1 -> t.l1
  | Cpu_model.L2 -> t.l2
  | Cpu_model.L3 -> t.l3

let effective_assoc t level = Cache_level.effective_assoc (level_cache t level)

(* --- Address mapping ------------------------------------------------- *)

let line_of_addr t addr = addr / t.model.Cpu_model.line_size

let parity64 x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let slice_of_addr t addr =
  let s = ref 0 in
  for j = 0 to t.slice_bits - 1 do
    let mask = t.model.Cpu_model.slice_masks.(j) in
    s := !s lor (parity64 (addr land mask) lsl j)
  done;
  !s

let set_of_line cache line =
  line land ((Cache_level.spec cache).Cpu_model.sets_per_slice - 1)

(* The L3 slice a line maps to. *)
let slice_of_line t line = slice_of_addr t (line * t.model.Cpu_model.line_size)

(* (slice, set) a physical address maps to at a given level. *)
let map_addr t level addr =
  let line = line_of_addr t addr in
  let set = set_of_line (level_cache t level) line in
  match level with
  | Cpu_model.L1 | Cpu_model.L2 -> (0, set)
  | Cpu_model.L3 -> (slice_of_addr t addr, set)

(* Enumerate distinct physical addresses congruent with the given (slice,
   set) at [level], optionally filtered.  Addresses are line-aligned; the
   walk strides by the set period (set-index bits repeat every
   [sets_per_slice] lines), so only the slice hash and the filter are
   tested per candidate.  [start] skips the first [start] stride steps. *)
let congruent_addresses ?(filter = fun _ -> true) ?(start = 0) t level ~slice ~set n =
  let line_size = t.model.Cpu_model.line_size in
  let spec = Cpu_model.spec t.model level in
  let stride = spec.Cpu_model.sets_per_slice * line_size in
  let result = ref [] in
  let count = ref 0 in
  let addr = ref ((set * line_size) + (start * stride)) in
  let limit = 1 lsl 38 (* 256 GiB of synthetic physical space *) in
  while !count < n && !addr < limit do
    let s, ss = map_addr t level !addr in
    assert (ss = set);
    if s = slice && filter !addr then begin
      result := !addr :: !result;
      incr count
    end;
    addr := !addr + stride
  done;
  if !count < n then failwith "Machine.congruent_addresses: address space exhausted";
  List.rev !result

(* --- CAT (way masking) ------------------------------------------------ *)

let set_cat_ways t ways =
  if not t.model.Cpu_model.supports_cat then
    failwith (Printf.sprintf "%s does not support CAT" t.model.Cpu_model.name);
  if ways < 1 || ways > t.model.Cpu_model.l3.assoc then
    invalid_arg "Machine.set_cat_ways: bad way count";
  (* Re-partitioning the L3 drops the cached content of the masked region;
     modelled as a fresh L3 with reduced effective associativity. *)
  t.l3 <-
    Cache_level.create
      ~effective_assoc:ways
      ~prng:(Cq_util.Prng.split t.prng)
      Cpu_model.L3 t.model.Cpu_model.l3

let reset_cat t =
  t.l3 <-
    Cache_level.create ~prng:(Cq_util.Prng.split t.prng) Cpu_model.L3
      t.model.Cpu_model.l3

(* --- Set dueling ------------------------------------------------------- *)

let record_l3_miss t ~slice ~set =
  match Cache_level.kind t.l3 ~slice ~set with
  | Cache_level.Leader_a -> t.psel <- min psel_max (t.psel + 1)
  | Cache_level.Leader_b -> t.psel <- max 0 (t.psel - 1)
  | _ -> ()

let follower_uses_b t = t.psel >= psel_threshold

(* --- The load path -----------------------------------------------------

   Slices and sets are computed from the line and levels answer with
   [Cache_level.invalid] rather than options, so finding a line's way
   allocates nothing. *)

(* Install [line] at [level]. *)
let fill_level t level ~line =
  match level with
  | Cpu_model.L1 | Cpu_model.L2 ->
      let cache = level_cache t level in
      ignore
        (Cache_level.fill cache ~slice:0 ~set:(set_of_line cache line) ~line
           ~use_b:false
          : int)
  | Cpu_model.L3 ->
      let slice = slice_of_line t line and set = set_of_line t.l3 line in
      let use_b = follower_uses_b t in
      record_l3_miss t ~slice ~set;
      let evicted = Cache_level.fill t.l3 ~slice ~set ~line ~use_b in
      (* Inclusive L3: evicting a line from L3 back-invalidates it everywhere. *)
      if evicted <> Cache_level.invalid then begin
        Cache_level.invalidate t.l1 ~slice:0 ~set:(set_of_line t.l1 evicted)
          ~line:evicted;
        Cache_level.invalidate t.l2 ~slice:0 ~set:(set_of_line t.l2 evicted)
          ~line:evicted
      end

(* Whether [line] is cached at the L2 / L3. *)
let in_l2 t line =
  Cache_level.find t.l2 ~slice:0 ~set:(set_of_line t.l2 line) ~line
  <> Cache_level.invalid

let in_l3 t line =
  Cache_level.find t.l3 ~slice:(slice_of_line t line)
    ~set:(set_of_line t.l3 line) ~line
  <> Cache_level.invalid

(* Load without timing: returns the level that served the access. *)
let load_raw t addr =
  t.loads <- t.loads + 1;
  let line = line_of_addr t addr in
  let served =
    let set1 = set_of_line t.l1 line in
    let way = Cache_level.find t.l1 ~slice:0 ~set:set1 ~line in
    if way <> Cache_level.invalid then begin
      Cache_level.hit t.l1 ~slice:0 ~set:set1 ~way;
      `L1
    end
    else
      let set2 = set_of_line t.l2 line in
      let way = Cache_level.find t.l2 ~slice:0 ~set:set2 ~line in
      if way <> Cache_level.invalid then begin
        Cache_level.hit t.l2 ~slice:0 ~set:set2 ~way;
        fill_level t Cpu_model.L1 ~line;
        `L2
      end
      else
        let slice3 = slice_of_line t line and set3 = set_of_line t.l3 line in
        let way = Cache_level.find t.l3 ~slice:slice3 ~set:set3 ~line in
        if way <> Cache_level.invalid then begin
          Cache_level.hit t.l3 ~slice:slice3 ~set:set3 ~way;
          fill_level t Cpu_model.L2 ~line;
          fill_level t Cpu_model.L1 ~line;
          `L3
        end
        else begin
          fill_level t Cpu_model.L3 ~line;
          fill_level t Cpu_model.L2 ~line;
          fill_level t Cpu_model.L1 ~line;
          `Memory
        end
  in
  (* Adjacent-line prefetcher: on an L2-or-beyond access, the buddy line of
     the 128-byte pair is pulled into L2.  Disabled by CacheQuery. *)
  (if t.prefetchers && served <> `L1 then
     let buddy = line lxor 1 in
     if not (in_l2 t buddy) then begin
       if not (in_l3 t buddy) then fill_level t Cpu_model.L3 ~line:buddy;
       fill_level t Cpu_model.L2 ~line:buddy
     end);
  t.last_line <- line;
  served

let base_latency t = function
  | `L1 -> t.model.Cpu_model.l1.hit_latency
  | `L2 -> t.model.Cpu_model.l2.hit_latency
  | `L3 -> t.model.Cpu_model.l3.hit_latency
  | `Memory -> t.model.Cpu_model.memory_latency

(* Timed load: returns the measured latency in cycles, as rdtsc-style
   profiling would observe it.  On top of the per-load jitter and outlier
   spikes, noise bursts inflate a short run of consecutive loads, and
   drift adds a slowly growing common-mode offset (a function of the
   [loads] work counter, so it behaves like wall-clock thermal drift and
   is deliberately not rewound by checkpoints). *)
let load t addr =
  let served = load_raw t addr in
  let noise = !(t.noise) in
  let jitter =
    if noise.jitter_sigma <= 0.0 then 0
    else
      int_of_float
        (Float.round (Cq_util.Prng.gaussian t.prng ~mu:0.0 ~sigma:noise.jitter_sigma))
  in
  let outlier =
    if noise.outlier_prob > 0.0 && Cq_util.Prng.bool t.prng noise.outlier_prob then
      noise.outlier_cycles
    else 0
  in
  let burst =
    if t.burst_remaining > 0 then begin
      t.burst_remaining <- t.burst_remaining - 1;
      noise.burst_cycles
    end
    else if noise.burst_prob > 0.0 && Cq_util.Prng.bool t.prng noise.burst_prob
    then begin
      t.burst_remaining <- max 0 (noise.burst_len - 1);
      noise.burst_cycles
    end
    else 0
  in
  let drift =
    if noise.drift_rate <= 0.0 then 0
    else int_of_float (noise.drift_rate *. float_of_int t.loads)
  in
  max 1 (base_latency t served + jitter + outlier + burst + drift)

(* Checkpoint the full architectural state: all three levels (content,
   replacement metadata, lazily-allocated set population), the set-dueling
   counter, the prefetcher state and the noise state (PRNG position and
   the active burst).  The [loads] counter is deliberately *not* rewound —
   it counts work performed, which is what the engine benchmark measures
   (and what latency drift keys on).  This is the primitive that lets
   Polca's word-trie sessions share prefixes through the CacheQuery
   frontend.

   [rewind_noise:false] restores the architectural state but leaves the
   noise stream where it is, so re-executing the same access draws an
   *independent* measurement — exactly what re-measuring a disputed load
   on silicon does.  The voting layer uses this; sessions keep the default,
   so sibling branches replay the same noise.

   Each level checkpoint is O(1) (its sets are copy-on-write), so this is
   a handful of captured values and the restore a handful of writes. *)
let checkpoint ?(rewind_noise = true) t =
  let l1 = t.l1 and l2 = t.l2 and l3 = t.l3 in
  let restore_l1 = Cache_level.checkpoint l1 in
  let restore_l2 = Cache_level.checkpoint l2 in
  let restore_l3 = Cache_level.checkpoint l3 in
  let psel = t.psel and prefetchers = t.prefetchers and last_line = t.last_line in
  let restore_prng = Cq_util.Prng.checkpoint t.prng in
  let burst_remaining = t.burst_remaining in
  fun () ->
    t.l1 <- l1;
    t.l2 <- l2;
    t.l3 <- l3;
    restore_l1 ();
    restore_l2 ();
    restore_l3 ();
    t.psel <- psel;
    t.prefetchers <- prefetchers;
    t.last_line <- last_line;
    if rewind_noise then begin
      restore_prng ();
      t.burst_remaining <- burst_remaining
    end

let clflush t addr =
  let line = line_of_addr t addr in
  Cache_level.invalidate t.l1 ~slice:0 ~set:(set_of_line t.l1 line) ~line;
  Cache_level.invalidate t.l2 ~slice:0 ~set:(set_of_line t.l2 line) ~line;
  Cache_level.invalidate t.l3 ~slice:(slice_of_addr t addr)
    ~set:(set_of_line t.l3 line) ~line

let wbinvd t =
  List.iter
    (fun level -> Cache_level.flush_content (level_cache t level))
    Cpu_model.all_levels

(* Batch replay: drive a block-id trace through one (slice, set) of a
   level, classifying each access by the level that served it.  Block id
   [b] maps to the [b]-th address congruent with the set; a hit is an
   access served at [level] or closer to the core.  This is the
   hwsim-as-load-source entry point the workload engine's differential
   tests drive. *)
let replay_set ?universe t level ~slice ~set blocks =
  let n_blocks =
    match universe with
    | Some n -> n
    | None -> 1 + Array.fold_left max (-1) blocks
  in
  Array.iter
    (fun b ->
      if b < 0 || b >= n_blocks then
        invalid_arg "Machine.replay_set: block id out of range")
    blocks;
  let addrs =
    Array.of_list (congruent_addresses t level ~slice ~set n_blocks)
  in
  let n = Array.length blocks in
  let stream = Bytes.make n '\000' in
  let hit served =
    match (level, served) with
    | Cpu_model.L1, `L1 -> true
    | Cpu_model.L2, (`L1 | `L2) -> true
    | Cpu_model.L3, (`L1 | `L2 | `L3) -> true
    | _ -> false
  in
  for j = 0 to n - 1 do
    let served = load_raw t addrs.(Array.unsafe_get blocks j) in
    if hit served then Bytes.unsafe_set stream j '\001'
  done;
  stream

(* Test-only introspection into a set's tags. *)
let peek_set t level ~slice ~set =
  Cache_level.peek_content (level_cache t level) ~slice ~set

