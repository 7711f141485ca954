(* The CacheQuery frontend (§4.2): expands MBL expressions, executes them
   through the backend with a configurable reset sequence and majority
   voting, memoizes query responses (the role LevelDB plays in the paper's
   implementation), and exposes the cache-oracle interface that Polca
   consumes. *)

type reset =
  | No_reset
  | Flush_refill (* clflush everything, then access '@' *)
  | Sequence of Cq_mbl.Ast.t (* e.g. '@ @' or 'D C B A @' *)
  | Flush_then of Cq_mbl.Ast.t (* clflush everything, then run the query *)

let reset_to_string = function
  | No_reset -> "none"
  | Flush_refill -> "F+R"
  | Sequence ast -> Cq_mbl.Ast.to_string ast
  | Flush_then ast -> "F+ " ^ Cq_mbl.Ast.to_string ast

(* Majority voting discipline.  Repetition counts must be odd: an even cap
   can tie, and any fixed tie-break silently biases the vote (the old code
   defaulted ties to Miss). *)
type voting =
  | Fixed of int (* always this many repetitions; 1 disables voting *)
  | Adaptive of { max : int }
      (* stop re-measuring as soon as the majority-of-[max] outcome is
         decided for every profiled position; never exceed [max] *)

let validate_voting = function
  | Fixed n ->
      if n < 1 then invalid_arg "Frontend: repetitions must be >= 1";
      if n <> 1 && n mod 2 = 0 then
        invalid_arg "Frontend: repetitions must be odd (even counts can tie)"
  | Adaptive { max } ->
      if max < 1 then invalid_arg "Frontend: max repetitions must be >= 1";
      if max <> 1 && max mod 2 = 0 then
        invalid_arg
          "Frontend: max repetitions must be odd (even counts can tie)"

type t = {
  backend : Backend.t;
  assoc : int; (* effective associativity of the target level *)
  mutable reset : reset;
  mutable reset_query : Cq_mbl.Expand.query option; (* [reset], expanded *)
  mutable voting : voting;
  mutable memo_enabled : bool;
  memo :
    (Cq_cache.Block.t list Cq_util.Deep.t, Cq_cache.Cache_set.result list)
    Hashtbl.t;
  stats : Cq_cache.Oracle.stats;
  metrics : Cq_util.Metrics.t option; (* for the static-analysis counters *)
}

(* The query a reset runs after its flush, if any: expanded once, when the
   reset is configured, not on each of the tens of thousands of resets of
   a learn. *)
let expand_reset ~assoc reset =
  let single ast =
    match Cq_mbl.Expand.expand ~assoc ast with
    | [ q ] -> Some q
    | _ -> invalid_arg "Frontend: reset sequence must expand to a single query"
  in
  match reset with
  | No_reset -> None
  | Flush_refill -> single Cq_mbl.Ast.At
  | Sequence ast | Flush_then ast -> single ast

let create ?(reset = Flush_refill) ?(voting = Fixed 1) ?metrics backend =
  validate_voting voting;
  let machine = Backend.machine backend in
  let target = Backend.target backend in
  let assoc = Cq_hwsim.Machine.effective_assoc machine target.Backend.level in
  {
    backend;
    assoc;
    reset;
    reset_query = expand_reset ~assoc reset;
    voting;
    memo_enabled = true;
    memo = Hashtbl.create 8192;
    (* The frontend is the pipeline's *device* layer; distinct prefix so
       it can share a registry with the learn-level oracle wrappers. *)
    stats =
      Cq_cache.Oracle.fresh_stats ?registry:metrics ~prefix:"frontend"
        ~timed_loads:(Backend.load_counter backend) ();
    metrics;
  }

let backend t = t.backend
let assoc t = t.assoc
let stats t = t.stats
let set_reset t reset =
  t.reset_query <- expand_reset ~assoc:t.assoc reset;
  t.reset <- reset

let set_voting t v =
  validate_voting v;
  t.voting <- v

let voting t = t.voting

let set_repetitions t n = set_voting t (Fixed n)

let set_memo t enabled = t.memo_enabled <- enabled
let clear_memo t = Hashtbl.reset t.memo
let memo_size t = Hashtbl.length t.memo

(* Store a memo binding.  [Hashtbl.replace], not [add]: re-inserting the
   same key (races between the batch path and the sequential fallback)
   must not pile up duplicate bindings that distort [Hashtbl.length] and
   shadow on removal. *)
let memo_store t key r = Hashtbl.replace t.memo key r

(* Statically analyse an MBL expression against the target's
   associativity, without expanding or executing anything. *)
let check t input =
  Cq_analysis.Mbl_check.check_string ?registry:t.metrics ~assoc:t.assoc input

(* Expand an MBL expression at the target's associativity.  The static
   simplifier runs first: it flattens the AST when that provably preserves
   the expansion (identical query list), and passes rejected or delicate
   programs through untouched — so this raises exactly the
   [Expansion_error]s it always did. *)
let expand t input =
  let ast = Cq_mbl.Parser.parse input in
  let ast = Cq_analysis.Mbl_check.simplify ~assoc:t.assoc ast in
  Cq_mbl.Expand.expand ~assoc:t.assoc ast

let apply_reset t =
  Cq_util.Trace.with_span ~cat:"frontend" "frontend.reset" @@ fun () ->
  (* A reset boundary is the only safe point to honour a drift-triggered
     recalibration: calibration sweeps the target set, and the flushing
     resets below wipe its traces before the next query starts.  Non-flush
     resets cannot clean up after a sweep, so the request stays pending. *)
  (match t.reset with
  | Flush_refill | Flush_then _ ->
      ignore (Backend.maybe_recalibrate t.backend : bool);
      Backend.flush_all_known t.backend
  | No_reset | Sequence _ -> ());
  Option.iter (fun q -> ignore (Backend.run_query t.backend q)) t.reset_query

(* Execute one expanded query: reset, run, and majority-vote over whole-
   query re-executions.  Returns the voted outcomes and the number of runs
   actually executed.  Votes are tallied with one pass per run over
   per-position counters (the old code was O(L²): [List.nth run i] inside
   [List.mapi]).  Under [Adaptive] voting a position is decided once its
   leader holds a strict majority of the cap — no sequence of further runs
   can overturn it — and execution stops when every position is decided. *)
let run_expanded_counted t (q : Cq_mbl.Expand.query) =
  let one () =
    apply_reset t;
    Backend.run_query t.backend q
  in
  match t.voting with
  | Fixed 1 | Adaptive { max = 1 } -> (one (), 1)
  | (Fixed cap | Adaptive { max = cap }) as v ->
      let first = one () in
      let len = List.length first in
      let hits = Array.make len 0 in
      let tally run =
        List.iteri
          (fun i r ->
            if Cq_cache.Cache_set.result_is_hit r then hits.(i) <- hits.(i) + 1)
          run
      in
      tally first;
      let runs = ref 1 in
      let decided i =
        2 * hits.(i) > cap || 2 * (!runs - hits.(i)) > cap
      in
      let all_decided () =
        match v with
        | Fixed _ -> false (* fixed voting always runs the full cap *)
        | Adaptive _ ->
            let ok = ref true in
            for i = 0 to len - 1 do
              if not (decided i) then ok := false
            done;
            !ok
      in
      while !runs < cap && not (all_decided ()) do
        tally (one ());
        incr runs
      done;
      ( List.init len (fun i ->
            if 2 * hits.(i) > cap then Cq_cache.Cache_set.Hit
            else Cq_cache.Cache_set.Miss),
        !runs )

let run_expanded t q = fst (run_expanded_counted t q)

(* Run an MBL expression; returns each expanded query with the hit/miss
   outcomes of its profiled accesses. *)
let run_mbl t input =
  List.map (fun q -> (q, run_expanded t q)) (expand t input)

(* --- Oracle view (what Polca talks to) -------------------------------- *)

(* One voted access — the primitive that keeps session mode alive under
   voting.  Instead of replaying whole queries per repetition, take a
   machine checkpoint *before* the access and re-run only this access when
   its outcome is disputed.  [rewind_noise:false] restores the
   architectural state but lets the measurement-noise stream advance, so
   re-measurements draw independent noise (re-measuring under replayed
   noise would reproduce the same corrupted latency [max]-fold).  State
   transitions are latency-independent, so the post-access state is the
   same whichever sample ran last.

   Fast paths: noise only *adds* cycles, so a single sample far below the
   threshold ([Backend.confident_hit]) — or inside the next-level latency
   population ([Backend.confident_miss]) — is accepted without
   re-measuring; only readings crowding the threshold or beyond the miss
   ceiling (potential outlier spikes) are voted.  This is where adaptive
   voting wins most of its timed loads back.  Between re-measurements,
   [Backend.settle] lets common-mode noise bursts expire so consecutive
   samples of a disputed access cannot all land inside one burst. *)
let voted_access t b =
  match t.voting with
  | Fixed 1 | Adaptive { max = 1 } ->
      Backend.classify t.backend (Backend.timed_load t.backend b)
  | (Fixed cap | Adaptive { max = cap }) as v ->
      let adaptive = match v with Adaptive _ -> true | Fixed _ -> false in
      let machine = Backend.machine t.backend in
      let restore =
        Cq_hwsim.Machine.checkpoint ~rewind_noise:false machine
      in
      let cycles = Backend.timed_load t.backend b in
      if
        adaptive
        && (Backend.confident_hit t.backend cycles
           || Backend.confident_miss t.backend cycles)
      then
        (* still classify: the drift detector must see this latency *)
        Backend.classify t.backend cycles
      else begin
        let hits = ref 0 and runs = ref 1 in
        let sample cycles =
          if
            Cq_cache.Cache_set.result_is_hit
              (Backend.classify t.backend cycles)
          then incr hits
        in
        sample cycles;
        let decided () =
          adaptive && (2 * !hits > cap || 2 * (!runs - !hits) > cap)
        in
        while !runs < cap && not (decided ()) do
          restore ();
          Backend.settle t.backend;
          Cq_util.Metrics.incr t.stats.Cq_cache.Oracle.vote_runs;
          sample (Backend.timed_load t.backend b);
          incr runs
        done;
        Cq_util.Metrics.observe t.stats.Cq_cache.Oracle.vote_escalations
          (float_of_int !runs);
        if 2 * !hits > cap then Cq_cache.Cache_set.Hit
        else Cq_cache.Cache_set.Miss
      end

(* The device primitives behind the batch executor: reset via the
   configured reset sequence, a single voted access, and a whole-machine
   checkpoint.  Also handed to Polca (Oracle.ops) for session-mode
   execution — voting now happens *inside* [access], so session mode and
   prefix sharing stay enabled at any repetition setting. *)
let batch_ops t =
  let machine = Backend.machine t.backend in
  {
    Cq_cache.Batch.reset = (fun () -> apply_reset t);
    access = (fun b -> voted_access t b);
    checkpoint = (fun () -> Cq_hwsim.Machine.checkpoint machine);
  }

(* A Polca query accesses a sequence of blocks, profiling every access.
   Executed through the voted-access primitive (reset once, then one voted
   access per block) rather than whole-query replay. *)
let query_blocks t blocks =
  let key = Cq_util.Deep.pack blocks in
  let cached = if t.memo_enabled then Hashtbl.find_opt t.memo key else None in
  match cached with
  | Some r ->
      Cq_util.Metrics.incr t.stats.Cq_cache.Oracle.memo_hits;
      r
  | None ->
      (fun run ->
        if Cq_util.Trace.enabled () then
          Cq_util.Trace.with_span ~cat:"frontend"
            ~args:[ ("blocks", string_of_int (List.length blocks)) ]
            "frontend.query" run
        else run ())
      @@ fun () ->
      Cq_util.Metrics.incr t.stats.Cq_cache.Oracle.queries;
      let votes0 = Cq_util.Metrics.value t.stats.Cq_cache.Oracle.vote_runs in
      apply_reset t;
      let r = List.map (voted_access t) blocks in
      (* Count *actual* executed accesses (base run + vote re-measurements),
         not the logical per-query length: with repetitions > 1 the old
         accounting made every cost column lie. *)
      Cq_util.Metrics.add t.stats.Cq_cache.Oracle.block_accesses
        (List.length blocks
        + (Cq_util.Metrics.value t.stats.Cq_cache.Oracle.vote_runs - votes0));
      if t.memo_enabled then memo_store t key r;
      r

(* Batched Polca queries with prefix sharing: reset once, fold the batch
   into a trie, and walk it DFS with machine checkpoints at branch points
   (Machine.checkpoint) instead of a reset-and-replay per query.  Valid
   under the same assumption the memo table already relies on — a
   validated reset sequence makes query outcomes deterministic — and,
   since voting moved inside the access primitive, at *any* repetition
   setting (disputed accesses re-run from a pre-access checkpoint; the
   trie structure is unaffected). *)
let query_blocks_batch t batches =
  let keyed = List.map (fun q -> (Cq_util.Deep.pack q, q)) batches in
  (* Deduplicated memo misses, in batch order. *)
  let missing = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (key, q) ->
      let known = t.memo_enabled && Hashtbl.mem t.memo key in
      if (not known) && not (Hashtbl.mem missing key) then begin
        Hashtbl.replace missing key ();
        order := q :: !order
      end)
    keyed;
  let todo = List.rev !order in
  let fresh = Hashtbl.create 16 in
  (if todo <> [] then begin
     (fun run ->
       if Cq_util.Trace.enabled () then
         Cq_util.Trace.with_span ~cat:"frontend"
           ~args:[ ("queries", string_of_int (List.length todo)) ]
           "frontend.batch" run
       else run ())
     @@ fun () ->
     (* Assign block addresses in batch order, so the block->address map
        is independent of the trie traversal order and matches what
        sequential execution would have produced. *)
     List.iter
       (List.iter (fun b -> ignore (Backend.addr_of_block t.backend b)))
       todo;
     let naive, shared = Cq_cache.Batch.plan_cost todo in
     Cq_util.Metrics.incr t.stats.Cq_cache.Oracle.batches;
     Cq_util.Metrics.add t.stats.Cq_cache.Oracle.batched_queries
       (List.length todo);
     Cq_util.Metrics.add t.stats.Cq_cache.Oracle.queries (List.length todo);
     Cq_util.Metrics.add t.stats.Cq_cache.Oracle.accesses_saved
       (naive - shared);
     Cq_util.Metrics.observe t.stats.Cq_cache.Oracle.batch_depth
       (float_of_int (List.length todo));
     let votes0 = Cq_util.Metrics.value t.stats.Cq_cache.Oracle.vote_runs in
     let answers = Cq_cache.Batch.run (batch_ops t) todo in
     (* Actual executed accesses: the shared trie walk plus whatever the
        voting layer re-measured. *)
     Cq_util.Metrics.add t.stats.Cq_cache.Oracle.block_accesses
       (shared
       + (Cq_util.Metrics.value t.stats.Cq_cache.Oracle.vote_runs - votes0));
     List.iter2
       (fun q r ->
         let key = Cq_util.Deep.pack q in
         Hashtbl.replace fresh key r;
         if t.memo_enabled then memo_store t key r)
       todo answers
   end);
  List.map
    (fun (key, q) ->
      match Hashtbl.find_opt fresh key with
      | Some r -> r
      | None -> (
          match
            if t.memo_enabled then Hashtbl.find_opt t.memo key else None
          with
          | Some r ->
              Cq_util.Metrics.incr t.stats.Cq_cache.Oracle.memo_hits;
              r
          | None -> query_blocks t q))
    keyed

let oracle t =
  {
    Cq_cache.Oracle.assoc = t.assoc;
    initial_content = Array.of_list (Cq_cache.Block.first t.assoc);
    query = query_blocks t;
    query_batch = query_blocks_batch t;
    (* Voting lives inside the access primitive now, so the batched path
       and session mode stay available at every repetition setting. *)
    prefix_sharing = true;
    ops = Some (batch_ops t);
  }
