(* The cache-semantics oracle consumed by Polca (the paper's ⟦C⟧).

   A query is a sequence of block accesses executed from the cache's fixed
   initial configuration; the oracle returns the hit/miss outcome of every
   access.  Both the software-simulated cache (§6) and CacheQuery over
   hardware (§7) implement this interface, which is exactly what makes
   Polca agnostic to where the cache lives.

   [query_batch] answers several independent queries at once.  Oracles
   built by [of_cache_set] execute batches through the prefix-sharing trie
   executor (see Batch); [sequential] degrades a batch to per-query replay
   (the ablation baseline), and any hand-rolled oracle can start from
   [sequential_batch] as a correct fallback. *)

type t = {
  assoc : int;
  initial_content : Block.t array; (* cc0, known to Polca *)
  query : Block.t list -> Cache_set.result list;
  query_batch : Block.t list list -> Cache_set.result list list;
  prefix_sharing : bool;
      (* whether [query_batch] executes through a prefix-sharing trie;
         drives the accesses-saved accounting in [counting] *)
  ops : (Block.t, Cache_set.result) Batch.ops option;
      (* direct access to the device primitives behind the executor
         (reset / single access / checkpoint).  Consumers that build their
         own adaptive prefix-sharing plans — Polca's session mode — drive
         these directly instead of materialising per-query block lists.
         [None] when the device cannot support it (sequential ablation,
         noise models that need whole-query replay, hardware with
         repetitions > 1). *)
}

(* Registry-backed accounting (Cq_util.Metrics): each field is a named
   counter, so legacy report fields and their metrics-registry
   counterparts are the same cells, and one registry shared across the
   pipeline layers exports the whole run at once. *)
type stats = {
  queries : Cq_util.Metrics.counter; (* oracle queries issued *)
  block_accesses : Cq_util.Metrics.counter; (* total blocks across queries *)
  memo_hits : Cq_util.Metrics.counter; (* queries answered from the memo *)
  batches : Cq_util.Metrics.counter; (* query_batch calls *)
  batched_queries : Cq_util.Metrics.counter; (* queries carried by batches *)
  accesses_saved : Cq_util.Metrics.counter; (* avoided by prefix sharing *)
  memo_overflows : Cq_util.Metrics.counter; (* bounded memo table clears *)
  (* Noise-layer accounting: *)
  timed_loads : Cq_util.Metrics.counter; (* physical timed loads (hardware) *)
  vote_runs : Cq_util.Metrics.counter; (* extra runs spent on voting *)
  transient_flips : Cq_util.Metrics.counter; (* ND words absorbed by retry *)
  retry_attempts : Cq_util.Metrics.counter; (* word re-executions issued *)
  (* Per-span distributions: *)
  batch_depth : Cq_util.Metrics.histogram;
      (* queries carried per batch (trie fan-in / session probe count) *)
  vote_escalations : Cq_util.Metrics.histogram;
      (* runs spent per voted access that entered the voting loop *)
}

let fresh_stats ?registry ?(prefix = "oracle") ?timed_loads ?vote_runs () =
  let r =
    match registry with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let c field = Cq_util.Metrics.counter r (prefix ^ "." ^ field) in
  {
    queries = c "queries";
    block_accesses = c "block_accesses";
    memo_hits = c "memo_hits";
    batches = c "batches";
    batched_queries = c "batched_queries";
    accesses_saved = c "accesses_saved";
    memo_overflows = c "memo_overflows";
    timed_loads =
      (match timed_loads with Some l -> l | None -> c "timed_loads");
    vote_runs = (match vote_runs with Some v -> v | None -> c "vote_runs");
    transient_flips = c "transient_flips";
    retry_attempts = c "retry_attempts";
    batch_depth =
      Cq_util.Metrics.histogram ~buckets:16 r (prefix ^ ".batch_depth");
    vote_escalations =
      Cq_util.Metrics.histogram ~buckets:8 r (prefix ^ ".vote_escalations");
  }

(* A correct [query_batch] for oracles without native batch support. *)
let sequential_batch query batch = List.map query batch

let of_cache_set set =
  let ops =
    {
      Batch.reset = (fun () -> Cache_set.reset set);
      access = Cache_set.access set;
      checkpoint =
        (fun () ->
          let s = Cache_set.snapshot set in
          fun () -> Cache_set.restore s);
    }
  in
  {
    assoc = Cache_set.assoc set;
    initial_content = Cache_set.initial_content set;
    query = Cache_set.run_from_reset set;
    query_batch = Batch.run ops;
    prefix_sharing = true;
    ops = Some ops;
  }

let of_policy ?initial_content policy =
  of_cache_set (Cache_set.create ?initial_content policy)

(* Replace batch execution with naive per-query replay — the sequential
   baseline of the engine benchmark. *)
let sequential t =
  {
    t with
    query_batch = sequential_batch t.query;
    prefix_sharing = false;
    ops = None;
  }

let counting stats t =
  {
    t with
    query =
      (fun blocks ->
        Cq_util.Metrics.incr stats.queries;
        Cq_util.Metrics.add stats.block_accesses (List.length blocks);
        t.query blocks);
    query_batch =
      (fun batch ->
        let n = List.length batch in
        Cq_util.Metrics.incr stats.batches;
        Cq_util.Metrics.add stats.batched_queries n;
        Cq_util.Metrics.add stats.queries n;
        Cq_util.Metrics.observe stats.batch_depth (float_of_int n);
        let naive, shared = Batch.plan_cost batch in
        (* [block_accesses] stays the logical (per-query) cost so numbers
           remain comparable with the paper's query counts; the sharing
           win is reported separately. *)
        Cq_util.Metrics.add stats.block_accesses naive;
        if t.prefix_sharing then
          Cq_util.Metrics.add stats.accesses_saved (naive - shared);
        t.query_batch batch);
  }

(* Memoization table over whole queries — the role LevelDB plays in the
   CacheQuery frontend.  Sound because queries always start from the reset
   state, so equal block sequences yield equal results.  [max_entries]
   bounds the table with clear-on-overflow semantics (recorded in
   [stats.memo_overflows]) so unbounded learning runs cannot grow the memo
   without limit. *)
let memoized ?stats ?max_entries t =
  (* Keys are block traces with long shared prefixes: pack them with a deep
     hash or the table degenerates into one bucket. *)
  let table : (Block.t list Cq_util.Deep.t, Cache_set.result list) Hashtbl.t =
    Hashtbl.create 4096
  in
  (match max_entries with
  | Some n when n < 1 -> invalid_arg "Oracle.memoized: max_entries must be >= 1"
  | _ -> ());
  let note_memo_hit () =
    match stats with Some s -> Cq_util.Metrics.incr s.memo_hits | None -> ()
  in
  let store key r =
    (match max_entries with
    | Some n when Hashtbl.length table >= n ->
        Hashtbl.reset table;
        (match stats with
        | Some s -> Cq_util.Metrics.incr s.memo_overflows
        | None -> ())
    | _ -> ());
    (* [replace], not [add]: re-storing a key (a query recomputed after an
       overflow reset, or re-executed through the batch path) must not
       stack a second binding under the first. *)
    Hashtbl.replace table key r
  in
  {
    t with
    query =
      (fun blocks ->
        let key = Cq_util.Deep.pack blocks in
        match Hashtbl.find_opt table key with
        | Some r ->
            note_memo_hit ();
            r
        | None ->
            let r = t.query blocks in
            store key r;
            r);
    query_batch =
      (fun batch ->
        (* Serve memo hits locally; forward the (deduplicated) misses as
           one batch and fill the table from its results. *)
        let keyed = List.map (fun q -> (Cq_util.Deep.pack q, q)) batch in
        let missing = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun (key, q) ->
            if (not (Hashtbl.mem table key)) && not (Hashtbl.mem missing key)
            then begin
              Hashtbl.replace missing key ();
              order := q :: !order
            end)
          keyed;
        let todo = List.rev !order in
        (if todo <> [] then
           let answers = t.query_batch todo in
           List.iter2
             (fun q r -> store (Cq_util.Deep.pack q) r)
             todo answers);
        List.map
          (fun (key, _) ->
            match Hashtbl.find_opt table key with
            | Some r ->
                if not (Hashtbl.mem missing key) then note_memo_hit ();
                r
            | None ->
                (* The table was cleared by an overflow while this batch
                   was being filled: fall back to a direct query. *)
                t.query (Cq_util.Deep.unpack key))
          keyed);
  }

(* Artificial misclassification noise: each individual hit/miss outcome is
   flipped with probability [p].  Used to stress-test the majority-vote
   denoising in CacheQuery and the failure modes discussed in §9. *)
let noisy ~prng ~p t =
  let flip results =
    List.map
      (fun r ->
        if Cq_util.Prng.bool prng p then
          match r with Cache_set.Hit -> Cache_set.Miss | Cache_set.Miss -> Cache_set.Hit
        else r)
      results
  in
  {
    t with
    query = (fun blocks -> flip (t.query blocks));
    query_batch = (fun batch -> List.map flip (t.query_batch batch));
    (* Per-outcome noise consumes PRNG draws in query order; session-style
       checkpointed execution would desynchronise the stream, so force
       consumers back onto the query paths. *)
    ops = None;
  }
