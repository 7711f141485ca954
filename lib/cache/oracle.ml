(* The cache-semantics oracle consumed by Polca (the paper's ⟦C⟧).

   A query is a sequence of block accesses executed from the cache's fixed
   initial configuration; the oracle returns the hit/miss outcome of every
   access.  Both the software-simulated cache (§6) and CacheQuery over
   hardware (§7) implement this interface, which is exactly what makes
   Polca agnostic to where the cache lives.

   Prefix sharing happens above the oracle: Polca drives the device
   primitives in [ops] (see Batch) as word-trie sessions. *)

type t = {
  assoc : int;
  initial_content : Block.t array; (* cc0, known to Polca *)
  query : Block.t list -> Cache_set.result list;
  query_batch : Block.t list list -> Cache_set.result list list;
      (* [List.map query]; kept only because perfbench builds oracles
         with it *)
  ops : (Block.t, Cache_set.result) Batch.ops option;
      (* the device primitives (reset / single access / checkpoint) that
         Polca's session mode drives.  [None] when the device cannot
         checkpoint; Polca then replays each probe through [query]. *)
}

(* Registry-backed accounting (Cq_util.Metrics): each field is a named
   counter, so legacy report fields and their metrics-registry
   counterparts are the same cells, and one registry shared across the
   pipeline layers exports the whole run at once. *)
type stats = {
  queries : Cq_util.Metrics.counter; (* oracle queries issued *)
  block_accesses : Cq_util.Metrics.counter; (* total blocks across queries *)
  memo_hits : Cq_util.Metrics.counter; (* queries answered from the memo *)
  batches : Cq_util.Metrics.counter; (* Polca sessions run *)
  batched_queries : Cq_util.Metrics.counter; (* probes those sessions answered *)
  accesses_saved : Cq_util.Metrics.counter; (* avoided by prefix sharing *)
  (* Noise-layer accounting: *)
  timed_loads : Cq_util.Metrics.counter; (* physical timed loads (hardware) *)
  vote_runs : Cq_util.Metrics.counter; (* extra runs spent on voting *)
  transient_flips : Cq_util.Metrics.counter; (* ND words absorbed by retry *)
  retry_attempts : Cq_util.Metrics.counter; (* word re-executions issued *)
  (* Per-span distributions: *)
  batch_depth : Cq_util.Metrics.histogram;
      (* probes answered per Polca session *)
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
  let query = Cache_set.run_from_reset set in
  {
    assoc = Cache_set.assoc set;
    initial_content = Cache_set.initial_content set;
    query;
    query_batch = List.map query;
    ops = Some ops;
  }

let of_policy ?initial_content policy =
  of_cache_set (Cache_set.create ?initial_content policy)

let counting stats t =
  let query blocks =
    Cq_util.Metrics.incr stats.queries;
    Cq_util.Metrics.add stats.block_accesses (List.length blocks);
    t.query blocks
  in
  { t with query; query_batch = List.map query }

(* Memoization table over whole queries — the role LevelDB plays in the
   CacheQuery frontend.  Sound because queries always start from the reset
   state, so equal block sequences yield equal results. *)
let memoized ?stats t =
  (* Keys are block traces with long shared prefixes: pack them with a deep
     hash or the table degenerates into one bucket. *)
  let table : (Block.t list Cq_util.Deep.t, Cache_set.result list) Hashtbl.t =
    Hashtbl.create 4096
  in
  let note_memo_hit () =
    match stats with Some s -> Cq_util.Metrics.incr s.memo_hits | None -> ()
  in
  let query blocks =
    let key = Cq_util.Deep.pack blocks in
    match Hashtbl.find_opt table key with
    | Some r ->
        note_memo_hit ();
        r
    | None ->
        let r = t.query blocks in
        Hashtbl.replace table key r;
        r
  in
  { t with query; query_batch = List.map query }
