(* Membership oracle for Mealy-machine learning: answers *output queries*,
   i.e. maps an input word to the output word produced from the (fixed)
   initial state of the system under learning.

   This is the interface between the L* learner and Polca: Polca implements
   [query] by translating policy inputs into cache probes (Algorithm 1).

   [query_batch] answers several independent words at once.  The learner
   collects the missing observation-table cells of a closure round and
   fills them with one batch, which lets the layers below (Polca, the
   cache oracle) batch and prefix-share the induced block traces. *)

type 'o t = {
  n_inputs : int;
  query : int list -> 'o list;
  query_batch : int list list -> 'o list list;
}

exception Inconsistent of string

(* Smart constructor: derives the sequential [query_batch] fallback. *)
let make ?query_batch ~n_inputs query =
  {
    n_inputs;
    query;
    query_batch =
      (match query_batch with Some qb -> qb | None -> List.map query);
  }

(* Registry-backed accounting: fields are named counters in a
   Cq_util.Metrics registry, plus a latency histogram over the
   membership queries that actually reach the system under learning. *)
type stats = {
  queries : Cq_util.Metrics.counter; (* queries reaching the system *)
  symbols : Cq_util.Metrics.counter; (* total input symbols of those *)
  cache_hits : Cq_util.Metrics.counter; (* answered by the prefix cache *)
  batches : Cq_util.Metrics.counter; (* query_batch calls reaching it *)
  conflicts : Cq_util.Metrics.counter; (* prefix-cache conflicts arbitrated *)
  latency : Cq_util.Metrics.histogram;
      (* seconds per membership query/batch reaching the system *)
}

let fresh_stats ?registry ?(prefix = "member") () =
  let r =
    match registry with Some r -> r | None -> Cq_util.Metrics.create ()
  in
  let c field = Cq_util.Metrics.counter r (prefix ^ "." ^ field) in
  {
    queries = c "queries";
    symbols = c "symbols";
    cache_hits = c "cache_hits";
    batches = c "batches";
    conflicts = c "conflicts";
    (* 1 µs .. ~1 h in factor-2 buckets *)
    latency =
      Cq_util.Metrics.histogram ~buckets:32 ~start:1e-6 r
        (prefix ^ ".latency_seconds");
  }

let counting stats t =
  {
    t with
    query =
      (fun w ->
        Cq_util.Metrics.incr stats.queries;
        Cq_util.Metrics.add stats.symbols (List.length w);
        let r, seconds = Cq_util.Clock.time (fun () -> t.query w) in
        Cq_util.Metrics.observe stats.latency seconds;
        r);
    query_batch =
      (fun ws ->
        Cq_util.Metrics.incr stats.batches;
        Cq_util.Metrics.add stats.queries (List.length ws);
        Cq_util.Metrics.add stats.symbols
          (List.fold_left (fun a w -> a + List.length w) 0 ws);
        let r, seconds = Cq_util.Clock.time (fun () -> t.query_batch ws) in
        Cq_util.Metrics.observe stats.latency seconds;
        r);
  }

(* Prefix-tree cache.  Output queries are prefix-closed (the outputs of a
   prefix are a prefix of the outputs), so a trie lets us answer any query
   whose whole path is known, and to extend partial knowledge cheaply. *)
module Trie = struct
  type 'o node = {
    mutable out : 'o option; (* output on the edge leading here *)
    children : (int, 'o node) Hashtbl.t;
  }

  let create () = { out = None; children = Hashtbl.create 4 }

  let rec lookup node = function
    | [] -> Some []
    | i :: rest -> (
        match Hashtbl.find_opt node.children i with
        | None -> None
        | Some child -> (
            match child.out with
            | None -> None
            | Some o -> (
                match lookup child rest with
                | None -> None
                | Some os -> Some (o :: os))))

  let insert node word outputs =
    let rec go node word outputs =
      match (word, outputs) with
      | [], [] -> ()
      | i :: wrest, o :: orest ->
          let child =
            match Hashtbl.find_opt node.children i with
            | Some c -> c
            | None ->
                let c = create () in
                Hashtbl.add node.children i c; (* cq-lint: allow hashtbl-add: find_opt miss *)
                c
          in
          (match child.out with
          | None -> child.out <- Some o
          | Some o' ->
              if o' <> o then
                raise
                  (Inconsistent
                     "Moracle: inconsistent outputs for the same input word \
                      (the system under learning is nondeterministic)"));
          go child wrest orest
      | _ -> invalid_arg "Moracle.Trie.insert: length mismatch"
    in
    go node word outputs

  (* Overwrite the outputs along [word] unconditionally — used when
     arbitration decided a previously cached answer was the corrupt one. *)
  let insert_force node word outputs =
    let rec go node word outputs =
      match (word, outputs) with
      | [], [] -> ()
      | i :: wrest, o :: orest ->
          let child =
            match Hashtbl.find_opt node.children i with
            | Some c -> c
            | None ->
                let c = create () in
                Hashtbl.add node.children i c; (* cq-lint: allow hashtbl-add: find_opt miss *)
                c
          in
          child.out <- Some o;
          go child wrest orest
      | _ -> invalid_arg "Moracle.Trie.insert_force: length mismatch"
    in
    go node word outputs

  (* Maximal known paths: the trie is prefix-closed (every non-root node
     carries an output), so the root-to-leaf words reconstruct the entire
     trie under [insert_force].  This is the session-snapshot dump. *)
  let export root =
    let acc = ref [] in
    let n = ref 0 in
    let rec go node rev_word rev_out =
      if Hashtbl.length node.children = 0 then begin
        if rev_word <> [] then begin
          acc := (List.rev rev_word, List.rev rev_out) :: !acc;
          incr n
        end
      end
      else
        Hashtbl.iter
          (fun i child ->
            match child.out with
            | Some o -> go child (i :: rev_word) (o :: rev_out)
            | None -> () (* unreachable for tries built by insert *))
          node.children
    in
    go root [] [];
    !acc
end

(* The portable form of a prefix-trie's contents: (word, outputs) paths
   applied in order with [insert_force] semantics — the maximal paths of
   an export, or the mutations drained from a journal.  Abstract in the
   interface; sessions Marshal it into snapshots and log records and feed
   it back through [preload] on resume. *)
type 'o knowledge = (int list * 'o list) list

let knowledge_size k = List.length k
let knowledge_concat = List.concat

type 'o handle = {
  refresh : int list -> 'o list;
  export : unit -> 'o knowledge;
  preload : 'o knowledge -> unit;
  drain : unit -> 'o knowledge;
}

let cached_session ?stats ?(conflict_retries = 0) ?(journal = false) t =
  if conflict_retries < 0 then
    invalid_arg "Moracle.cached: conflict_retries must be >= 0";
  let root = Trie.create () in
  (* The journal: every trie mutation since the last [drain], newest
     first.  A failed [Trie.insert] mutates nothing (a conflict is found
     on the already-known part of the path, before any node is added), so
     only successful inserts are recorded. *)
  let log = ref [] in
  let insert w outputs =
    Trie.insert root w outputs;
    if journal then log := (w, outputs) :: !log
  in
  let insert_force w outputs =
    Trie.insert_force root w outputs;
    if journal then log := (w, outputs) :: !log
  in
  let drain () =
    let entries = List.rev !log in
    log := [];
    entries
  in
  let note_hit () =
    match stats with Some s -> Cq_util.Metrics.incr s.cache_hits | None -> ()
  in
  let note_conflict () =
    match stats with Some s -> Cq_util.Metrics.incr s.conflicts | None -> ()
  in
  let check_length w outputs =
    if List.length outputs <> List.length w then
      failwith "Moracle: output word length mismatch"
  in
  (* [outputs] for [w] conflicted with a cached prefix.  One of the two
     executions carried a transient measurement flip; arbitrate by
     re-executing.  A fresh run that agrees with the trie exonerates the
     cache (insert succeeds); two fresh runs agreeing with each other
     outvote the single cached execution, which is overwritten.  Only a
     system that keeps answering differently is reported nondeterministic. *)
  let arbitrate w first_outputs msg =
    note_conflict ();
    if conflict_retries = 0 then raise (Inconsistent msg);
    let rec go k prev =
      if k > conflict_retries then
        raise
          (Inconsistent
             (Printf.sprintf "%s (persisted through %d re-executions)" msg
                conflict_retries))
      else begin
        let outputs = t.query w in
        check_length w outputs;
        match insert w outputs with
        | () -> outputs
        | exception Inconsistent _ ->
            if prev = outputs then begin
              insert_force w outputs;
              outputs
            end
            else go (k + 1) outputs
      end
    in
    go 1 first_outputs
  in
  (* Bypass the cache: re-execute [w] on the system (until two consecutive
     runs agree, bounded by [conflict_retries]) and overwrite the cached
     path with the fresh answer.  This is how a caller who *suspects* a
     cached entry (e.g. a counterexample that may stem from a transient
     measurement flip) repairs the cache and gets a trustworthy answer. *)
  let refresh w =
    let rec settle k prev =
      let outputs = t.query w in
      check_length w outputs;
      if prev = Some outputs || k >= conflict_retries then outputs
      else settle (k + 1) (Some outputs)
    in
    let outputs = settle 0 None in
    (match Trie.lookup root w with
    | Some old when old <> outputs -> note_conflict ()
    | _ -> ());
    insert_force w outputs;
    outputs
  in
  (* [preload]: trust the snapshot unconditionally — it was digested at
     write time, and on resume the trie is empty anyway.  [insert_force]
     keeps a later entry authoritative if paths overlap. *)
  let preload knowledge =
    List.iter (fun (w, outputs) -> insert_force w outputs) knowledge
  in
  let export () = Trie.export root in
  ( {
      t with
      query =
      (fun w ->
        match Trie.lookup root w with
        | Some outputs ->
            note_hit ();
            outputs
        | None -> (
            let outputs = t.query w in
            check_length w outputs;
            match insert w outputs with
            | () -> outputs
            | exception Inconsistent msg -> arbitrate w outputs msg));
    query_batch =
      (fun ws ->
        (* Serve known words from the trie; forward the deduplicated rest
           as one batch and grow the trie from its answers.  Duplicates
           and prefix-of-another-miss words resolve from the trie after
           insertion. *)
        let missing = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun w ->
            if Trie.lookup root w = None then begin
              let key = Cq_util.Deep.pack w in
              if not (Hashtbl.mem missing key) then begin
                Hashtbl.replace missing key ();
                order := w :: !order
              end
            end)
          ws;
        let todo = List.rev !order in
        (if todo <> [] then
           let answers = t.query_batch todo in
           List.iter2
             (fun w outputs ->
               check_length w outputs;
               match insert w outputs with
               | () -> ()
               | exception Inconsistent msg -> ignore (arbitrate w outputs msg))
             todo answers);
        List.map
          (fun w ->
            match Trie.lookup root w with
            | Some outputs ->
                if not (Hashtbl.mem missing (Cq_util.Deep.pack w)) then
                  note_hit ();
                outputs
            | None -> assert false (* just inserted *))
          ws);
    },
    { refresh; export; preload; drain } )

let cached_refresh ?stats ?conflict_retries t =
  let oracle, handle = cached_session ?stats ?conflict_retries t in
  (oracle, handle.refresh)

let cached ?stats ?conflict_retries t =
  fst (cached_refresh ?stats ?conflict_retries t)

(* Oracle backed by an explicit Mealy machine — ground truth in tests and
   the "perfect teacher" ablation. *)
let of_mealy m =
  make ~n_inputs:(Cq_automata.Mealy.n_inputs m) (Cq_automata.Mealy.run m)
