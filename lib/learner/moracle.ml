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
  prefetch : int list Seq.t -> unit;
}

exception Inconsistent of string

(* Smart constructor: derives the sequential [query_batch] fallback; an
   oracle without speculation ignores [prefetch]. *)
let make ?query_batch ?(prefetch = ignore) ~n_inputs query =
  {
    n_inputs;
    query;
    query_batch =
      (match query_batch with Some qb -> qb | None -> List.map query);
    prefetch;
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

(* A prefetch is no membership query: it passes through uncounted, and
   its time is added to the latency of the query after it, so the latency
   histogram keeps covering all the time spent below this layer with one
   sample per query (or batch). *)
let counting stats t =
  let ahead = ref 0. in
  let observe seconds =
    Cq_util.Metrics.observe stats.latency (seconds +. !ahead);
    ahead := 0.
  in
  {
    t with
    prefetch =
      (fun ws ->
        let (), seconds = Cq_util.Clock.time (fun () -> t.prefetch ws) in
        ahead := !ahead +. seconds);
    query =
      (fun w ->
        Cq_util.Metrics.incr stats.queries;
        Cq_util.Metrics.add stats.symbols (List.length w);
        let r, seconds = Cq_util.Clock.time (fun () -> t.query w) in
        observe seconds;
        r);
    query_batch =
      (fun ws ->
        Cq_util.Metrics.incr stats.batches;
        Cq_util.Metrics.add stats.queries (List.length ws);
        Cq_util.Metrics.add stats.symbols
          (List.fold_left (fun a w -> a + List.length w) 0 ws);
        let r, seconds = Cq_util.Clock.time (fun () -> t.query_batch ws) in
        observe seconds;
        r);
  }

(* Prefix-tree cache.  Output queries are prefix-closed (the outputs of a
   prefix are a prefix of the outputs), so a trie lets us answer any query
   whose whole path is known, and to extend partial knowledge cheaply. *)
module Trie = struct
  (* A node is an id into an arena of columns: node [k] hangs off node
     [parent.(k)] (-1: the root) on input [input.(k)], carries the output
     [out.(k)] of that edge, and finds its children in [kids.(k)] (input
     to id).  Ids grow with creation, so a parent precedes its children,
     and a dump of the trie is three array copies — no walk over the
     nodes.  [mark.(k)] is scratch for [subtrie]: the pass that last took
     node [k] ([mark lsr 30]) and its index in that pass's dump (the low
     30 bits). *)
  type 'o t = {
    root : (int, int) Hashtbl.t; (* the root's children *)
    mutable n : int;
    mutable parent : int array;
    mutable input : int array;
    mutable out : 'o array; (* [||] until the first node *)
    mutable kids : (int, int) Hashtbl.t array;
    mutable mark : int array;
    mutable pass : int;
  }

  (* The children of every childless node: shared, never written, so a
     leaf costs no table of its own. *)
  let leaf : (int, int) Hashtbl.t = Hashtbl.create 1

  let create () =
    {
      root = Hashtbl.create 16;
      n = 0;
      parent = [||];
      input = [||];
      out = [||];
      kids = [||];
      mark = [||];
      pass = 0;
    }

  let child t k i =
    Hashtbl.find_opt (if k < 0 then t.root else t.kids.(k)) i

  (* A new node below [p] on input [i], with output [o]. *)
  let add t p i o =
    let k = t.n in
    if k = Array.length t.out then begin
      let grow a fill =
        let b = Array.make (max 64 (2 * k)) fill in
        Array.blit a 0 b 0 k;
        b
      in
      t.parent <- grow t.parent 0;
      t.input <- grow t.input 0;
      t.out <- grow t.out o;
      t.kids <- grow t.kids leaf;
      t.mark <- grow t.mark 0
    end;
    t.parent.(k) <- p;
    t.input.(k) <- i;
    t.out.(k) <- o;
    t.kids.(k) <- leaf;
    t.n <- k + 1;
    let siblings =
      if p < 0 then t.root
      else if t.kids.(p) == leaf then begin
        let h = Hashtbl.create 4 in
        t.kids.(p) <- h;
        h
      end
      else t.kids.(p)
    in
    Hashtbl.add siblings i k; (* cq-lint: allow hashtbl-add: callers checked [child] *)
    k

  let rec mem t k = function
    | [] -> true
    | i :: rest -> (
        match child t k i with None -> false | Some c -> mem t c rest)

  let lookup t word =
    let rec go k = function
      | [] -> Some []
      | i :: rest -> (
          match child t k i with
          | None -> None
          | Some c -> (
              match go c rest with
              | None -> None
              | Some os -> Some (t.out.(c) :: os)))
    in
    go (-1) word

  (* [insert] and [insert_force] return the id of the word's last node
     (-1, the root, for the empty word). *)
  let insert t word outputs =
    let rec go k word outputs =
      match (word, outputs) with
      | [], [] -> k
      | i :: wrest, o :: orest -> (
          match child t k i with
          | None -> go (add t k i o) wrest orest
          | Some c ->
              if t.out.(c) <> o then
                raise
                  (Inconsistent
                     "Moracle: inconsistent outputs for the same input word \
                      (the system under learning is nondeterministic)");
              go c wrest orest)
      | _ -> invalid_arg "Moracle.Trie.insert: length mismatch"
    in
    go (-1) word outputs

  (* Overwrite the outputs along [word] unconditionally — used when
     arbitration decided a previously cached answer was the corrupt one. *)
  let insert_force t word outputs =
    let rec go k word outputs =
      match (word, outputs) with
      | [], [] -> k
      | i :: wrest, o :: orest -> (
          match child t k i with
          | None -> go (add t k i o) wrest orest
          | Some c ->
              t.out.(c) <- o;
              go c wrest orest)
      | _ -> invalid_arg "Moracle.Trie.insert_force: length mismatch"
    in
    go (-1) word outputs

  (* The session-snapshot dump: nodes in id order, each hanging off an
     earlier one ([parents.(k) < k], -1 for the root) on [inputs.(k)]
     with [outputs.(k)]. *)
  type 'o dump = { parents : int array; inputs : int array; outputs : 'o array }

  (* The whole trie: the arena, cut to its [n] nodes. *)
  let export t =
    {
      parents = Array.sub t.parent 0 t.n;
      inputs = Array.sub t.input 0 t.n;
      outputs = Array.sub t.out 0 t.n;
    }

  (* The part of the trie on the root paths of the nodes [ids], with its
     current outputs — the trie built by replaying, in order, every
     mutation that ended at one of those nodes.  A node is taken after
     its parent, so parents keep preceding children; a walk stops at the
     first node this pass already took.  No hashing: the arena's [mark]
     column remembers what was taken. *)
  let subtrie t ids =
    t.pass <- t.pass + 1;
    let low = (1 lsl 30) - 1 in
    let taken = ref [] and m = ref 0 in
    let rec take k =
      if k >= 0 && t.mark.(k) lsr 30 <> t.pass then begin
        take t.parent.(k);
        t.mark.(k) <- (t.pass lsl 30) lor !m;
        incr m;
        taken := k :: !taken
      end
    in
    List.iter take ids;
    let local k = if k < 0 then -1 else t.mark.(k) land low in
    match !taken with
    | [] -> { parents = [||]; inputs = [||]; outputs = [||] }
    | last :: _ as taken ->
        let parents = Array.make !m 0 and inputs = Array.make !m 0 in
        let outputs = Array.make !m t.out.(last) in
        List.iter
          (fun k ->
            let j = local k in
            parents.(j) <- local t.parent.(k);
            inputs.(j) <- t.input.(k);
            outputs.(j) <- t.out.(k))
          taken;
        { parents; inputs; outputs }

  (* Overlay a dump on the trie: every node it holds takes its output —
     the same trie as [insert_force] of each of its maximal paths.
     Returns the ids of the nodes it wrote. *)
  let graft t d =
    let ids = Array.make (Array.length d.parents) (-1) in
    Array.iteri
      (fun k p ->
        let parent = if p < 0 then -1 else ids.(p) in
        let i = d.inputs.(k) and o = d.outputs.(k) in
        ids.(k) <-
          (match child t parent i with
          | Some c ->
              t.out.(c) <- o;
              c
          | None -> add t parent i o))
      d.parents;
    Array.to_list ids

  (* Number of maximal paths: the nodes no other node hangs off. *)
  let leaves d =
    let inner = Array.make (Array.length d.parents) false in
    Array.iter (fun p -> if p >= 0 then inner.(p) <- true) d.parents;
    Array.fold_left (fun n b -> if b then n else n + 1) 0 inner
end

(* The portable form of a prefix-trie's contents: dumps applied in order,
   each overwriting what it overlaps — an export's whole trie, or the part
   a journal's mutations touched.  Abstract in the interface; sessions
   Marshal it into snapshots and log records and feed it back through
   [preload] on resume. *)
type 'o knowledge = 'o Trie.dump list

let knowledge_size k = List.fold_left (fun n d -> n + Trie.leaves d) 0 k
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
  let trie = Trie.create () in
  (* The journal: the last node of every trie mutation since the last
     [drain].  A failed [Trie.insert] mutates nothing (a conflict is found
     on the already-known part of the path, before any node is added), so
     only successful inserts are recorded. *)
  let touched = ref [] in
  let note id = if journal then touched := id :: !touched in
  let insert w outputs = note (Trie.insert trie w outputs) in
  let insert_force w outputs = note (Trie.insert_force trie w outputs) in
  let drain () =
    match !touched with
    | [] -> []
    | ids ->
        touched := [];
        [ Trie.subtrie trie ids ]
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
  (* Arbitration and [refresh] distrust an answer already given, so they
     must measure afresh: an empty prefetch drops whatever speculative
     answers the system still holds before the word goes to it. *)
  let fresh_query w =
    t.prefetch Seq.empty;
    t.query w
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
        let outputs = fresh_query w in
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
      let outputs = fresh_query w in
      check_length w outputs;
      if prev = Some outputs || k >= conflict_retries then outputs
      else settle (k + 1) (Some outputs)
    in
    let outputs = settle 0 None in
    (match Trie.lookup trie w with
    | Some old when old <> outputs -> note_conflict ()
    | _ -> ());
    insert_force w outputs;
    outputs
  in
  (* [preload]: trust the snapshot unconditionally — it was digested at
     write time, and on resume the trie is empty anyway.  A later dump
     overwrites the nodes it shares with an earlier one. *)
  let preload knowledge =
    List.iter
      (fun d ->
        let ids = Trie.graft trie d in
        if journal then touched := List.rev_append ids !touched)
      knowledge
  in
  let export () = [ Trie.export trie ] in
  (* Speculation only for the words the trie cannot answer yet; nothing
     it measures enters the trie until a query consumes it. *)
  let prefetch ws = t.prefetch (Seq.filter (fun w -> not (Trie.mem trie (-1) w)) ws) in
  ( {
      t with
      prefetch;
      query =
      (fun w ->
        match Trie.lookup trie w with
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
            if Trie.lookup trie w = None then begin
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
            match Trie.lookup trie w with
            | Some outputs ->
                if not (Hashtbl.mem missing (Cq_util.Deep.pack w)) then
                  note_hit ();
                outputs
            | None -> assert false (* just inserted *))
          ws);
    },
    { refresh; export; preload; drain } )

let cached ?stats ?conflict_retries t =
  fst (cached_session ?stats ?conflict_retries t)

(* Oracle backed by an explicit Mealy machine — ground truth in tests and
   the "perfect teacher" ablation. *)
let of_mealy m =
  make ~n_inputs:(Cq_automata.Mealy.n_inputs m) (Cq_automata.Mealy.run m)
