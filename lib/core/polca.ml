(* Polca (Algorithm 1): a membership oracle for the replacement policy,
   built on top of a cache oracle.

   The policy alphabet talks about cache *lines* (Ln(i), Evct); the cache
   only accepts *blocks*.  Polca translates between the two by tracking the
   cache content cc: Ln(i) maps to the block currently stored in line i;
   Evct maps to a fresh block never used before.  A miss's victim line is
   recovered by [find_evicted]: replay the block trace extended with each
   previously-cached block and see which one now misses.

   The resulting oracle answers *output queries* (input word over the
   policy alphabet -> output word), which is exactly what the Mealy-machine
   learner consumes; Theorem 3.1's trace-membership oracle is the
   derived [member] function. *)

(* The word trie of a session, in flat arrays that live as long as the
   oracle: a session allocates no node, so the garbage collector never
   promotes a trie that is still in use.  Node 0 is the root; a node's children run from
   [first] along [next] in insertion order ([last] is where the next one
   goes); [ends] heads the list, along [wnext], of the words ending at the
   node, by their index in the trie, and [ticket] is what the caller
   called each word.  [path] holds the outputs along the walk's current
   path, by depth. *)
type trie = {
  mutable input : int array;
  mutable first : int array;
  mutable last : int array;
  mutable next : int array;
  mutable through : int array; (* words through the node *)
  mutable ends : int array;
  mutable nodes : int;
  mutable wnext : int array;
  mutable ticket : int array;
  mutable words : int;
  mutable path : Cq_policy.Types.output array;
}

let trie_create () =
  {
    input = [||];
    first = [||];
    last = [||];
    next = [||];
    through = [||];
    ends = [||];
    nodes = 0;
    wnext = [||];
    ticket = [||];
    words = 0;
    path = [||];
  }

let grow a len =
  if len < Array.length a then a
  else begin
    let b = Array.make (max 64 (2 * len)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* A new node below [p] (-1: none, for the root) on input [i]. *)
let trie_add tr p i =
  let k = tr.nodes in
  if k >= Array.length tr.input then begin
    tr.input <- grow tr.input k;
    tr.first <- grow tr.first k;
    tr.last <- grow tr.last k;
    tr.next <- grow tr.next k;
    tr.through <- grow tr.through k;
    tr.ends <- grow tr.ends k
  end;
  tr.input.(k) <- i;
  tr.first.(k) <- -1;
  tr.last.(k) <- -1;
  tr.next.(k) <- -1;
  tr.through.(k) <- 0;
  tr.ends.(k) <- -1;
  tr.nodes <- k + 1;
  if p >= 0 then begin
    if tr.first.(p) < 0 then tr.first.(p) <- k
    else tr.next.(tr.last.(p)) <- k;
    tr.last.(p) <- k
  end;
  k

(* Empty the trie down to its root. *)
let trie_clear tr =
  tr.nodes <- 0;
  tr.words <- 0;
  ignore (trie_add tr (-1) (-1) : int)

(* The child of a node on input [i], from its child [c] on; -1 if none. *)
let rec trie_child tr c i =
  if c < 0 || tr.input.(c) = i then c else trie_child tr tr.next.(c) i

(* Add the path of a word below node [k] at [depth]; its last node. *)
let rec trie_path tr k depth = function
  | [] -> k
  | i :: rest ->
      let c = trie_child tr tr.first.(k) i in
      let c = if c >= 0 then c else trie_add tr k i in
      tr.through.(c) <- tr.through.(c) + 1;
      if depth >= Array.length tr.path then begin
        let a = Array.make (2 * (depth + 1)) None in
        Array.blit tr.path 0 a 0 (Array.length tr.path);
        tr.path <- a
      end;
      trie_path tr c (depth + 1) rest

let trie_insert tr ticket word =
  let last = trie_path tr 0 0 word in
  let w = tr.words in
  tr.wnext <- grow tr.wnext w;
  tr.ticket <- grow tr.ticket w;
  tr.wnext.(w) <- tr.ends.(last);
  tr.ticket.(w) <- ticket;
  tr.ends.(last) <- w;
  tr.words <- w + 1

(* The words of the last prefetch and their answers, in announcement
   order, in buffers reused from prefetch to prefetch: word [i] is
   [keys] from [start.(i)] to [start.(i+1)], two bytes per symbol, and its
   outputs sit at the same offsets of [outs] (an output [Some v] as v+1,
   [None] as 0).  A thousand held answers are then no garbage at all; as
   lists they would cost a cell and an option per symbol, all of it
   promoted.  [failed] has the words the session could not answer, and
   words before [next] are consumed or passed. *)
type held = {
  mutable keys : Bytes.t;
  mutable outs : Bytes.t;
  mutable start : int array;
  mutable failed : (int * string) list;
  mutable count : int;
  mutable next : int;
}

let held_clear h =
  h.count <- 0;
  h.next <- 0;
  h.failed <- []

(* Hold [word]; its index. *)
let held_add h word =
  let i = h.count and o = h.start.(h.count) in
  let e = o + (2 * List.length word) in
  if e > Bytes.length h.keys then begin
    let grow b =
      let b' = Bytes.create (max 4096 (2 * e)) in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      b'
    in
    h.keys <- grow h.keys;
    h.outs <- grow h.outs
  end;
  if i + 2 > Array.length h.start then begin
    let a = Array.make (2 * (i + 2)) 0 in
    Array.blit h.start 0 a 0 (Array.length h.start);
    h.start <- a
  end;
  List.iteri (fun j x -> Bytes.set_uint16_le h.keys (o + (2 * j)) x) word;
  h.start.(i + 1) <- e;
  h.count <- i + 1;
  i

let held_answer h i = function
  | Ok outputs ->
      List.iteri
        (fun j o ->
          Bytes.set_uint16_le h.outs
            (h.start.(i) + (2 * j))
            (match o with None -> 0 | Some v -> v + 1))
        outputs
  | Error msg -> h.failed <- (i, msg) :: h.failed

(* The held answer to [word], consumed: queries come in announcement
   order, skipping the words the learner's cache answers, so the search
   starts at the first word not yet consumed, and a match consumes every
   word before it. *)
let held_take h word =
  let len = List.length word in
  let matches i =
    h.start.(i + 1) - h.start.(i) = 2 * len
    &&
    let rec go j = function
      | [] -> true
      | x :: rest ->
          Bytes.get_uint16_le h.keys (h.start.(i) + (2 * j)) = x && go (j + 1) rest
    in
    go 0 word
  in
  let rec find i = if i >= h.count then None else if matches i then Some i else find (i + 1) in
  match find h.next with
  | None -> None
  | Some i -> (
      h.next <- i + 1;
      match List.assoc_opt i h.failed with
      | Some msg -> Some (Error msg)
      | None ->
          Some
            (Ok
               (List.init len (fun j ->
                    match Bytes.get_uint16_le h.outs (h.start.(i) + (2 * j)) with
                    | 0 -> None
                    | v -> Some (v - 1)))))

type t = {
  cache : Cq_cache.Oracle.t;
  check_hits : bool;
      (* Algorithm 1 probes the cache even for Ln(i) inputs whose result is
         a foregone conclusion (the block is present by construction).
         Those probes detect nondeterminism — e.g. a broken reset sequence
         — at the cost of extra queries; disabling them is the ablation
         discussed in the EXPERIMENTS notes. *)
  batch_probes : bool;
      (* Prefix-share the probes of a word instead of replaying each from
         reset.  When the cache exposes its device primitives
         (Oracle.ops), the whole word runs as one session: every logical
         probe is answered by the single access extending the live trace,
         and the [find_evicted] fan-out is a checkpoint/restore scan at
         the trace tip.  Disabled, or without [ops], every probe is
         replayed from reset through [query] — the paper's Algorithm 1,
         and the sequential engine baseline. *)
  retries : int;
      (* On Non_deterministic, re-run the offending word up to this many
         extra times before giving up: a transient latency flip (noise)
         will not repeat, a structural problem (broken reset sequence,
         unsound interface) will.  0 restores fail-fast. *)
  backoff : (int -> unit) option;
      (* Called before retry k (1-based) — the hook where the hardware
         layer clears suspect memo entries and escalates voting. *)
  stats : Cq_cache.Oracle.stats option;
      (* Session-mode probes bypass the cache oracle's query path, so the
         counting wrapper cannot see them; Polca accounts them here
         instead (logical cost per probe, physical accesses, savings).
         Retries are accounted here too ([retry_attempts],
         [transient_flips]). *)
  held : held; (* the answers of the last prefetch (see [prefetch]) *)
  mutable session_nodes : int;
      (* The trie-node cap of the next session (see [trie_session]). *)
  mutable reset_loads : int;
      (* Timed loads the device's first reset issued (-1: none yet); see
         [prefetch]. *)
  trie : trie; (* the session's word trie *)
}

exception Non_deterministic of string

(* The most trie nodes one session runs; past it, the words go to a new
   trie behind a fresh reset.  A reset is where the device checks and, if
   it drifted, redoes its hit/miss calibration, so a session's length is
   how long a stale threshold can keep measuring.  On a device that
   measured the previous session without re-measuring a single access the
   cap is generous: the resets then cost 16 timed loads per ~500 accesses
   on Haswell L1.  A device that had to vote is noisy, and may be
   drifting: its sessions stay short, about 30 accesses as when every word
   had its own reset. *)
let quiet_session_nodes = 256
let noisy_session_nodes = 16

let create ?(check_hits = true) ?(batch_probes = true) ?(retries = 0) ?backoff
    ?stats cache =
  if retries < 0 then invalid_arg "Polca.create: retries must be >= 0";
  {
    cache;
    check_hits;
    batch_probes;
    retries;
    backoff;
    stats;
    held =
      {
        keys = Bytes.empty;
        outs = Bytes.empty;
        start = [| 0 |];
        failed = [];
        count = 0;
        next = 0;
      };
    session_nodes = quiet_session_nodes;
    reset_loads = -1;
    trie = trie_create ();
  }

let assoc t = t.cache.Cq_cache.Oracle.assoc

let n_inputs t = Cq_policy.Types.n_inputs ~assoc:(assoc t)

(* Outcome of the last access of a block trace. *)
let probe_last t blocks =
  match List.rev (t.cache.Cq_cache.Oracle.query blocks) with
  | last :: _ -> last
  | [] -> invalid_arg "Polca.probe_last: empty query"

(* Which line was evicted by the last block of [trace]?  Probe the trace
   extended with each currently-tracked block, in order, and stop at the
   first miss: that block's line is the victim (Algorithm 1's
   findEvicted). *)
let find_evicted t trace cc =
  let n = Array.length cc in
  let rec go i =
    if i >= n then
      raise
        (Non_deterministic
           "find_evicted: no tracked block misses after an observed miss")
    else
      match probe_last t (List.rev (cc.(i) :: trace)) with
      | Cq_cache.Cache_set.Miss -> i
      | Cq_cache.Cache_set.Hit -> go (i + 1)
  in
  go 0

(* Session mode: run words against the live device.  The probe set of a
   word is a degenerate trie — one path (the trace) with a fan of
   [find_evicted] probes at each Evct — so instead of materialising the
   probes and replaying their shared prefix, extend the path one access at
   a time and scan each fan under checkpoint/restore at the trace tip.  A
   word of length L with e evictions costs L + Σ scan_i physical accesses
   instead of the O(L²) replay cost of Algorithm 1 as written.

   A batch of words runs the same way over the trie of the words: one
   reset, a depth-first walk in which every node extends the live trace by
   one access (and an Evct node does its scan), and at each branch node a
   device checkpoint plus a copy of [cc] and the fresh-block counter to
   return to.  Each shared prefix, the reset included, is paid once.

   Outcomes are identical to replay whenever the device is deterministic
   from reset — the property reset validation establishes, and the same
   assumption the query memo already rests on.  The walk order cannot
   change which address a block gets: fresh blocks are numbered along each
   word, so whatever the order, block n+k is first touched after block
   n+k-1.

   A Non_deterministic on a node fails the words through it (with its
   message) and the walk goes on with the next branch; the device is
   restored at that branch anyway. *)

(* The live trace of a session: the tracked content [cc], the next fresh
   block, and the accounting — logical cost is what per-probe replay would
   have paid for the probes of every word, each on its own; physical is
   the accesses performed. *)
type trace = {
  cc : Cq_cache.Block.t array;
  mutable next_fresh : int;
  mutable probes : int;
  mutable logical : int;
  mutable physical : int;
}

let trace t =
  {
    cc = Array.copy t.cache.Cq_cache.Oracle.initial_content;
    next_fresh = assoc t;
    probes = 0;
    logical = 0;
    physical = 0;
  }

(* Bring the device and [tr] back to the state after reset. *)
let restart t ops tr =
  Array.blit t.cache.Cq_cache.Oracle.initial_content 0 tr.cc 0 (assoc t);
  tr.next_fresh <- assoc t;
  match t.stats with
  | Some s when t.reset_loads < 0 ->
      let loads () = Cq_util.Metrics.value s.Cq_cache.Oracle.timed_loads in
      let l0 = loads () in
      ops.Cq_cache.Batch.reset ();
      t.reset_loads <- loads () - l0
  | _ -> ops.Cq_cache.Batch.reset ()

(* Charge [weight] words for a probe that per-probe replay would have
   paid [cost] accesses for; one physical access. *)
let charge tr ~weight cost =
  tr.probes <- tr.probes + weight;
  tr.logical <- tr.logical + (weight * cost)

let access (ops : (Cq_cache.Block.t, Cq_cache.Cache_set.result) Cq_cache.Batch.ops)
    tr b =
  tr.physical <- tr.physical + 1;
  ops.Cq_cache.Batch.access b

(* Extend the trace by [input] — [depth] accesses long with it — on behalf
   of [weight] words. *)
let step t ops tr ~weight input depth =
  let n = assoc t in
  match Cq_policy.Types.input_of_int ~assoc:n input with
  | Cq_policy.Types.Line i ->
      let r = access ops tr tr.cc.(i) in
      (* The access both advances the policy state and observes the
         outcome, so the paper's hit probe is free here; honour the
         check_hits ablation by only *charging* for it (and only raising)
         when enabled. *)
      if t.check_hits then begin
        charge tr ~weight depth;
        match r with
        | Cq_cache.Cache_set.Hit -> ()
        | Cq_cache.Cache_set.Miss ->
            raise
              (Non_deterministic
                 "tracked block missed: reset sequence or cache interface is \
                  unsound")
      end;
      None
  | Cq_policy.Types.Evct ->
      let b = Cq_cache.Block.of_index tr.next_fresh in
      tr.next_fresh <- tr.next_fresh + 1;
      charge tr ~weight depth;
      (match access ops tr b with
      | Cq_cache.Cache_set.Miss -> ()
      | Cq_cache.Cache_set.Hit ->
          raise (Non_deterministic "fresh block hit: cache interface is unsound"));
      (* findEvicted: scan the tracked blocks at the trace tip, restoring
         the checkpoint after every probe (including the final miss, so the
         trace continues from here).  Same short-circuit order as the
         replay scan. *)
      let restore = ops.Cq_cache.Batch.checkpoint () in
      let rec scan i =
        if i >= n then
          raise
            (Non_deterministic
               "find_evicted: no tracked block misses after an observed miss")
        else begin
          charge tr ~weight (depth + 1);
          let r = access ops tr tr.cc.(i) in
          restore ();
          match r with
          | Cq_cache.Cache_set.Miss -> i
          | Cq_cache.Cache_set.Hit -> scan (i + 1)
        end
      in
      let victim = scan 0 in
      tr.cc.(victim) <- b;
      Some victim

let account t tr ~sessions =
  match t.stats with
  | None -> ()
  | Some s ->
      Cq_util.Metrics.add s.Cq_cache.Oracle.batches sessions;
      Cq_util.Metrics.add s.Cq_cache.Oracle.batched_queries tr.probes;
      Cq_util.Metrics.add s.Cq_cache.Oracle.queries tr.probes;
      Cq_util.Metrics.add s.Cq_cache.Oracle.block_accesses tr.logical;
      Cq_util.Metrics.add s.Cq_cache.Oracle.accesses_saved
        (tr.logical - tr.physical)

(* Hand [r] to the words from [w] on along [wnext]. *)
let rec answer_from tn answer r w =
  if w >= 0 then begin
    answer tn.ticket.(w) r;
    answer_from tn answer r tn.wnext.(w)
  end

(* Fail every word through node [k]. *)
let rec fail_node tn answer msg k =
  answer_from tn answer (Error msg) tn.ends.(k);
  fail_kids tn answer msg tn.first.(k)

and fail_kids tn answer msg c =
  if c >= 0 then begin
    fail_node tn answer msg c;
    fail_kids tn answer msg tn.next.(c)
  end

(* The outputs [path.(0..i)], as a list. *)
let rec path_list path i acc =
  if i < 0 then acc else path_list path (i - 1) (path.(i) :: acc)

(* The walk below node [k], whose trace is [depth] inputs long and live
   on the device. *)
let rec visit t ops tr answer on_fail k depth =
  let tn = t.trie in
  if tn.ends.(k) >= 0 then
    answer_from tn answer (Ok (path_list tn.path (depth - 1) [])) tn.ends.(k);
  let c = tn.first.(k) in
  if c >= 0 then
    if tn.next.(c) < 0 then descend t ops tr answer on_fail c depth
    else begin
      let restore = ops.Cq_cache.Batch.checkpoint () in
      let saved_cc = Array.copy tr.cc and saved_fresh = tr.next_fresh in
      let rec each c =
        descend t ops tr answer on_fail c depth;
        let c' = tn.next.(c) in
        if c' >= 0 then begin
          restore ();
          Array.blit saved_cc 0 tr.cc 0 (Array.length saved_cc);
          tr.next_fresh <- saved_fresh;
          each c'
        end
      in
      each c
    end

and descend t ops tr answer on_fail c depth =
  let tn = t.trie in
  match step t ops tr ~weight:tn.through.(c) tn.input.(c) (depth + 1) with
  | o ->
      tn.path.(depth) <- o;
      visit t ops tr answer on_fail c (depth + 1)
  | exception Non_deterministic msg ->
      fail_node tn answer msg c;
      on_fail ()

let votes t =
  match t.stats with
  | Some s -> Cq_util.Metrics.value s.Cq_cache.Oracle.vote_runs
  | None -> 0

(* The cap of the next session, after one that began at [votes0] votes. *)
let set_cap t votes0 =
  t.session_nodes <-
    (if votes t > votes0 then noisy_session_nodes else quiet_session_nodes)

(* The words in the trie as one session: one reset, then the walk. *)
let run_trie t ops tr answer on_fail =
  let probes0 = tr.probes and votes0 = votes t in
  restart t ops tr;
  visit t ops tr answer on_fail 0 0;
  set_cap t votes0;
  match t.stats with
  | Some s ->
      Cq_util.Metrics.observe s.Cq_cache.Oracle.batch_depth
        (float_of_int (tr.probes - probes0))
  | None -> ()

(* [trie_session t ops words ~answer] runs the ([ticket], word) pairs of
   [words] over their trie, consuming the sequence as it goes: the words
   are folded, in order, into tries of at most [t.session_nodes] nodes,
   each run as it fills up.  Each ticket gets its word's outputs or
   failure through [answer]; [on_fail] is called once per failing node. *)
let trie_session t ops words ~answer ~on_fail =
  let tn = t.trie and tr = trace t in
  let sessions = ref 0 in
  let run () =
    run_trie t ops tr answer on_fail;
    incr sessions;
    trie_clear tn
  in
  trie_clear tn;
  Seq.iter
    (fun (ticket, word) ->
      trie_insert tn ticket word;
      if tn.nodes > t.session_nodes then run ())
    words;
  if tn.words > 0 then run ();
  account t tr ~sessions:!sessions

(* Answer an output query by per-probe replay: the policy outputs along
   [word] (a word over the flattened input alphabet: 0..n-1 = Ln(i),
   n = Evct), every probe re-executed from reset through the oracle's
   query path — Algorithm 1 exactly as written. *)
let run_replay t word =
  let n = assoc t in
  let cc = Array.copy t.cache.Cq_cache.Oracle.initial_content in
  (* Fresh blocks for Evct inputs, disjoint from cc0 and deterministic for
     a given query (so the query memo works). *)
  let next_fresh = ref n in
  let trace = ref [] (* reversed block trace so far *) in
  let outputs =
    List.map
      (fun input ->
        match Cq_policy.Types.input_of_int ~assoc:n input with
        | Cq_policy.Types.Line i ->
            let b = cc.(i) in
            trace := b :: !trace;
            if t.check_hits then begin
              match probe_last t (List.rev !trace) with
              | Cq_cache.Cache_set.Hit -> ()
              | Cq_cache.Cache_set.Miss ->
                  raise
                    (Non_deterministic
                       "tracked block missed: reset sequence or cache \
                        interface is unsound")
            end;
            None
        | Cq_policy.Types.Evct ->
            let b = Cq_cache.Block.of_index !next_fresh in
            incr next_fresh;
            trace := b :: !trace;
            (match probe_last t (List.rev !trace) with
            | Cq_cache.Cache_set.Miss -> ()
            | Cq_cache.Cache_set.Hit ->
                raise
                  (Non_deterministic
                     "fresh block hit: cache interface is unsound"));
            let victim = find_evicted t !trace cc in
            cc.(victim) <- b;
            Some victim)
      word
  in
  outputs

(* Session mode whenever the cache exposes its device primitives and
   batching is on; otherwise per-probe replay. *)
let session_ops t = if t.batch_probes then t.cache.Cq_cache.Oracle.ops else None

(* One word, one session: reset, then the word's path.  A trie of one
   path gives the same answers, but its bookkeeping costs a single word
   about a third more time on a software cache, where an access is a few
   nanoseconds; the daemon and the conformance suites on simulated caches
   run mostly single words. *)
let path_session t ops word =
  let tr = trace t and votes0 = votes t in
  restart t ops tr;
  let rec go depth = function
    | [] -> []
    | input :: rest ->
        let o = step t ops tr ~weight:1 input depth in
        o :: go (depth + 1) rest
  in
  let outputs =
    match go 1 word with
    | outputs ->
        set_cap t votes0;
        outputs
    | exception e ->
        set_cap t votes0;
        raise e
  in
  account t tr ~sessions:1;
  (match t.stats with
  | Some s ->
      Cq_util.Metrics.observe s.Cq_cache.Oracle.batch_depth
        (float_of_int tr.probes)
  | None -> ());
  outputs

let run_once t word =
  let run () =
    match session_ops t with
    | Some ops -> path_session t ops word
    | None -> run_replay t word
  in
  if Cq_util.Trace.enabled () then
    Cq_util.Trace.with_span ~cat:"polca"
      ~args:[ ("len", string_of_int (List.length word)) ]
      "polca.word" run
  else run ()

let count_retry t =
  match t.stats with
  | Some s -> Cq_util.Metrics.incr s.Cq_cache.Oracle.retry_attempts
  | None -> ()

let back_off t k = match t.backoff with Some f -> f k | None -> ()

(* Bounded retry around Non_deterministic: a transient measurement flip
   (an outlier latency that survived voting) will not repeat when the word
   is re-executed from reset, whereas structural nondeterminism — a broken
   reset sequence, an unsound interface — fails on every attempt and is
   re-raised with the retry history attached.  [attempt t word k history]
   runs attempt [k], after the failures in [history]. *)
let rec attempt t word k history =
  match run_once t word with
  | outputs ->
      if k > 0 then begin
        match t.stats with
        | Some s -> Cq_util.Metrics.incr s.Cq_cache.Oracle.transient_flips
        | None -> ()
      end;
      outputs
  | exception Non_deterministic msg ->
      if k >= t.retries then
        raise
          (Non_deterministic
             (Printf.sprintf "%s (persisted after %d retries; attempts: %s)"
                msg k
                (String.concat " | " (List.rev (msg :: history)))))
      else begin
        (* The held prefetch answers were measured before whatever the
           backoff is about to change: drop them. *)
        held_clear t.held;
        count_retry t;
        back_off t (k + 1);
        attempt t word (k + 1) (msg :: history)
      end

let run t word = if t.retries = 0 then run_once t word else attempt t word 0 []

(* A batch of words as trie sessions.  A failing node fails every word
   through it at once: that is one measurement gone wrong, so it is one
   backoff, and each of those words counts the session as its first
   attempt — it raises at once without retries, as [run] would, and
   otherwise is retried on its own (counted then) with its remaining
   attempts.  The backoff keeps what the session holds, failures
   included, so a held failure goes on at its second attempt too. *)
let batch_session t ops words ~answer =
  let run () =
    trie_session
      ~on_fail:(fun () -> if t.retries > 0 then back_off t 1)
      t ops words ~answer
  in
  if Cq_util.Trace.enabled () then
    Cq_util.Trace.with_span ~cat:"polca" "polca.session" run
  else run ()

let settle t word = function
  | Ok outputs -> outputs
  | Error msg ->
      if t.retries = 0 then raise (Non_deterministic msg)
      else begin
        count_retry t;
        attempt t word 1 [ msg ]
      end

let run_batch t words =
  match session_ops t with
  | Some ops when words <> [] ->
      let answers = Array.make (List.length words) (Error "unanswered") in
      batch_session t ops
        (Seq.mapi (fun i word -> (i, word)) (List.to_seq words))
        ~answer:(Array.set answers);
      List.mapi (fun i word -> settle t word answers.(i)) words
  | _ -> List.map (run t) words

(* Speculation for the conformance suites, which query one word at a time
   and stop at the first counterexample: run the announced words as
   sessions now — generating each as the session takes it, so the
   announcement is never held whole — and hold each answer, or failure,
   until its query consumes it.  The next prefetch replaces the held
   answers, and a retry drops them.

   Speculation pays where a reset is a measurement: on a device whose
   reset issues timed loads (hardware, or hwsim through CacheQuery), it
   saves a reset per word and every shared prefix.  On a software
   cache a reset is an array copy, and holding, packing and matching the
   answers costs more than it saves, so there the announcement is
   ignored. *)
let prefetch t words =
  held_clear t.held;
  match session_ops t with
  | Some ops when t.reset_loads > 0 -> (
      match words () with
      | Seq.Nil -> ()
      | Seq.Cons _ as first ->
          batch_session t ops
            (Seq.map (fun word -> (held_add t.held word, word)) (fun () -> first))
            ~answer:(held_answer t.held))
  | _ -> ()

let query t word =
  if t.held.next >= t.held.count then run t word
  else
    match held_take t.held word with
    | Some answer -> settle t word answer
    | None -> run t word

(* The membership oracle consumed by the learner. *)
let moracle t =
  Cq_learner.Moracle.make ~n_inputs:(n_inputs t) ~query_batch:(run_batch t)
    ~prefetch:(prefetch t) (query t)

(* Theorem 3.1: trace membership.  [member t tr] holds iff the input/output
   trace [tr] belongs to the policy's trace semantics. *)
let member t tr =
  let inputs =
    List.map (fun (i, _) -> Cq_policy.Types.input_to_int ~assoc:(assoc t) i) tr
  in
  let expected = List.map snd tr in
  match run t inputs with
  | outputs -> outputs = expected
  | exception Non_deterministic _ -> false
