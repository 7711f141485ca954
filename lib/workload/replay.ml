(* Trace replay through policies and learned automata.

   One cache set, [Cache_set.access] / [Cache_level.fill] semantics, in one
   loop ([run]) that owns the set bookkeeping: the policy instance, the
   compiled machine and OPT's chooser plug into it as steppers.
   [machine] keeps its own naive loop as the independent reference the
   differential tests in test_workload compare the shared loop against. *)

module Mealy = Cq_automata.Mealy
module Policy = Cq_policy.Policy
module Instance = Cq_policy.Instance

type outcome = { hits : int; misses : int; stream : Bytes.t }

let hit_rate o =
  let n = o.hits + o.misses in
  if n = 0 then 0.0 else float_of_int o.hits /. float_of_int n

(* cq-lint: hot-loop — [universe] scans every access of every replay
   (the daemon's replay verb runs it twice per request), and [run] below
   is one iteration per trace access; the throughput gate in
   bench -- workload holds the compiled stepper on that loop to >= 1M
   accesses/sec, so per-access allocation is a bug. *)

(* One pass: the running maximum sizes the table, and or-ing every id
   into [sign] leaves it negative iff some id is. *)
let universe ~assoc ~cold blocks =
  if assoc < 1 then invalid_arg "Replay: associativity must be positive";
  let top = ref (if cold then -1 else assoc - 1) in
  let sign = ref 0 in
  for j = 0 to Array.length blocks - 1 do
    let b = Array.unsafe_get blocks j in
    sign := !sign lor b;
    if b > !top then top := b
  done;
  if !sign < 0 then invalid_arg "Replay: negative block id";
  !top + 1

(* Resident tag per way (-1 = invalid) and the O(1) reverse map
   block -> way (-1 when absent).  A warm set holds blocks 0 .. assoc-1
   in ways 0 .. assoc-1, exactly [Cache_set.create]. *)
let init_set ~assoc ~cold ~universe =
  let way_of = Array.make universe (-1) in
  let tags = Array.make assoc (-1) in
  if not cold then
    for w = 0 to assoc - 1 do
      tags.(w) <- w;
      way_of.(w) <- w
    done;
  (tags, way_of)

type stepper = {
  touch : int -> int -> unit;
  fill : int -> int -> unit;
  evict : int -> int;
}

(* Ways are never invalidated, so the invalid ways of a cold set are
   always the suffix [filled .. assoc-1]: the lowest one is [filled].
   The one bounds check on [way_of] per access keeps a caller-supplied
   [universe] that is too small a typed failure. *)
let run ?universe:u ~assoc ~cold st blocks =
  let universe =
    match u with Some u -> u | None -> universe ~assoc ~cold blocks
  in
  let tags, way_of = init_set ~assoc ~cold ~universe in
  let filled = ref (if cold then 0 else assoc) in
  let hits = ref 0 in
  let n = Array.length blocks in
  let stream = Bytes.make n '\000' in
  for j = 0 to n - 1 do
    let b = Array.unsafe_get blocks j in
    let w = way_of.(b) in
    if w >= 0 then begin
      st.touch j w;
      incr hits;
      Bytes.unsafe_set stream j '\001'
    end
    else begin
      let v =
        if !filled < assoc then begin
          let v = !filled in
          filled := v + 1;
          st.fill j v;
          v
        end
        else begin
          let v = st.evict j in
          way_of.(tags.(v)) <- -1;
          v
        end
      in
      Array.unsafe_set tags v b;
      Array.unsafe_set way_of b v
    end
  done;
  { hits = !hits; misses = n - !hits; stream }

let policy ?(cold = false) p blocks =
  let inst = Instance.create p in
  (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
  let touch _ w = Instance.touch inst w in
  (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
  let evict _ = Instance.evict inst in
  run ~assoc:(Policy.assoc p) ~cold { touch; fill = touch; evict } blocks

(* --- compiled replay and miss attribution ----------------------------- *)

type attribution = {
  attr_states : int;
  state_hits : int array;
  state_misses : int array;
  victims : int array;
}

let attribution c =
  let n = Mealy.compiled_n_states c in
  let assoc = Mealy.compiled_n_inputs c - 1 in
  {
    attr_states = n;
    state_hits = Array.make n 0;
    state_misses = Array.make n 0;
    victims = Array.make (max assoc 1) 0;
  }

let bump a i = Array.unsafe_set a i (Array.unsafe_get a i + 1)

let compiled ?(cold = false) ?attr c blocks =
  let assoc = Mealy.compiled_n_inputs c - 1 in
  if assoc < 1 then invalid_arg "Replay.compiled: machine has no Evct input";
  let st = Mealy.stepper c in
  let step w = ignore (Mealy.stepper_step st w) in
  let victim () =
    match Mealy.stepper_step st assoc with
    | Some v when v >= 0 && v < assoc -> v
    | Some _ -> invalid_arg "Replay.compiled: victim out of range"
    | None -> invalid_arg "Replay.compiled: machine emitted ⊥ on Evct"
  in
  (* Attribution charges the state the set was in before the access. *)
  let stepper =
    match attr with
    | None ->
        (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
        let touch _ w = step w in
        (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
        { touch; fill = touch; evict = (fun _ -> victim ()) }
    | Some a ->
        if a.attr_states <> Mealy.compiled_n_states c then
          invalid_arg "Replay.compiled: attribution sized for another machine";
        {
          (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
          touch = (fun _ w -> bump a.state_hits (Mealy.stepper_state st); step w);
          fill =
            (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
            (fun _ w ->
              bump a.state_misses (Mealy.stepper_state st);
              bump a.victims w;
              step w);
          evict =
            (* cq-lint: allow hot-loop-alloc — one closure per replay, not per access *)
            (fun _ ->
              bump a.state_misses (Mealy.stepper_state st);
              let v = victim () in
              bump a.victims v;
              v);
        }
  in
  run ~assoc ~cold stepper blocks
(* cq-lint: end hot-loop *)

(* Explicit-machine replay via Mealy.step with its own naive loop and a
   linear lowest-invalid-way scan: the independent reference the shared
   loop above is diffed against. *)
let machine ?(cold = false) m blocks =
  let assoc = Mealy.n_inputs m - 1 in
  if assoc < 1 then invalid_arg "Replay.machine: machine has no Evct input";
  let tags, way_of =
    init_set ~assoc ~cold ~universe:(universe ~assoc ~cold blocks)
  in
  let state = ref (Mealy.init m) in
  let step i =
    let s', out = Mealy.step m !state i in
    state := s';
    out
  in
  let n = Array.length blocks in
  let stream = Bytes.make n '\000' in
  let hits = ref 0 in
  Array.iteri
    (fun j b ->
      let w = way_of.(b) in
      if w >= 0 then begin
        ignore (step w);
        incr hits;
        Bytes.set stream j '\001'
      end
      else begin
        let invalid = ref (-1) in
        for v = assoc - 1 downto 0 do
          if tags.(v) < 0 then invalid := v
        done;
        let victim =
          if !invalid >= 0 then begin
            ignore (step !invalid);
            !invalid
          end
          else
            match step assoc with
            | Some v when v >= 0 && v < assoc ->
                way_of.(tags.(v)) <- -1;
                v
            | Some _ -> invalid_arg "Replay.machine: victim out of range"
            | None -> invalid_arg "Replay.machine: machine emitted ⊥ on Evct"
        in
        tags.(victim) <- b;
        way_of.(b) <- victim
      end)
    blocks;
  { hits = !hits; misses = n - !hits; stream }

let top_miss_states a n =
  let rows = ref [] in
  for s = a.attr_states - 1 downto 0 do
    if a.state_misses.(s) > 0 || a.state_hits.(s) > 0 then
      rows := (s, a.state_misses.(s), a.state_hits.(s)) :: !rows
  done;
  let cmp (s1, m1, _) (s2, m2, _) =
    if m1 <> m2 then compare m2 m1 else compare s1 s2
  in
  let sorted = List.sort cmp !rows in
  List.filteri (fun i _ -> i < n) sorted
