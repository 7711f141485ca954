(* One level of the simulated cache hierarchy: a lazily-allocated collection
   of cache sets, each holding tag content (line addresses) plus one or two
   replacement-policy instances.

   Adaptive levels (the L3s, cf. Appendix B) distinguish three set kinds:
   leader-A sets run the "thrash-vulnerable" fixed policy, leader-B sets the
   "thrash-resistant" one, and follower sets track *both* policy instances
   and take the victim from whichever the global PSEL counter currently
   selects.  Leader-B sets can additionally be noisy (Haswell), re-touching
   freshly installed ways at random, which makes them nondeterministic and
   — as in the paper — unlearnable. *)

type set_kind = Plain | Leader_a | Leader_b | Follower

type set_state = {
  content : int option array; (* line address per way; None = invalid *)
  inst_a : Cq_policy.Instance.t;
  inst_b : Cq_policy.Instance.t option; (* only for follower sets *)
  kind : set_kind;
}

type t = {
  level : Cpu_model.level;
  spec : Cpu_model.level_spec;
  effective_assoc : int; (* = spec.assoc unless reduced via CAT *)
  sets : (int, set_state) Hashtbl.t;
  prng : Cq_util.Prng.t;
  mutable evictions : int;
}

let create ?(effective_assoc = -1) ~prng level (spec : Cpu_model.level_spec) =
  let effective_assoc = if effective_assoc < 0 then spec.assoc else effective_assoc in
  if effective_assoc < 1 || effective_assoc > spec.assoc then
    invalid_arg "Cache_level.create: bad effective associativity";
  {
    level;
    spec;
    effective_assoc;
    sets = Hashtbl.create 997;
    prng;
    evictions = 0;
  }

let effective_assoc t = t.effective_assoc
let level t = t.level
let spec t = t.spec

let key t ~slice ~set = (slice * t.spec.sets_per_slice) + set

let kind_of t ~slice ~set =
  match t.spec.policy with
  | Cpu_model.Fixed _ -> Plain
  | Cpu_model.Adaptive a ->
      if a.leader_a ~slice ~set then Leader_a
      else if a.leader_b ~slice ~set then Leader_b
      else Follower

let new_set t ~slice ~set =
  let assoc = t.effective_assoc in
  let kind = kind_of t ~slice ~set in
  let inst_a, inst_b =
    match t.spec.policy with
    | Cpu_model.Fixed make -> (Cq_policy.Instance.create (make assoc), None)
    | Cpu_model.Adaptive a -> (
        match kind with
        | Leader_a -> (Cq_policy.Instance.create (a.policy_a assoc), None)
        | Leader_b -> (Cq_policy.Instance.create (a.policy_b assoc), None)
        | Follower | Plain ->
            ( Cq_policy.Instance.create (a.policy_a assoc),
              Some (Cq_policy.Instance.create (a.policy_b assoc)) ))
  in
  { content = Array.make assoc None; inst_a; inst_b; kind }

let get_set t ~slice ~set =
  let k = key t ~slice ~set in
  match Hashtbl.find_opt t.sets k with
  | Some s -> s
  | None ->
      let s = new_set t ~slice ~set in
      Hashtbl.add t.sets k s; (* cq-lint: allow hashtbl-add: find_opt miss *)
      s

let kind t ~slice ~set = (get_set t ~slice ~set).kind

let find t ~slice ~set ~line =
  let st = get_set t ~slice ~set in
  let found = ref None in
  Array.iteri
    (fun way b -> if !found = None && b = Some line then found := Some way)
    st.content;
  !found

let touch_instances st way =
  Cq_policy.Instance.touch st.inst_a way;
  Option.iter (fun i -> Cq_policy.Instance.touch i way) st.inst_b

let hit t ~slice ~set ~way =
  let st = get_set t ~slice ~set in
  touch_instances st way

let noisy_b t =
  match t.spec.policy with
  | Cpu_model.Adaptive { noisy_b; _ } -> noisy_b
  | Cpu_model.Fixed _ -> false

(* Install [line]; [use_b] selects the secondary policy's victim in follower
   sets (driven by the machine's PSEL counter).  Returns the evicted line,
   if any, so the machine can maintain inclusivity. *)
let fill t ~slice ~set ~line ~use_b =
  let st = get_set t ~slice ~set in
  let invalid_way =
    let found = ref None in
    Array.iteri (fun w b -> if !found = None && b = None then found := Some w) st.content;
    !found
  in
  match invalid_way with
  | Some way ->
      st.content.(way) <- Some line;
      if t.spec.fill_touches_policy then touch_instances st way;
      None
  | None ->
      t.evictions <- t.evictions + 1;
      let victim_a = Cq_policy.Instance.evict st.inst_a in
      let victim_b = Option.map Cq_policy.Instance.evict st.inst_b in
      let victim =
        match (use_b, victim_b) with true, Some v -> v | _ -> victim_a
      in
      let evicted = st.content.(victim) in
      st.content.(victim) <- Some line;
      (* Haswell's thrash-resistant leader sets behave nondeterministically:
         model this as a random extra touch of the installed way. *)
      if st.kind = Leader_b && noisy_b t && Cq_util.Prng.bool t.prng 0.25 then
        touch_instances st victim;
      evicted

let invalidate t ~slice ~set ~line =
  match Hashtbl.find_opt t.sets (key t ~slice ~set) with
  | None -> ()
  | Some st ->
      Array.iteri
        (fun way b -> if b = Some line then st.content.(way) <- None)
        st.content

(* wbinvd: drop all cached content.  Replacement state is *not* reset —
   real hardware leaves the (now stale) replacement metadata in place. *)
let flush_content t =
  Hashtbl.iter
    (fun _ st -> Array.iteri (fun w _ -> st.content.(w) <- None) st.content)
    t.sets

(* Checkpoint the whole level: tag content, both policy instances and the
   counters of every allocated set, plus the level PRNG position.  The
   restore thunk also *drops* sets allocated after the checkpoint — they
   reappear lazily in their pristine state, which is exactly the state
   they had when the checkpoint was taken (never touched).  Used by the
   machine-level snapshots behind prefix-sharing batch execution. *)
let checkpoint t =
  let saved =
    Hashtbl.fold
      (fun key st acc ->
        ( key,
          st,
          Array.copy st.content,
          Cq_policy.Instance.checkpoint st.inst_a,
          Option.map Cq_policy.Instance.checkpoint st.inst_b )
        :: acc)
      t.sets []
  in
  let evictions = t.evictions in
  let restore_prng = Cq_util.Prng.checkpoint t.prng in
  fun () ->
    Hashtbl.reset t.sets;
    List.iter
      (fun (key, st, content, restore_a, restore_b) ->
        Array.blit content 0 st.content 0 (Array.length content);
        restore_a ();
        Option.iter (fun r -> r ()) restore_b;
        (* cq-lint: allow hashtbl-add: the table was reset just above *)
        Hashtbl.add t.sets key st)
      saved;
    t.evictions <- evictions;
    restore_prng ()

(* Test-only introspection. *)
let peek_content t ~slice ~set = Array.copy (get_set t ~slice ~set).content
let evictions t = t.evictions
