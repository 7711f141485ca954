(* One level of the simulated cache hierarchy: a lazily-allocated collection
   of cache sets, each holding tag content (line addresses) plus one or two
   replacement-policy instances.

   Adaptive levels (the L3s, cf. Appendix B) distinguish three set kinds:
   leader-A sets run the "thrash-vulnerable" fixed policy, leader-B sets the
   "thrash-resistant" one, and follower sets track *both* policy instances
   and take the victim from whichever the global PSEL counter currently
   selects.  Leader-B sets can additionally be noisy (Haswell), re-touching
   freshly installed ways at random, which makes them nondeterministic and
   — as in the paper — unlearnable.

   The sets live in a persistent map, so a checkpoint is the map itself.  A
   set is copied before its first write after a checkpoint (copy-on-write):
   every set records the epoch it was created or copied in, each checkpoint
   starts a new epoch, and only a set of the current epoch — one no
   checkpoint has captured — is written in place. *)

type set_kind = Plain | Leader_a | Leader_b | Follower

module Sets = Map.Make (Int)

type set_state = {
  content : int array; (* line address per way; [invalid] = empty way *)
  inst_a : Cq_policy.Instance.t;
  inst_b : Cq_policy.Instance.t option; (* only for follower sets *)
  kind : set_kind;
  epoch : int; (* the level's epoch when this copy was made *)
}

type t = {
  level : Cpu_model.level;
  spec : Cpu_model.level_spec;
  effective_assoc : int; (* = spec.assoc unless reduced via CAT *)
  noisy_b : bool; (* leader-B fills re-touch at random (Haswell) *)
  mutable sets : set_state Sets.t; (* allocated sets, by [key] *)
  mutable epoch : int; (* bumped by every checkpoint *)
  prng : Cq_util.Prng.t;
  mutable evictions : int;
}

let invalid = -1

let create ?(effective_assoc = -1) ~prng level (spec : Cpu_model.level_spec) =
  let effective_assoc = if effective_assoc < 0 then spec.assoc else effective_assoc in
  if effective_assoc < 1 || effective_assoc > spec.assoc then
    invalid_arg "Cache_level.create: bad effective associativity";
  let noisy_b =
    match spec.policy with
    | Cpu_model.Adaptive { noisy_b; _ } -> noisy_b
    | Cpu_model.Fixed _ -> false
  in
  {
    level;
    spec;
    effective_assoc;
    noisy_b;
    sets = Sets.empty;
    epoch = 0;
    prng;
    evictions = 0;
  }

let effective_assoc t = t.effective_assoc
let level t = t.level
let spec t = t.spec

let key t ~slice ~set = (slice * t.spec.sets_per_slice) + set

let kind t ~slice ~set =
  match t.spec.policy with
  | Cpu_model.Fixed _ -> Plain
  | Cpu_model.Adaptive a ->
      if a.leader_a ~slice ~set then Leader_a
      else if a.leader_b ~slice ~set then Leader_b
      else Follower

let new_set t ~slice ~set =
  let assoc = t.effective_assoc in
  let kind = kind t ~slice ~set in
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
  { content = Array.make assoc invalid; inst_a; inst_b; kind; epoch = t.epoch }

(* The set [st], bound at [k], for writing: as it is if it is of the
   current epoch, otherwise copied and rebound. *)
let own t k (st : set_state) =
  if st.epoch = t.epoch then st
  else begin
    let st' =
      {
        st with
        content = Array.copy st.content;
        inst_a = Cq_policy.Instance.copy st.inst_a;
        inst_b = Option.map Cq_policy.Instance.copy st.inst_b;
        epoch = t.epoch;
      }
    in
    t.sets <- Sets.add k st' t.sets;
    st'
  end

(* The set at (slice, set) for writing; a missing one is allocated
   pristine, the state it would have had all along. *)
let writable t ~slice ~set =
  let k = key t ~slice ~set in
  match Sets.find k t.sets with
  | st -> own t k st
  | exception Not_found ->
      let st = new_set t ~slice ~set in
      t.sets <- Sets.add k st t.sets;
      st

let rec way_of (content : int array) (line : int) w =
  if w = Array.length content then invalid
  else if Array.unsafe_get content w = line then w
  else way_of content line (w + 1)

let find t ~slice ~set ~line =
  match Sets.find (key t ~slice ~set) t.sets with
  | st -> way_of st.content line 0
  | exception Not_found -> invalid

let touch_instances st way =
  Cq_policy.Instance.touch st.inst_a way;
  match st.inst_b with
  | Some i -> Cq_policy.Instance.touch i way
  | None -> ()

let hit t ~slice ~set ~way =
  touch_instances (writable t ~slice ~set) way

(* Install [line]; [use_b] selects the secondary policy's victim in follower
   sets (driven by the machine's PSEL counter).  Returns the evicted line,
   or [invalid], so the machine can maintain inclusivity. *)
let fill t ~slice ~set ~line ~use_b =
  let st = writable t ~slice ~set in
  match way_of st.content invalid 0 with
  | way when way <> invalid ->
      st.content.(way) <- line;
      if t.spec.fill_touches_policy then touch_instances st way;
      invalid
  | _ ->
      t.evictions <- t.evictions + 1;
      let victim_a = Cq_policy.Instance.evict st.inst_a in
      let victim =
        match st.inst_b with
        | Some b ->
            let victim_b = Cq_policy.Instance.evict b in
            if use_b then victim_b else victim_a
        | None -> victim_a
      in
      let evicted = st.content.(victim) in
      st.content.(victim) <- line;
      (* Haswell's thrash-resistant leader sets behave nondeterministically:
         model this as a random extra touch of the installed way. *)
      (match st.kind with
      | Leader_b when t.noisy_b && Cq_util.Prng.bool t.prng 0.25 ->
          touch_instances st victim
      | _ -> ());
      evicted

(* clflush: only a set that holds [line] is written (and so copied). *)
let invalidate t ~slice ~set ~line =
  let k = key t ~slice ~set in
  match Sets.find k t.sets with
  | exception Not_found -> ()
  | st ->
      if way_of st.content line 0 <> invalid then begin
        let content = (own t k st).content in
        for w = 0 to Array.length content - 1 do
          if content.(w) = line then content.(w) <- invalid
        done
      end

(* wbinvd: drop all cached content.  Replacement state is *not* reset —
   real hardware leaves the (now stale) replacement metadata in place. *)
let flush_content t =
  Sets.iter
    (fun k st ->
      if Array.exists (fun b -> b <> invalid) st.content then
        let content = (own t k st).content in
        Array.fill content 0 (Array.length content) invalid)
    t.sets

(* A checkpoint is the set map, the eviction counter and the PRNG position.
   It starts a new epoch, so every captured set is older than the current
   epoch from then on and is copied before it is written: no write ever
   reaches a captured map, and a restore — which captures nothing — can
   reinstate one as often as it likes.  Sets allocated after the
   checkpoint are absent from its map: they reappear lazily, pristine — the
   state they had when it was taken. *)
let checkpoint t =
  let sets = t.sets and evictions = t.evictions in
  let restore_prng = Cq_util.Prng.checkpoint t.prng in
  t.epoch <- t.epoch + 1;
  fun () ->
    t.sets <- sets;
    t.evictions <- evictions;
    restore_prng ()

(* Test-only introspection. *)
let peek_content t ~slice ~set =
  match Sets.find (key t ~slice ~set) t.sets with
  | st -> Array.map (fun b -> if b = invalid then None else Some b) st.content
  | exception Not_found -> Array.make t.effective_assoc None
let evictions t = t.evictions
