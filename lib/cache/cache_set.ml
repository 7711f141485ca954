(* A single n-way cache set induced by a replacement policy — the labelled
   transition system of Definition 2.3 / Figure 2.

   The cache stores blocks in lines; the policy sees only line indices
   [Ln(i)] and eviction requests [Evct], never the blocks themselves (the
   data-independence that Polca exploits).  A [Hit] on line [i] forwards
   [Ln(i)] to the policy; a [Miss] asks the policy for a victim line with
   [Evct] and installs the block there.

   The structure is mutable (it models a device) but [reset] restores the
   exact initial configuration, which is what learning requires. *)

type result = Hit | Miss

let result_is_hit = function Hit -> true | Miss -> false

let pp_result ppf r = Fmt.string ppf (match r with Hit -> "Hit" | Miss -> "Miss")

type t = {
  assoc : int;
  initial_content : Block.t array;
  content : Block.t array;
  policy : Cq_policy.Instance.t;
  mutable accesses : int; (* total block accesses served since creation *)
}

let create ?initial_content policy =
  let assoc = Cq_policy.Policy.assoc policy in
  let initial_content =
    match initial_content with
    | Some blocks ->
        if Array.length blocks <> assoc then
          invalid_arg "Cache_set.create: initial content must fill the set";
        let sorted = Array.to_list blocks |> List.sort_uniq Block.compare in
        if List.length sorted <> assoc then
          invalid_arg "Cache_set.create: initial content has repeated blocks";
        Array.copy blocks
    | None -> Array.of_list (Block.first assoc)
  in
  {
    assoc;
    initial_content;
    content = Array.copy initial_content;
    policy = Cq_policy.Instance.create policy;
    accesses = 0;
  }

let assoc c = c.assoc
let initial_content c = Array.copy c.initial_content
let content c = Array.copy c.content
let accesses c = c.accesses

let blit_content c content =
  Array.blit content 0 c.content 0 (Array.length content)

let reset c =
  blit_content c c.initial_content;
  Cq_policy.Instance.reset c.policy

(* Snapshot/restore of the full configuration (content + policy control
   state), the checkpoint behind Polca's word-trie sessions: a trie of
   words is walked DFS, restoring the branch point instead of replaying
   the shared prefix.  The policy half is an instance checkpoint. *)
type snapshot = {
  set : t;
  saved : Block.t array;
  restore_policy : unit -> unit;
}

let snapshot c =
  {
    set = c;
    saved = Array.copy c.content;
    restore_policy = Cq_policy.Instance.checkpoint c.policy;
  }

let restore s =
  blit_content s.set s.saved;
  s.restore_policy ()

let find_line c block =
  let found = ref None in
  Array.iteri
    (fun i b -> if !found = None && Block.equal b block then found := Some i)
    c.content;
  !found

(* Figure 2: the Hit and Miss rules. *)
let access c block =
  c.accesses <- c.accesses + 1;
  match find_line c block with
  | Some i -> (
      match Cq_policy.Instance.step c.policy (Cq_policy.Types.Line i) with
      | None -> Hit
      | Some _ -> invalid_arg "Cache_set.access: policy evicted on a hit")
  | None -> (
      match Cq_policy.Instance.step c.policy Cq_policy.Types.Evct with
      | Some i when i >= 0 && i < c.assoc ->
          c.content.(i) <- block;
          Miss
      | _ -> invalid_arg "Cache_set.access: policy returned no victim on a miss")

let access_seq t blocks = List.map (access t) blocks

(* Flush: empty the set is not expressible in the Def 2.3 model (content is
   always full); hardware reset via clflush is modelled in cq_hwsim.  Here
   [reload] re-runs an access sequence from the initial configuration. *)
let run_from_reset t blocks =
  reset t;
  access_seq t blocks
