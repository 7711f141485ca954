(* A running instance of a policy: mutable wrapper around the pure Mealy
   step function, with reset and checkpoints.  Cache simulators keep
   one instance per cache set. *)

type t =
  | Instance : {
      policy : Policy.t;
      init : 's;
      mutable state : 's;
      step_fn : 's -> Types.input -> 's * Types.output;
    }
      -> t

let create (Policy.Policy p as policy) =
  Instance { policy; init = p.init; state = p.init; step_fn = p.step }

let policy (Instance i) = i.policy
let assoc (Instance i) = Policy.assoc i.policy

let step (Instance i) input =
  let s', out = i.step_fn i.state input in
  i.state <- s';
  out

let reset (Instance i) = i.state <- i.init

(* Checkpoints nest arbitrarily (a word-trie session's DFS restores branch
   points in stack order).  Policy states are immutable values, so
   capturing the value suffices. *)
let checkpoint (Instance i) =
  let s = i.state in
  fun () -> i.state <- s

(* An independent instance in the same control state (states are immutable
   values, so sharing one is safe). *)
let copy (Instance i) =
  Instance
    { policy = i.policy; init = i.init; state = i.state; step_fn = i.step_fn }

(* Convenience wrappers used by the cache-set logic. *)
let touch t line = ignore (step t (Types.Line line))

let evict t =
  match step t Types.Evct with
  | Some victim -> victim
  | None -> invalid_arg "Instance.evict: policy returned ⊥ on Evct"
