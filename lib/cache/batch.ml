(* The device primitives a prefix-sharing session drives.

   Polca runs a batch of words as one session over the trie of the words:
   one reset, then a depth-first walk in which each trie edge is one real
   access and each branch point is a checkpoint restored between children
   instead of a replay of the prefix from reset.  All the session needs
   from the device is reset, a single-access step, and a checkpoint
   primitive returning a restore thunk.  [Cq_cache.Oracle.of_policy]
   provides them over the software-simulated set; the CacheQuery frontend
   over the full hardware simulator.  Results equal per-query execution
   whenever the device is deterministic from reset — exactly the property
   reset discovery validates. *)

type ('k, 'r) ops = {
  reset : unit -> unit;  (* bring the device to the fixed initial state *)
  access : 'k -> 'r;  (* one access, returning its observation *)
  checkpoint : unit -> unit -> unit;  (* capture state; thunk restores it *)
}
