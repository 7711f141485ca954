(** The device primitives a prefix-sharing session drives: reset, one
    access, and a state checkpoint.  Generic in the backing device
    ([Cache_set], the hwsim machine via the CacheQuery frontend, ...);
    Polca's word-trie sessions are their one consumer. *)

type ('k, 'r) ops = {
  reset : unit -> unit;  (** bring the device to its fixed initial state *)
  access : 'k -> 'r;  (** one access, returning its observation *)
  checkpoint : unit -> unit -> unit;
      (** capture the device state; the returned thunk restores it *)
}
