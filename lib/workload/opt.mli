(** Belady's OPT: the offline-optimal replacement baseline.

    OPT evicts the resident block whose next use lies farthest in the
    future.  Among demand-fill caches that evict exactly one block per
    miss, no policy has fewer misses on a given trace (Belady 1966) —
    the property test holds every zoo policy to that bound.  The
    implementation is deterministic: ties break toward the lowest way,
    so the same trace always yields the same stream. *)

val replay : assoc:int -> ?cold:bool -> int array -> Replay.outcome
(** [replay ~assoc blocks] simulates OPT on one set through
    {!Replay.run}: a backward next-use pass, then a farthest-next-use
    chooser as the stepper.  [cold] follows {!Replay}: by default blocks
    [0 .. assoc-1] start in ways [0 .. assoc-1]; [~cold:true] starts
    empty (cold misses fill the lowest invalid way, as everywhere
    else).  O(len × assoc) time, O(len + universe) space. *)

val hit_rate : assoc:int -> ?cold:bool -> int array -> float
