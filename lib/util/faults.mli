(** Deterministic, seeded fault injection.

    A registry maps named injection sites to firing schedules.  Call
    sites ask {!fire} ("should this activation fault?") and act on
    [true] — raise [ENOSPC], tear a frame, kill a worker — so a chaos
    run is a pure function of (seed, schedule) and replays exactly.

    {2 Site catalog}

    The sites currently wired through the stack (see DESIGN.md, "Fault
    model & resilience", for the authoritative table):

    - ["atomic_file.write"] — [ENOSPC] while writing the temp sibling
    - ["atomic_file.fsync"] — [EIO] at fsync
    - ["atomic_file.rename"] — simulated crash between temp write and
      rename (the temp file is left behind, as a real crash would)
    - ["atomic_file.append"] — [ENOSPC] half-way through a durable append
    - ["atomic_file.append_fsync"] — [EIO] at the append's fsync
    - ["frame.write.torn"] — a frame write emits a prefix then fails
    - ["frame.read.stall"] — a bounded stall before reading a payload
    - ["service.worker.kill"] — a daemon learn worker dies at a probe
    - ["hw.noise.burst"] — a noise burst injected at a backend probe *)

exception Injected of { site : string; detail : string }
(** Raised by {!inject} (and by call sites that have nothing more
    specific to raise) when a site fires. *)

type mode =
  | Nth of int  (** fire exactly on the k-th hit (1-based) *)
  | Every of int  (** fire on every k-th hit *)
  | First of int  (** fire on hits 1..k *)
  | Prob of float  (** fire per hit with probability p, seeded *)
  | Reach of int
      (** fire once, the first time the external measure [n] passed to
          {!fire} reaches k (hits without [~n] never fire) *)

type t

val create : ?seed:int -> unit -> t
(** A fresh registry, all sites disarmed.  Each armed site derives its
    own PRNG stream from [seed] and the site name, so arming one site
    never perturbs another's schedule. *)

val arm : t -> ?limit:int -> site:string -> mode -> unit
(** Arm (or re-arm, resetting counters) a site.  [limit] bounds the
    total number of fires.  Raises [Invalid_argument] on a non-positive
    count or a probability outside [0, 1]. *)

val fire : ?n:int -> t -> string -> bool
(** Record a hit on [site]; [true] when the schedule says this hit
    faults.  [n] is the external measure consulted by [Reach].
    Disarmed sites never fire.  Thread-safe. *)

val inject : ?n:int -> ?detail:string -> t -> string -> unit
(** [fire] and raise {!Injected} when it fires. *)

val hits : t -> string -> int
val fires : t -> string -> int

val counts : t -> (string * int * int) list
(** Every armed site as [(site, hits, fires)], sorted. *)

val total_fires : t -> int

(** {2 Ambient registry}

    Deep seams (the atomic-file writer, the frame codec) cannot thread a
    registry parameter through every caller; they consult the
    process-wide ambient registry.  [None] — the default and the
    production state — makes the check a single load. *)

val set_ambient : t option -> unit
val ambient : unit -> t option
val ambient_fire : ?n:int -> string -> bool
val ambient_inject : ?n:int -> ?detail:string -> string -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** Scoped activation: install [t], run, restore the previous registry
    (even on exceptions). *)

(** {2 Schedule specs} *)

val spec_syntax : string

val of_spec : ?seed:int -> string -> (t, string) result
(** Parse a schedule like
    ["atomic_file.fsync:nth=2;frame.write.torn:p=0.05,limit=3"] into an
    armed registry ({!spec_syntax}). *)
