(** Bounded retry with jittered-exponential backoff.

    One loop for the stack's two retry sites: the Hardware supervisor's
    transient retries (with {!immediate} — retrying a local simulator
    gains nothing by waiting) and the service client's reconnect loop
    (decorrelated jitter, so a daemon restart doesn't synchronise every
    client into a retry storm).  Delays come from a seeded PRNG and go through an
    injectable [sleep], so tests assert the exact schedule with a
    recording clock. *)

type jitter =
  | No_jitter  (** pure exponential: [base * multiplier^k], capped *)
  | Full  (** uniform in [0, exponential], capped *)
  | Decorrelated  (** AWS-style: uniform in [base, 3 * previous], capped *)

type policy = {
  base : float;
  cap : float;
  multiplier : float;
  jitter : jitter;
}

val policy :
  ?base:float ->
  ?cap:float ->
  ?multiplier:float ->
  ?jitter:jitter ->
  unit ->
  policy
(** Defaults: [base = 0.05], [cap = 5.0], [multiplier = 2.0],
    [jitter = Decorrelated].  Raises [Invalid_argument] on a negative
    base, a cap below base, or a multiplier below 1. *)

val default : policy

val immediate : policy
(** Zero-delay policy: the retry structure without the sleeping. *)

(** {2 Delay sequences} *)

type t

val start : ?seed:int -> policy -> t
val next : t -> float
(** The next delay in seconds, advancing the sequence. *)

val reset : t -> unit
(** Restart the sequence from scratch — attempt counter, decorrelated
    state, and the PRNG stream: after [reset] the delays replay exactly
    as they did from {!start}. *)

(** {2 The retry loop} *)

val retry :
  ?sleep:(float -> unit) ->
  ?on_wait:(attempt:int -> delay:float -> unit) ->
  ?seed:int ->
  policy:policy ->
  attempts:int ->
  init:'s ->
  (attempt:int -> 's -> [ `Done of 'a | `Retry of 's ]) ->
  ('a, 's) result
(** Run [f ~attempt state] up to [attempts] times (1-based), sleeping a
    policy delay between attempts.  [`Retry s'] carries state into the
    next attempt (a resume snapshot, an error to report); [Error s] is
    the final carried state when attempts are exhausted.  [sleep]
    defaults to [Unix.sleepf]; zero delays skip it entirely.  [on_wait]
    observes each scheduled delay (retry counters, logging). *)
