(* One retry loop for the whole stack.

   Two places used to hand-roll this: the Hardware supervisor's
   transient-retry recursion and the service client's reconnect loop.
   Each had its own attempt bookkeeping and none agreed on delays.  This
   module owns the shape — bounded attempts, a delay policy with
   jittered-exponential growth, deterministic when seeded — and lets the
   call site keep only its domain logic (what to run, what state to
   carry between attempts).

   Delays are computed from a seeded PRNG and slept through an injectable
   [sleep], so tests retry with a recording clock instead of real time:
   the schedule a production client would sleep is asserted exactly. *)

type jitter = No_jitter | Full | Decorrelated

type policy = {
  base : float;
  cap : float;
  multiplier : float;
  jitter : jitter;
}

let policy ?(base = 0.05) ?(cap = 5.0) ?(multiplier = 2.0)
    ?(jitter = Decorrelated) () =
  if base < 0.0 then invalid_arg "Backoff.policy: base must be >= 0";
  if cap < base then invalid_arg "Backoff.policy: cap must be >= base";
  if multiplier < 1.0 then
    invalid_arg "Backoff.policy: multiplier must be >= 1";
  { base; cap; multiplier; jitter }

let default = policy ()

(* Zero-delay policy: retry immediately.  The Hardware supervisor runs
   against a local simulator where waiting buys nothing; it wants the
   loop structure, not the sleeping. *)
let immediate = policy ~base:0.0 ~cap:0.0 ~jitter:No_jitter ()

type t = {
  p : policy;
  seed : int;
  mutable prng : Prng.t;
  mutable attempt : int;
  mutable prev : float; (* last delay, feeds decorrelated jitter *)
}

let start ?(seed = 0) p =
  { p; seed; prng = Prng.of_int seed; attempt = 0; prev = p.base }

let next t =
  let { base; cap; multiplier; jitter } = t.p in
  t.attempt <- t.attempt + 1;
  let delay =
    if base = 0.0 then 0.0
    else
      match jitter with
      | No_jitter ->
          Float.min cap
            (base *. Float.pow multiplier (float_of_int (t.attempt - 1)))
      | Full ->
          let top =
            Float.min cap
              (base *. Float.pow multiplier (float_of_int (t.attempt - 1)))
          in
          Prng.float t.prng *. top
      | Decorrelated ->
          (* AWS-style: uniform in [base, 3 * previous], capped.  Spreads
             concurrent reconnectors apart instead of synchronising them
             into retry storms. *)
          let top = Float.max base (3.0 *. t.prev) in
          Float.min cap (base +. (Prng.float t.prng *. (top -. base)))
  in
  t.prev <- delay;
  delay

(* Restart the whole sequence, PRNG stream included: a reset schedule is
   byte-for-byte the original one, so recovery behaviour after a healed
   outage stays reproducible from the seed. *)
let reset t =
  t.attempt <- 0;
  t.prev <- t.p.base;
  t.prng <- Prng.of_int t.seed

let retry ?(sleep = Unix.sleepf) ?on_wait ?seed ~policy ~attempts ~init f =
  if attempts < 1 then invalid_arg "Backoff.retry: attempts must be >= 1";
  let seq = start ?seed policy in
  let rec go attempt state =
    match f ~attempt state with
    | `Done v -> Ok v
    | `Retry state ->
        if attempt >= attempts then Error state
        else begin
          let delay = next seq in
          (match on_wait with
          | Some g -> g ~attempt ~delay
          | None -> ());
          if delay > 0.0 then sleep delay;
          go (attempt + 1) state
        end
  in
  go 1 init
