(* Deterministic pseudo-random number generation based on splitmix64.

   Everything in this repository that needs randomness (timing jitter in the
   hardware simulator, random-walk equivalence testing, property-based test
   generators with fixed seeds) goes through this module so that whole
   experiments are reproducible from a single seed. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let of_int seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output mix of one state word.  Inlined into both
   [next_int64] and the [sample_cdf] loop, so the two cannot drift. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* 53 uniform bits of one output mapped to [0, 1). *)
let[@inline] unit_float z =
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) /. 9007199254740992.0

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits62 t in
    let v = r mod bound in
    if r - v > (max_int lsr 1) - bound then go () else v
  in
  go ()

let float t = unit_float (next_int64 t)

let bool t p = float t < p

(* Box-Muller; one value per call is plenty for jitter modelling. *)
let gaussian t ~mu ~sigma =
  let u1 = max (float t) 1e-12 in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let split t = create (next_int64 t)

(* Inverse-CDF sampling through a guide table (Chen & Asau 1974).
   [guide.(k)] is a start index near the first entry reaching bucket k's
   lower edge; a draw jumps there and then walks backward and forward to
   the exact answer, so the guide only decides how far the walk goes,
   never where it ends.  16 buckets per entry keep the walk to about one
   step; the cap bounds the table for wide CDFs. *)

(* cq-lint: hot-loop — one iteration per draw; a trace generator draws
   100k times per daemon replay request, so per-draw allocation is a
   bug.  The splitmix state lives in an unboxed local written back once. *)
let sample_cdf t cdf ~len =
  let n = Array.length cdf in
  if n = 0 then invalid_arg "Prng.sample_cdf: empty CDF";
  if len < 0 then invalid_arg "Prng.sample_cdf: negative length";
  let total = cdf.(n - 1) in
  let m = min (16 * n) 4096 in
  let scale = float_of_int m /. total in
  let guide = Array.make m (n - 1) in
  let i = ref 0 in
  for k = 0 to m - 1 do
    while !i < n - 1 && Array.unsafe_get cdf !i *. scale < float_of_int k do
      incr i
    done;
    Array.unsafe_set guide k !i
  done;
  let out = Array.make len 0 in
  let state = ref t.state in
  for j = 0 to len - 1 do
    state := Int64.add !state golden;
    let u = unit_float (mix !state) *. total in
    (* [k] is clamped, so a NaN or out-of-range product cannot index
       outside the table. *)
    let k = int_of_float (u *. scale) in
    let k = if k < 0 then 0 else if k >= m then m - 1 else k in
    let i = ref (Array.unsafe_get guide k) in
    while !i > 0 && Array.unsafe_get cdf (!i - 1) >= u do
      decr i
    done;
    while !i < n - 1 && Array.unsafe_get cdf !i < u do
      incr i
    done;
    Array.unsafe_set out j !i
  done;
  t.state <- !state;
  out
(* cq-lint: end hot-loop *)

(* Capture the current stream position; the returned thunk rewinds to it.
   Used by the hardware simulator's state checkpoints. *)
let checkpoint t =
  let saved = t.state in
  fun () -> t.state <- saved

let shuffle_in_place t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t lst =
  match lst with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth lst (int t (List.length lst))
