(* Synthetic single-set access traces.  Every generator draws from
   Cq_util.Prng, so the trace is a pure function of its spec string and CI
   can regenerate expectations from specs alone. *)

module Prng = Cq_util.Prng

type t = {
  label : string;
  spec : string;
  universe : int;
  blocks : int array;
}

let check_pos name v = if v <= 0 then invalid_arg ("Trace: " ^ name ^ " must be positive")

(* Zipf by inversion of a precomputed CDF: weight of block b is
   1/(b+1)^alpha, so low ids are hot — the skewed-reuse shape of SPEC-like
   workloads.  [Prng.sample_cdf] returns exactly what a binary search over
   [Prng.float] would, so a spec keeps its blocks across sampler changes.
   The spec prints alpha with the shortest digits that read back as the
   same float, so [of_spec t.spec] rebuilds [t]. *)
let zipf ~n ~alpha ~len ~seed =
  check_pos "n" n;
  check_pos "len" len;
  if not (Float.is_finite alpha && alpha >= 0.0) then
    invalid_arg "Trace.zipf: alpha must be finite and non-negative";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for b = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (b + 1) ** alpha));
    cdf.(b) <- !total
  done;
  {
    label = Printf.sprintf "zipf(n=%d,a=%.2f)" n alpha;
    spec =
      Printf.sprintf "zipf:n=%d,alpha=%s,len=%d,seed=%d" n
        (Cq_util.Json.shortest_float alpha)
        len seed;
    universe = n;
    blocks = Prng.sample_cdf (Prng.of_int seed) cdf ~len;
  }

(* Uniform ids over [n] blocks: the recency-free baseline. *)
let uniform ~n ~len ~seed =
  check_pos "n" n;
  check_pos "len" len;
  let prng = Prng.of_int seed in
  let blocks = Array.init len (fun _ -> Prng.int prng n) in
  {
    label = Printf.sprintf "uniform(n=%d)" n;
    spec = Printf.sprintf "uniform:n=%d,len=%d,seed=%d" n len seed;
    universe = n;
    blocks;
  }

(* Cyclic scan [0, 1, ..., n-1, 0, ...]: a streaming workload.  With
   [n > assoc] it defeats every recency-based policy. *)
let sequential ~n ~len =
  check_pos "n" n;
  check_pos "len" len;
  let blocks = Array.init len (fun i -> i mod n) in
  {
    label = Printf.sprintf "seq(n=%d)" n;
    spec = Printf.sprintf "seq:n=%d,len=%d" n len;
    universe = n;
    blocks;
  }

(* Strided scan [(i * stride) mod n]: the regular-array pattern. *)
let strided ~n ~stride ~len =
  check_pos "n" n;
  check_pos "stride" stride;
  check_pos "len" len;
  let blocks = Array.init len (fun i -> i * stride mod n) in
  {
    label = Printf.sprintf "stride(n=%d,s=%d)" n stride;
    spec = Printf.sprintf "stride:n=%d,stride=%d,len=%d" n stride len;
    universe = n;
    blocks;
  }

(* The adversarial anti-LRU loop: a cyclic working set of [ws] blocks.
   With [ws = assoc + 1], LRU misses on every access while OPT keeps
   [ws - assoc] misses per lap. *)
let anti_lru ~ws ~len =
  check_pos "ws" ws;
  check_pos "len" len;
  let blocks = Array.init len (fun i -> i mod ws) in
  {
    label = Printf.sprintf "anti-lru(ws=%d)" ws;
    spec = Printf.sprintf "anti:ws=%d,len=%d" ws len;
    universe = ws;
    blocks;
  }

(* --- spec grammar ------------------------------------------------------

   One shell-safe token describes a trace:

     zipf:n=64,alpha=1.2,len=10000,seed=1 | uniform:... | seq:... |
     stride:... | anti:ws=9,len=10000

   mirroring Faults.of_spec so CLI flags, CI and benches share one
   vocabulary. *)

let spec_syntax =
  "zipf:n=N,alpha=F,len=N,seed=N | uniform:n=N,len=N,seed=N | \
   seq:n=N,len=N | stride:n=N,stride=N,len=N | anti:ws=N,len=N \
   (all keys optional)"

let of_spec ?assoc spec =
  let name, rest =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
  in
  let kvs =
    if rest = "" then Ok []
    else
      let parts = String.split_on_char ',' rest in
      let parse_kv kv =
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
        | Some j ->
            Ok
              ( String.sub kv 0 j,
                String.sub kv (j + 1) (String.length kv - j - 1) )
      in
      List.fold_left
        (fun acc kv ->
          Result.bind acc (fun l ->
              Result.map (fun p -> p :: l) (parse_kv kv)))
        (Ok []) parts
  in
  match kvs with
  | Error _ as e -> e
  | Ok kvs -> (
      let known keys =
        let rec bad = function
          | [] -> None
          | (k, _) :: tl -> if List.mem k keys then bad tl else Some k
        in
        match bad kvs with
        | None -> Ok ()
        | Some k ->
            Error
              (Printf.sprintf "unknown key %S for %S (%s)" k name spec_syntax)
      in
      let int_key key default =
        match List.assoc_opt key kvs with
        | None -> Ok default
        | Some v -> (
            match int_of_string_opt v with
            | Some n -> Ok n
            | None -> Error (Printf.sprintf "%s=%S is not an integer" key v))
      in
      let float_key key default =
        match List.assoc_opt key kvs with
        | None -> Ok default
        | Some v -> (
            match float_of_string_opt v with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "%s=%S is not a number" key v))
      in
      let ( let* ) = Result.bind in
      (* A generator rejects an out-of-range value (n=0, alpha=nan) with
         Invalid_argument: surface it as the typed error. *)
      let generate f = try Ok (f ()) with Invalid_argument msg -> Error msg in
      match name with
      | "zipf" ->
          let* () = known [ "n"; "alpha"; "len"; "seed" ] in
          let* n = int_key "n" 64 in
          let* alpha = float_key "alpha" 1.2 in
          let* len = int_key "len" 10_000 in
          let* seed = int_key "seed" 1 in
          generate (fun () -> zipf ~n ~alpha ~len ~seed)
      | "uniform" ->
          let* () = known [ "n"; "len"; "seed" ] in
          let* n = int_key "n" 64 in
          let* len = int_key "len" 10_000 in
          let* seed = int_key "seed" 1 in
          generate (fun () -> uniform ~n ~len ~seed)
      | "seq" ->
          let* () = known [ "n"; "len" ] in
          let* n = int_key "n" 16 in
          let* len = int_key "len" 10_000 in
          generate (fun () -> sequential ~n ~len)
      | "stride" ->
          let* () = known [ "n"; "stride"; "len" ] in
          let* n = int_key "n" 64 in
          let* stride = int_key "stride" 3 in
          let* len = int_key "len" 10_000 in
          generate (fun () -> strided ~n ~stride ~len)
      | "anti" ->
          let* () = known [ "ws"; "len" ] in
          let default_ws = match assoc with Some a -> a + 1 | None -> 9 in
          let* ws = int_key "ws" default_ws in
          let* len = int_key "len" 10_000 in
          generate (fun () -> anti_lru ~ws ~len)
      | _ ->
          Error
            (Printf.sprintf "unknown trace kind %S (%s)" name spec_syntax))

let of_spec_exn ?assoc spec =
  match of_spec ?assoc spec with
  | Ok t -> t
  | Error msg -> invalid_arg ("Trace.of_spec: " ^ msg)
