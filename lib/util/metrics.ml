(* A typed metrics registry: counters, gauges, and fixed log-scale-bucket
   histograms, addressed by name.

   This replaces the ad-hoc stats records that used to live in the cache
   oracle, the membership oracle and the CacheQuery frontend/backend:
   those records now hold registry-backed handles, so every
   legacy report field *is* a view over a named metric and one registry
   snapshot shows the whole pipeline's traffic at once.

   Counters are [Atomic.t]-backed: the daemon's worker threads increment
   shared counters, and a plain [mutable int] would lose updates to a
   preempted read-modify-write.  Gauges and histograms stay plain
   mutable state.

   Registration is idempotent by name: asking twice for the same counter
   returns the same handle (that is what lets several pipeline layers
   share one registry), but asking for an existing name with a different
   metric kind — or a histogram with a different bucket shape — is a
   programming error and raises [Invalid_argument]. *)

type counter = { c_name : string; v : int Atomic.t }

type gauge = { g_name : string; mutable g : float }

(* Log-scale buckets: bucket 0 holds values <= [start]; bucket i holds
   values in (start * base^(i-1), start * base^i]; the last bucket is
   unbounded above.  Fixed shape, so histograms merge bucket-wise. *)
type histogram = {
  h_name : string;
  h_start : float;
  h_base : float;
  counts : int array;
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> c
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Metrics: %S is already registered with a different kind \
                (wanted counter)"
               name)
      | None ->
          let c = { c_name = name; v = Atomic.make 0 } in
          Hashtbl.add t.tbl name (Counter c); (* cq-lint: allow hashtbl-add: find_opt miss *)
          c)

let gauge t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Gauge g) -> g
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Metrics: %S is already registered with a different kind \
                (wanted gauge)"
               name)
      | None ->
          let g = { g_name = name; g = 0. } in
          Hashtbl.add t.tbl name (Gauge g); (* cq-lint: allow hashtbl-add: find_opt miss *)
          g)

let default_buckets = 32

let histogram ?(buckets = default_buckets) ?(base = 2.0) ?(start = 1.0) t name =
  if buckets < 2 then invalid_arg "Metrics.histogram: buckets must be >= 2";
  if base <= 1.0 then invalid_arg "Metrics.histogram: base must be > 1";
  if start <= 0.0 then invalid_arg "Metrics.histogram: start must be > 0";
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Histogram h) ->
          if
            Array.length h.counts <> buckets
            || h.h_base <> base || h.h_start <> start
          then
            invalid_arg
              (Printf.sprintf
                 "Metrics: histogram %S re-registered with a different \
                  bucket shape"
                 name)
          else h
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Metrics: %S is already registered with a different kind \
                (wanted histogram)"
               name)
      | None ->
          let h =
            {
              h_name = name;
              h_start = start;
              h_base = base;
              counts = Array.make buckets 0;
              h_sum = 0.;
              h_count = 0;
            }
          in
          Hashtbl.add t.tbl name (Histogram h); (* cq-lint: allow hashtbl-add: find_opt miss *)
          h)

(* --- counters --------------------------------------------------------- *)

let add c n = ignore (Atomic.fetch_and_add c.v n)
let incr c = add c 1
let value c = Atomic.get c.v

(* --- gauges ----------------------------------------------------------- *)

let set g x = g.g <- x

(* --- histograms ------------------------------------------------------- *)

(* Index of the bucket receiving [x].  Values at exactly an upper bound
   land in that bucket (half-open on the left); non-positive values and
   NaN land in bucket 0 rather than being dropped, so [h_count] always
   equals the number of [observe] calls. *)
let bucket_index h x =
  if not (x > h.h_start) then 0
  else
    let i = int_of_float (ceil (log (x /. h.h_start) /. log h.h_base)) in
    (* fp round-off near an exact boundary can land one bucket high *)
    let i =
      if i > 0 && x <= h.h_start *. (h.h_base ** float_of_int (i - 1)) then
        i - 1
      else i
    in
    min (Array.length h.counts - 1) (max 1 i)

let observe h x =
  let i = bucket_index h x in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. x;
  h.h_count <- h.h_count + 1

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let bucket_counts h = Array.copy h.counts

(* Upper bound of bucket [i]; the last bucket has none. *)
let bucket_upper_bound h i =
  if i < 0 || i >= Array.length h.counts then
    invalid_arg "Metrics.bucket_upper_bound: index out of range"
  else if i = Array.length h.counts - 1 then None
  else Some (h.h_start *. (h.h_base ** float_of_int i))

let merge_histogram ~into src =
  if
    Array.length into.counts <> Array.length src.counts
    || into.h_base <> src.h_base || into.h_start <> src.h_start
  then invalid_arg "Metrics.merge_histogram: bucket shapes differ";
  Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) src.counts;
  into.h_sum <- into.h_sum +. src.h_sum;
  into.h_count <- into.h_count + src.h_count

(* --- snapshot and export ---------------------------------------------- *)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float option * int) array; (* (upper bound, count) *)
}

type value_snapshot =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

let snapshot t =
  let items =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            let v =
              match m with
              | Counter c -> Counter_value (value c)
              | Gauge g -> Gauge_value g.g
              | Histogram h ->
                  Histogram_value
                    {
                      hs_count = h.h_count;
                      hs_sum = h.h_sum;
                      hs_buckets =
                        Array.mapi
                          (fun i n -> (bucket_upper_bound h i, n))
                          h.counts;
                    }
            in
            (name, v) :: acc)
          t.tbl [])
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) items

(* --- JSON ---------------------------------------------------------------- *)

let value_json = function
  | Counter_value n -> Json.Int n
  | Gauge_value x -> Json.Float x
  | Histogram_value h ->
      Json.Obj
        [
          ("count", Json.Int h.hs_count);
          ("sum", Json.Float h.hs_sum);
          ( "buckets",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (ub, n) ->
                      Json.Obj
                        [
                          ( "le",
                            match ub with
                            | Some ub -> Json.Float ub
                            | None -> Json.Null );
                          ("n", Json.Int n);
                        ])
                    h.hs_buckets)) );
        ]

let json t =
  Json.Obj (List.map (fun (name, v) -> (name, value_json v)) (snapshot t))

let to_json t = Json.to_string_pretty (json t) ^ "\n"

let write_json ~path t = Atomic_file.write ~path (to_json t)
