(* Streaming statistics (Welford's online algorithm) plus small helpers used
   by the timing calibration in CacheQuery and by the benchmark harness. *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let min_value t = if t.n = 0 then nan else t.min
let max_value t = if t.n = 0 then nan else t.max

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then arr.(lo)
      else
        let frac = rank -. float_of_int lo in
        arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))

(* Otsu-style threshold between two latency populations: picks the cut that
   maximises between-class variance over an integer histogram.  Used by the
   CacheQuery backend to separate hit cycles from miss cycles without knowing
   either distribution in advance. *)
let otsu_threshold samples =
  match samples with
  | [] | [ _ ] -> None
  | _ ->
      let lo = List.fold_left min max_int samples in
      let hi = List.fold_left max min_int samples in
      if lo = hi then None
      else begin
        let bins = hi - lo + 1 in
        let hist = Array.make bins 0 in
        List.iter (fun s -> hist.(s - lo) <- hist.(s - lo) + 1) samples;
        let total = List.length samples in
        let sum_all =
          Array.to_list hist
          |> List.mapi (fun i c -> float_of_int (i * c))
          |> List.fold_left ( +. ) 0.0
        in
        let best = ref None in
        let best_score = ref neg_infinity in
        let w0 = ref 0 and sum0 = ref 0.0 in
        for i = 0 to bins - 2 do
          w0 := !w0 + hist.(i);
          sum0 := !sum0 +. float_of_int (i * hist.(i));
          let w1 = total - !w0 in
          if !w0 > 0 && w1 > 0 then begin
            let mu0 = !sum0 /. float_of_int !w0 in
            let mu1 = (sum_all -. !sum0) /. float_of_int w1 in
            let score = float_of_int !w0 *. float_of_int w1 *. ((mu0 -. mu1) ** 2.0) in
            if score > !best_score then begin
              best_score := score;
              best := Some (lo + i)
            end
          end
        done;
        (* Threshold is the upper edge of the chosen bin: values <= thr are
           class 0 (hits), values > thr are class 1 (misses). *)
        !best
      end
