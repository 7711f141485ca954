(* Tests for cq_util: PRNG determinism and distributions, streaming
   statistics, thresholding, duration formatting. *)

let test_prng_deterministic () =
  let a = Cq_util.Prng.create 42L and b = Cq_util.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Cq_util.Prng.next_int64 a)
      (Cq_util.Prng.next_int64 b)
  done

let test_prng_different_seeds () =
  let a = Cq_util.Prng.create 1L and b = Cq_util.Prng.create 2L in
  Alcotest.(check bool)
    "different seeds diverge" false
    (List.init 10 (fun _ -> Cq_util.Prng.next_int64 a)
    = List.init 10 (fun _ -> Cq_util.Prng.next_int64 b))

let test_prng_int_bound_error () =
  let p = Cq_util.Prng.of_int 7 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Cq_util.Prng.int p 0))

let test_prng_split_independent () =
  let a = Cq_util.Prng.create 42L in
  let b = Cq_util.Prng.split a in
  let xs = List.init 5 (fun _ -> Cq_util.Prng.next_int64 a) in
  let ys = List.init 5 (fun _ -> Cq_util.Prng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_prng_pick () =
  let p = Cq_util.Prng.of_int 3 in
  for _ = 1 to 50 do
    let x = Cq_util.Prng.pick p [ 1; 2; 3 ] in
    Alcotest.(check bool) "pick in list" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Cq_util.Prng.pick p []))

let test_stats_basic () =
  let s = Cq_util.Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 (Cq_util.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Cq_util.Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Cq_util.Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Cq_util.Stats.max_value s);
  Alcotest.(check (float 1e-9))
    "variance (Bessel)"
    (5.0 /. 3.0)
    (Cq_util.Stats.variance s)

let test_stats_median_percentile () =
  Alcotest.(check (float 1e-9)) "odd median" 3.0 (Cq_util.Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Cq_util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Cq_util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 3.0 (Cq_util.Stats.percentile [ 1.0; 2.0; 3.0 ] 100.0);
  Alcotest.(check (float 1e-9)) "p50 = median" 2.0 (Cq_util.Stats.percentile [ 1.0; 2.0; 3.0 ] 50.0)

let test_otsu_bimodal () =
  let lows = List.init 30 (fun i -> 4 + (i mod 3)) in
  let highs = List.init 30 (fun i -> 40 + (i mod 5)) in
  match Cq_util.Stats.otsu_threshold (lows @ highs) with
  | None -> Alcotest.fail "expected a threshold"
  | Some thr ->
      Alcotest.(check bool) "separates populations" true (thr >= 6 && thr < 40)

let test_otsu_degenerate () =
  Alcotest.(check (option int)) "constant sample" None (Cq_util.Stats.otsu_threshold [ 5; 5; 5 ]);
  Alcotest.(check (option int)) "empty" None (Cq_util.Stats.otsu_threshold [])

let test_duration_format () =
  Alcotest.(check string) "seconds" "0 h 0 m 1.50 s" (Cq_util.Clock.to_string 1.5);
  Alcotest.(check string) "hours" "2 h 3 m 4.00 s" (Cq_util.Clock.to_string ((2.0 *. 3600.0) +. (3.0 *. 60.0) +. 4.0))

let test_deep_pack_distributes () =
  (* The motivating regression: Evct^k-style lists share 10+-element
     prefixes; the packed keys must hash differently. *)
  let mk k = List.init 20 (fun i -> if i < 19 then 0 else k) in
  let h1, _ = Cq_util.Deep.pack (mk 1) in
  let h2, _ = Cq_util.Deep.pack (mk 2) in
  Alcotest.(check bool) "deep hash sees the tail" false (h1 = h2);
  Alcotest.(check bool)
    "default hash does not (motivation)" true
    (Hashtbl.hash (mk 1) = Hashtbl.hash (mk 2));
  Alcotest.(check (list int)) "unpack roundtrip" (mk 1) (Cq_util.Deep.unpack (Cq_util.Deep.pack (mk 1)))

(* qcheck properties *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Cq_util.Prng.of_int seed in
      let x = Cq_util.Prng.int p bound in
      x >= 0 && x < bound)

let prop_float_unit_interval =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let p = Cq_util.Prng.of_int seed in
      let x = Cq_util.Prng.float p in
      x >= 0.0 && x < 1.0)

let prop_median_bounded =
  QCheck.Test.make ~name:"median between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let m = Cq_util.Stats.median xs in
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      m >= lo && m <= hi)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Cq_util.Prng.shuffle_in_place (Cq_util.Prng.of_int seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"Welford mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Cq_util.Stats.of_list xs in
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Cq_util.Stats.mean s -. naive) < 1e-6)

(* Both JSON printers read back as the value they printed: compared
   through the compact printer, since an integral float prints (and so
   parses) as an integer. *)
let json_gen =
  let open QCheck.Gen in
  let char =
    oneof
      [
        char_range '\000' '\031';
        oneofl [ '"'; '\\'; '/'; ' ' ];
        char_range 'a' 'z';
        char_range '\128' '\255';
      ]
  in
  let str = string_size ~gen:char (0 -- 12) in
  let finite =
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        oneofl [ 0.; -0.; 3.0; 0.1; 1e300; -2.5e-300 ];
      ]
  in
  let scalar =
    oneof
      [
        return Cq_util.Json.Null;
        map (fun b -> Cq_util.Json.Bool b) bool;
        map (fun n -> Cq_util.Json.Int n) int;
        map (fun f -> Cq_util.Json.Float f) finite;
        map (fun s -> Cq_util.Json.String s) str;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Cq_util.Json.List l) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Cq_util.Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n - 1)))) );
             ])

let prop_json_printers_roundtrip =
  QCheck.Test.make ~name:"Json: compact and pretty printers round-trip"
    ~count:500
    (QCheck.make ~print:Cq_util.Json.to_string json_gen)
    (fun v ->
      let expected = Cq_util.Json.to_string v in
      List.for_all
        (fun print -> Cq_util.Json.(to_string (parse (print v))) = expected)
        [ Cq_util.Json.to_string; Cq_util.Json.to_string_pretty ])

(* PR-7 regressions: deadlines ride the monotonic clock (a mocked NTP
   step on the wall clock must not fire or starve them), and the duration
   printer carries centisecond rounding into minutes/hours. *)

let test_duration_carry () =
  Alcotest.(check string) "3599.999 carries to the hour" "1 h 0 m 0.00 s"
    (Cq_util.Clock.to_string 3599.999);
  Alcotest.(check string) "59.999 carries to the minute" "0 h 1 m 0.00 s"
    (Cq_util.Clock.to_string 59.999);
  Alcotest.(check string) "59.994 rounds down" "0 h 0 m 59.99 s"
    (Cq_util.Clock.to_string 59.994);
  Alcotest.(check string) "exact hour" "1 h 0 m 0.00 s"
    (Cq_util.Clock.to_string 3600.0);
  Alcotest.(check string) "negative spans" "-" (Cq_util.Clock.to_string (-1.0))

let test_deadline_ignores_wall_steps () =
  let d = Cq_util.Clock.after 5.0 in
  Fun.protect
    ~finally:(fun () -> Cq_util.Clock.set_wall_skew_for_tests 0.0)
    (fun () ->
      Cq_util.Clock.set_wall_skew_for_tests 3600.0;
      Alcotest.(check bool) "forward NTP step does not expire it" false
        (Cq_util.Clock.expired d);
      (match Cq_util.Clock.remaining d with
      | None -> Alcotest.fail "bounded deadline must report remaining time"
      | Some r ->
          Alcotest.(check bool) "remaining unaffected by the step" true
            (r > 4.0 && r <= 5.0));
      Cq_util.Clock.set_wall_skew_for_tests (-3600.0);
      Alcotest.(check bool) "backward step does not expire it either" false
        (Cq_util.Clock.expired d))

let test_mono_advances () =
  let t0 = Cq_util.Clock.mono () in
  let d = Cq_util.Clock.after 0.0 in
  while Cq_util.Clock.mono () -. t0 < 0.01 do
    ignore (Sys.opaque_identity 0)
  done;
  Alcotest.(check bool) "mono advances" true (Cq_util.Clock.mono () > t0);
  Alcotest.(check bool) "zero-length deadline expires" true
    (Cq_util.Clock.expired d)

let suite =
  ( "util",
    [
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng seeds differ" `Quick test_prng_different_seeds;
      Alcotest.test_case "prng bound error" `Quick test_prng_int_bound_error;
      Alcotest.test_case "prng split" `Quick test_prng_split_independent;
      Alcotest.test_case "prng pick" `Quick test_prng_pick;
      Alcotest.test_case "stats basic" `Quick test_stats_basic;
      Alcotest.test_case "stats median/percentile" `Quick test_stats_median_percentile;
      Alcotest.test_case "otsu bimodal" `Quick test_otsu_bimodal;
      Alcotest.test_case "otsu degenerate" `Quick test_otsu_degenerate;
      Alcotest.test_case "duration format" `Quick test_duration_format;
      Alcotest.test_case "duration carry" `Quick test_duration_carry;
      Alcotest.test_case "deadline ignores wall steps" `Quick
        test_deadline_ignores_wall_steps;
      Alcotest.test_case "mono advances" `Quick test_mono_advances;
      Alcotest.test_case "deep hash packing" `Quick test_deep_pack_distributes;
      QCheck_alcotest.to_alcotest prop_int_in_bounds;
      QCheck_alcotest.to_alcotest prop_float_unit_interval;
      QCheck_alcotest.to_alcotest prop_median_bounded;
      QCheck_alcotest.to_alcotest prop_shuffle_permutation;
      QCheck_alcotest.to_alcotest prop_welford_matches_naive;
      QCheck_alcotest.to_alcotest prop_json_printers_roundtrip;
    ] )
