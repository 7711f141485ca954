(* Tests for the observability layer (Cq_util.Trace + Cq_util.Metrics):
   span nesting and ordering, ring-buffer overflow accounting, exporter
   well-formedness (every emitted array element / line is re-parsed by an
   independent JSON reader), the disabled-mode strict no-op (including
   zero allocations), histogram bucket boundaries and merging, and the
   registry-backed stats invariant that legacy report fields and the
   exported registry cannot disagree. *)

module Trace = Cq_util.Trace
module Metrics = Cq_util.Metrics

(* --- A minimal JSON reader, the exporters' adversarial counterpart ---- *)
(* The repo carries no JSON dependency (the exporters hand-roll their
   output), so validation needs its own parser.  Strict: rejects trailing
   garbage, raw control characters in strings, malformed escapes. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              Buffer.add_char buf '"';
              advance ();
              go ()
          | Some '\\' ->
              Buffer.add_char buf '\\';
              advance ();
              go ()
          | Some '/' ->
              Buffer.add_char buf '/';
              advance ();
              go ()
          | Some 'b' ->
              Buffer.add_char buf '\b';
              advance ();
              go ()
          | Some 'f' ->
              Buffer.add_char buf '\012';
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char buf '\r';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "malformed \\u escape"
              in
              (* The exporters only \u-escape control bytes, so the code
                 point always fits one byte. *)
              Buffer.add_char buf (Char.chr (code land 0xff));
              pos := !pos + 4;
              go ()
          | _ -> fail "unknown escape")
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when numeric c -> true | _ -> false do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail (Printf.sprintf "malformed number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      advance ();
      Obj [])
    else
      let fields = ref [] in
      let rec field () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            field ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}' in object"
      in
      field ();
      Obj (List.rev !fields)
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      advance ();
      Arr [])
    else
      let items = ref [] in
      let rec element () =
        items := parse_value () :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            element ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']' in array"
      in
      element ();
      Arr (List.rev !items)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function Obj fields -> List.assoc_opt name fields | _ -> None

let str_field name j =
  match field name j with Some (Str s) -> Some s | _ -> None

(* Every test leaves tracing off, whatever happens inside. *)
let with_tracing ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect ~finally:Trace.disable f

(* --- Spans ------------------------------------------------------------ *)

let test_span_nesting () =
  with_tracing (fun () ->
      let r =
        Trace.with_span "outer" (fun () ->
            Trace.with_span ~cat:"unit" "inner" (fun () ->
                Trace.instant "tick";
                17))
      in
      Alcotest.(check int) "value passes through" 17 r;
      match Trace.events () with
      | [ tick; inner; outer ] ->
          (* Spans are recorded at completion, so the instant inside the
             innermost span lands first and the outermost span last. *)
          Alcotest.(check string) "instant first" "tick" tick.Trace.name;
          Alcotest.(check string) "inner second" "inner" inner.Trace.name;
          Alcotest.(check string) "outer last" "outer" outer.Trace.name;
          Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
          Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
          Alcotest.(check int) "instant depth" 2 tick.Trace.depth;
          Alcotest.(check bool) "inner within outer" true
            (inner.Trace.ts_us >= outer.Trace.ts_us
            && inner.Trace.ts_us +. inner.Trace.dur_us
               <= outer.Trace.ts_us +. outer.Trace.dur_us +. 1.0)
      | evs -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length evs)))

(* A wall-clock step (mocked NTP) between two events must neither
   reorder them nor stretch a span across it. *)
let test_timestamps_ignore_wall_steps () =
  let skew = Cq_util.Clock.set_wall_skew_for_tests in
  Fun.protect ~finally:(fun () -> skew 0.0) @@ fun () ->
  with_tracing (fun () ->
      Trace.instant "before";
      skew (-3600.0);
      Trace.with_span "across" (fun () -> skew 3600.0);
      match Trace.events () with
      | [ before; across ] ->
          Alcotest.(check bool) "order survives a backward step" true
            (across.Trace.ts_us >= before.Trace.ts_us);
          Alcotest.(check bool) "span not stretched by a forward step" true
            (across.Trace.dur_us < 1e6)
      | evs ->
          Alcotest.fail
            (Printf.sprintf "expected 2 events, got %d" (List.length evs)))

let test_span_records_on_raise () =
  with_tracing (fun () ->
      (try Trace.with_span "doomed" (fun () -> failwith "boom")
       with Failure _ -> ());
      match Trace.events () with
      | [ ev ] ->
          Alcotest.(check string) "span recorded despite raise" "doomed" ev.Trace.name;
          Alcotest.(check int) "depth restored" 0 ev.Trace.depth
      | _ -> Alcotest.fail "expected exactly one event");
  (* The depth counter must have been restored by the raise path: a new
     top-level span still records at depth 0. *)
  with_tracing (fun () ->
      Trace.with_span "after" (fun () -> ());
      match Trace.events () with
      | [ ev ] -> Alcotest.(check int) "depth 0 after raise" 0 ev.Trace.depth
      | _ -> Alcotest.fail "expected exactly one event")

(* --- Ring buffer ------------------------------------------------------ *)

let test_ring_overflow () =
  with_tracing ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Trace.instant (Printf.sprintf "i%d" i)
      done;
      Alcotest.(check int) "recorded counts everything" 20 (Trace.recorded ());
      Alcotest.(check int) "dropped = recorded - capacity" 12 (Trace.dropped ());
      let names = List.map (fun ev -> ev.Trace.name) (Trace.events ()) in
      Alcotest.(check (list string))
        "ring keeps the newest events, oldest surviving first"
        [ "i12"; "i13"; "i14"; "i15"; "i16"; "i17"; "i18"; "i19" ]
        names;
      Trace.clear ();
      Alcotest.(check int) "clear resets recorded" 0 (Trace.recorded ());
      Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped ());
      Alcotest.(check (list string))
        "clear empties the ring" []
        (List.map (fun ev -> ev.Trace.name) (Trace.events ())))

(* --- Exporters -------------------------------------------------------- *)

(* Argument values chosen to stress the hand-rolled string escaping. *)
let nasty_args =
  [
    ("quote", "a\"b");
    ("backslash", "a\\b");
    ("newline", "line1\nline2");
    ("control", "bell\001tab\t");
  ]

let record_sample_events () =
  Trace.with_span ~cat:"test" ~args:nasty_args "nasty \"span\"" (fun () ->
      Trace.with_span "child" (fun () -> Trace.instant ~args:[ ("k", "v") ] "mark"));
  Trace.counter "queries" 42.0

let test_chrome_export_wellformed () =
  with_tracing (fun () ->
      record_sample_events ();
      let events =
        match parse_json (Trace.to_chrome_json ()) with
        | Arr events -> events
        | _ -> Alcotest.fail "chrome trace is not a JSON array"
      in
      Alcotest.(check int) "one element per event" (List.length (Trace.events ()))
        (List.length events);
      List.iter
        (fun ev ->
          List.iter
            (fun key ->
              if field key ev = None then
                Alcotest.fail (Printf.sprintf "event lacks %S" key))
            [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ])
        events;
      let by_name name =
        match
          List.find_opt (fun ev -> str_field "name" ev = Some name) events
        with
        | Some ev -> ev
        | None -> Alcotest.fail (Printf.sprintf "no event named %S" name)
      in
      let span = by_name "nasty \"span\"" in
      Alcotest.(check (option string)) "span is a complete event" (Some "X")
        (str_field "ph" span);
      Alcotest.(check bool) "span has a duration" true (field "dur" span <> None);
      (match field "args" span with
      | Some args ->
          List.iter
            (fun (k, v) ->
              Alcotest.(check (option string))
                (Printf.sprintf "arg %s round-trips" k)
                (Some v) (str_field k args))
            nasty_args
      | None -> Alcotest.fail "span lost its args");
      Alcotest.(check (option string)) "instant is ph i" (Some "i")
        (str_field "ph" (by_name "mark"));
      let counter = by_name "queries" in
      Alcotest.(check (option string)) "counter is ph C" (Some "C")
        (str_field "ph" counter))

let test_jsonl_export_wellformed () =
  with_tracing (fun () ->
      record_sample_events ();
      let lines =
        String.split_on_char '\n' (Trace.to_jsonl ())
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per event" (List.length (Trace.events ()))
        (List.length lines);
      List.iter
        (fun line ->
          match parse_json line with
          | Obj _ -> ()
          | _ -> Alcotest.fail "JSONL line is not an object")
        lines)

let test_export_files () =
  let chrome = Filename.temp_file "cq_trace" ".json" in
  let jsonl = Filename.temp_file "cq_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove chrome;
      Sys.remove jsonl)
    (fun () ->
      with_tracing (fun () ->
          record_sample_events ();
          Trace.export_chrome ~path:chrome ();
          Trace.export_jsonl ~path:jsonl ());
      let read path = In_channel.with_open_text path In_channel.input_all in
      (match parse_json (read chrome) with
      | Arr (_ :: _) -> ()
      | _ -> Alcotest.fail "exported chrome trace is not a non-empty array");
      match parse_json (String.trim (read jsonl) |> String.split_on_char '\n' |> List.hd) with
      | Obj _ -> ()
      | _ -> Alcotest.fail "exported JSONL first line is not an object")

(* --- Disabled mode ---------------------------------------------------- *)

let test_disabled_strict_noop () =
  Trace.disable ();
  let r = Trace.with_span "ignored" (fun () -> 9) in
  Alcotest.(check int) "with_span is identity on the result" 9 r;
  Trace.instant "ignored";
  Trace.counter "ignored" 1.0;
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded ());
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
  Alcotest.(check bool) "no events" true (Trace.events () = []);
  match parse_json (Trace.to_chrome_json ()) with
  | Arr [] -> ()
  | _ -> Alcotest.fail "disabled chrome trace is not an empty JSON array"

let test_disabled_zero_allocation () =
  Trace.disable ();
  let body = fun () -> () in
  (* Warm up so any one-time setup is outside the measured window. *)
  for _ = 1 to 100 do
    Trace.with_span "hot" body
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.with_span "hot" body
  done;
  let allocated = Gc.minor_words () -. before in
  (* A handful of words of slack covers the boxed floats the measurement
     itself allocates; 10k disabled spans must not allocate beyond that. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled spans allocate nothing (saw %.0f words)" allocated)
    true (allocated < 64.0)

(* --- Histograms ------------------------------------------------------- *)

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~buckets:4 ~base:2.0 ~start:1.0 reg "h" in
  (* Bucket 0: (-inf, 1]; bucket 1: (1, 2]; bucket 2: (2, 4]; bucket 3:
     (4, inf).  Non-positive and NaN observations land in bucket 0. *)
  Alcotest.(check (option (float 1e-9))) "bound 0" (Some 1.0)
    (Metrics.bucket_upper_bound h 0);
  Alcotest.(check (option (float 1e-9))) "bound 1" (Some 2.0)
    (Metrics.bucket_upper_bound h 1);
  Alcotest.(check (option (float 1e-9))) "bound 2" (Some 4.0)
    (Metrics.bucket_upper_bound h 2);
  Alcotest.(check (option (float 1e-9))) "last bucket unbounded" None
    (Metrics.bucket_upper_bound h 3);
  Alcotest.check_raises "out-of-range bound"
    (Invalid_argument "Metrics.bucket_upper_bound: index out of range")
    (fun () -> ignore (Metrics.bucket_upper_bound h 4));
  List.iter (Metrics.observe h)
    [ -5.0; 0.0; Float.nan; 1.0; 1.5; 2.0; 2.1; 4.0; 100.0 ];
  Alcotest.(check int) "count equals observations" 9 (Metrics.hist_count h);
  Alcotest.(check (array int)) "boundary values land in-or-below"
    [| 4; 2; 2; 1 |] (Metrics.bucket_counts h)

let test_histogram_merge () =
  let reg = Metrics.create () in
  let a = Metrics.histogram ~buckets:3 reg "a" in
  let b = Metrics.histogram ~buckets:3 reg "b" in
  List.iter (Metrics.observe a) [ 0.5; 3.0 ];
  List.iter (Metrics.observe b) [ 1.5; 3.0; 10.0 ];
  Metrics.merge_histogram ~into:a b;
  Alcotest.(check int) "merged count" 5 (Metrics.hist_count a);
  Alcotest.(check (float 1e-9)) "merged sum" 18.0 (Metrics.hist_sum a);
  Alcotest.(check int) "source untouched" 3 (Metrics.hist_count b);
  let odd = Metrics.histogram ~buckets:7 reg "odd" in
  Alcotest.(check bool) "shape mismatch raises" true
    (match Metrics.merge_histogram ~into:a odd with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- Registry --------------------------------------------------------- *)

let test_registry_idempotent () =
  let reg = Metrics.create () in
  let c1 = Metrics.counter reg "layer.queries" in
  let c2 = Metrics.counter reg "layer.queries" in
  Metrics.incr c1;
  Metrics.add c2 4;
  Alcotest.(check int) "same handle through both registrations" 5
    (Metrics.value c1);
  Alcotest.(check bool) "kind mismatch raises" true
    (match Metrics.gauge reg "layer.queries" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_registry_json () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "b.count") 3;
  Metrics.set (Metrics.gauge reg "a.depth") 2.5;
  Metrics.observe (Metrics.histogram ~buckets:3 reg "c.lat") 1.5;
  let j = parse_json (Metrics.to_json reg) in
  (match j with Obj _ -> () | _ -> Alcotest.fail "to_json is not an object");
  (match field "b.count" j with
  | Some (Num v) -> Alcotest.(check (float 0.0)) "counter value" 3.0 v
  | _ -> Alcotest.fail "counter missing from JSON");
  (match field "a.depth" j with
  | Some (Num v) -> Alcotest.(check (float 0.0)) "gauge value" 2.5 v
  | _ -> Alcotest.fail "gauge missing from JSON");
  match field "c.lat" j with
  | Some (Obj _) -> ()
  | _ -> Alcotest.fail "histogram missing from JSON"

(* Legacy report fields are views over the registry: a stats record
   registered into a registry must be indistinguishable from reading the
   registry's snapshot. *)
let test_stats_fields_are_registry_views () =
  let reg = Metrics.create () in
  let stats = Cq_cache.Oracle.fresh_stats ~registry:reg ~prefix:"oracle" () in
  Metrics.add stats.Cq_cache.Oracle.queries 7;
  Metrics.add stats.Cq_cache.Oracle.block_accesses 21;
  Metrics.observe stats.Cq_cache.Oracle.batch_depth 3.0;
  let snap = Metrics.snapshot reg in
  (match List.assoc_opt "oracle.queries" snap with
  | Some (Metrics.Counter_value v) ->
      Alcotest.(check int) "field and registry agree" 7 v
  | _ -> Alcotest.fail "oracle.queries not a registry counter");
  (match List.assoc_opt "oracle.block_accesses" snap with
  | Some (Metrics.Counter_value v) -> Alcotest.(check int) "accesses" 21 v
  | _ -> Alcotest.fail "oracle.block_accesses not a registry counter");
  match List.assoc_opt "oracle.batch_depth" snap with
  | Some (Metrics.Histogram_value h) ->
      Alcotest.(check int) "histogram observation visible" 1 h.Metrics.hs_count
  | _ -> Alcotest.fail "oracle.batch_depth not a registry histogram"

let suite =
  ( "trace",
    [
      Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
      Alcotest.test_case "span records on raise" `Quick test_span_records_on_raise;
      Alcotest.test_case "timestamps ignore wall-clock steps" `Quick
        test_timestamps_ignore_wall_steps;
      Alcotest.test_case "ring-buffer overflow" `Quick test_ring_overflow;
      Alcotest.test_case "chrome exporter well-formed" `Quick
        test_chrome_export_wellformed;
      Alcotest.test_case "jsonl exporter well-formed" `Quick
        test_jsonl_export_wellformed;
      Alcotest.test_case "file exporters" `Quick test_export_files;
      Alcotest.test_case "disabled mode is a strict no-op" `Quick
        test_disabled_strict_noop;
      Alcotest.test_case "disabled mode allocates nothing" `Quick
        test_disabled_zero_allocation;
      Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "registry idempotency" `Quick test_registry_idempotent;
      Alcotest.test_case "registry JSON export" `Quick test_registry_json;
      Alcotest.test_case "stats fields are registry views" `Quick
        test_stats_fields_are_registry_views;
    ] )
