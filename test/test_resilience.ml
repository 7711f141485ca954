(* Tests for the resilience layer: Backoff (deterministic jittered
   schedules, the retry loop), Breaker (state machine driven by a fake
   clock, never a sleep), Faults (schedule semantics, spec parsing,
   ambient scoping), Atomic_file's typed failure contract, and the Disk
   headroom probe. *)

module Backoff = Cq_util.Backoff
module Breaker = Cq_util.Breaker
module Faults = Cq_util.Faults
module Atomic_file = Cq_util.Atomic_file
module Disk = Cq_util.Disk

(* --- Backoff --- *)

let test_backoff_policy_validation () =
  List.iter
    (fun mk ->
      match mk () with
      | (_ : Backoff.policy) -> Alcotest.fail "invalid policy must raise"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Backoff.policy ~base:(-0.1) ());
      (fun () -> Backoff.policy ~base:1.0 ~cap:0.5 ());
      (fun () -> Backoff.policy ~multiplier:0.5 ());
    ]

let test_backoff_deterministic () =
  let seq seed =
    let t = Backoff.start ~seed Backoff.default in
    List.init 16 (fun _ -> Backoff.next t)
  in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" (seq 7) (seq 7);
  Alcotest.(check bool)
    "different seeds diverge" true
    (seq 7 <> seq 8);
  (* Every delay respects the cap; decorrelated jitter stays >= 0. *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "within [0, cap]" true
        (d >= 0.0 && d <= Backoff.default.Backoff.cap))
    (seq 3);
  let t = Backoff.start ~seed:7 Backoff.default in
  let first = Backoff.next t in
  ignore (Backoff.next t);
  Backoff.reset t;
  Alcotest.(check (float 0.0)) "reset restarts the sequence" first
    (Backoff.next t)

let test_backoff_immediate () =
  let t = Backoff.start Backoff.immediate in
  for _ = 1 to 8 do
    Alcotest.(check (float 0.0)) "immediate never waits" 0.0 (Backoff.next t)
  done

let test_backoff_retry () =
  (* Succeed on the third attempt: two sleeps recorded, attempts 1-based. *)
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let attempts_seen = ref [] in
  let result =
    Backoff.retry ~sleep ~seed:1 ~policy:Backoff.default ~attempts:5 ~init:0
      (fun ~attempt s ->
        attempts_seen := attempt :: !attempts_seen;
        if attempt = 3 then `Done (s + 100) else `Retry (s + 1))
  in
  Alcotest.(check (result int int)) "done with carried state" (Ok 102) result;
  Alcotest.(check (list int)) "attempts 1-based in order" [ 1; 2; 3 ]
    (List.rev !attempts_seen);
  Alcotest.(check int) "one sleep per retry" 2 (List.length !slept);
  (* Exhaustion: Error carries the final state; immediate never sleeps. *)
  let slept = ref 0 in
  let result =
    Backoff.retry
      ~sleep:(fun _ -> incr slept)
      ~policy:Backoff.immediate ~attempts:3 ~init:[]
      (fun ~attempt s -> `Retry (attempt :: s))
  in
  Alcotest.(check (result int (list int))) "exhausted carries final state"
    (Error [ 3; 2; 1 ]) result;
  Alcotest.(check int) "zero delays skip sleep" 0 !slept

(* --- Breaker --- *)

let fake_clock () =
  let now = ref 0.0 in
  (now, fun () -> !now)

let test_breaker_trips_and_recovers () =
  let now, clock = fake_clock () in
  let b = Breaker.create ~clock ~failure_threshold:3 ~cooldown:5.0 () in
  Alcotest.(check bool) "starts closed" true (Breaker.allow b);
  Breaker.failure b;
  Breaker.failure b;
  Alcotest.(check bool) "below threshold stays closed" true (Breaker.allow b);
  Breaker.success b;
  (* success resets the consecutive count *)
  Breaker.failure b;
  Breaker.failure b;
  Alcotest.(check string) "still closed" "closed"
    (Breaker.state_to_string (Breaker.state b));
  Breaker.failure b;
  Alcotest.(check string) "third consecutive failure trips" "open"
    (Breaker.state_to_string (Breaker.state b));
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "open sheds" false (Breaker.allow b);
  Alcotest.(check int) "rejection counted" 1 (Breaker.rejections b);
  (* Cooldown not elapsed: still shedding. *)
  now := 4.9;
  Alcotest.(check bool) "cooldown pending" false (Breaker.allow b);
  (* Cooldown elapsed: exactly one probe; concurrent callers shed. *)
  now := 5.1;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b);
  Alcotest.(check string) "half-open" "half_open"
    (Breaker.state_to_string (Breaker.state b));
  Alcotest.(check bool) "second caller shed during probe" false
    (Breaker.allow b);
  (* Probe fails: back to open, cooldown restarts from now. *)
  Breaker.failure b;
  Alcotest.(check string) "probe failure re-opens" "open"
    (Breaker.state_to_string (Breaker.state b));
  now := 9.0;
  Alcotest.(check bool) "restarted cooldown pending" false (Breaker.allow b);
  now := 10.2;
  Alcotest.(check bool) "second probe admitted" true (Breaker.allow b);
  Breaker.success b;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_to_string (Breaker.state b));
  Alcotest.(check bool) "closed admits" true (Breaker.allow b)

let test_breaker_abandon_frees_probe () =
  let now, clock = fake_clock () in
  let b = Breaker.create ~clock ~failure_threshold:1 ~cooldown:1.0 () in
  Breaker.failure b;
  now := 1.5;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b);
  Alcotest.(check bool) "slot held" false (Breaker.allow b);
  (* The probe was cancelled — no verdict on the backend.  The slot must
     free without closing the breaker. *)
  Breaker.abandon b;
  Alcotest.(check string) "still half-open" "half_open"
    (Breaker.state_to_string (Breaker.state b));
  Alcotest.(check bool) "next caller can probe" true (Breaker.allow b)

(* --- Faults --- *)

let test_faults_schedules () =
  let t = Faults.create () in
  Faults.arm t ~site:"nth" (Faults.Nth 3);
  let fired = List.init 5 (fun _ -> Faults.fire t "nth") in
  Alcotest.(check (list bool)) "nth=3 fires exactly on the 3rd hit"
    [ false; false; true; false; false ]
    fired;
  Faults.arm t ~site:"every" ~limit:2 (Faults.Every 2);
  let fired = List.init 6 (fun _ -> Faults.fire t "every") in
  Alcotest.(check (list bool)) "every=2,limit=2"
    [ false; true; false; true; false; false ]
    fired;
  Faults.arm t ~site:"first" (Faults.First 2);
  let fired = List.init 4 (fun _ -> Faults.fire t "first") in
  Alcotest.(check (list bool)) "first=2"
    [ true; true; false; false ]
    fired;
  Faults.arm t ~site:"reach" (Faults.Reach 10);
  Alcotest.(check bool) "reach below threshold" false
    (Faults.fire ~n:9 t "reach");
  Alcotest.(check bool) "reach fires at threshold" true
    (Faults.fire ~n:10 t "reach");
  Alcotest.(check bool) "reach fires once" false (Faults.fire ~n:11 t "reach");
  Alcotest.(check bool) "unarmed site never fires" false
    (Faults.fire t "never-armed");
  Alcotest.(check int) "hits counted" 5 (Faults.hits t "nth");
  Alcotest.(check int) "fires counted" 1 (Faults.fires t "nth")

let test_faults_prob_deterministic () =
  let pattern seed =
    let t = Faults.create ~seed () in
    Faults.arm t ~site:"p" (Faults.Prob 0.3);
    List.init 64 (fun _ -> Faults.fire t "p")
  in
  Alcotest.(check (list bool)) "same seed, same pattern" (pattern 42)
    (pattern 42);
  Alcotest.(check bool) "different seeds diverge" true
    (pattern 42 <> pattern 43);
  (* Site streams are independent: arming a second site must not perturb
     the first one's pattern. *)
  let t = Faults.create ~seed:42 () in
  Faults.arm t ~site:"p" (Faults.Prob 0.3);
  Faults.arm t ~site:"other" (Faults.Prob 0.5);
  let interleaved =
    List.init 64 (fun _ ->
        ignore (Faults.fire t "other");
        Faults.fire t "p")
  in
  Alcotest.(check (list bool)) "independent site streams" (pattern 42)
    interleaved

let test_faults_spec () =
  (match Faults.of_spec ~seed:1 "a:nth=2; b:every=3,limit=1" with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Alcotest.(check (list bool)) "a:nth=2"
        [ false; true; false ]
        (List.init 3 (fun _ -> Faults.fire t "a"));
      Alcotest.(check (list bool)) "b:every=3,limit=1"
        [ false; false; true; false; false; false ]
        (List.init 6 (fun _ -> Faults.fire t "b"));
      Alcotest.(check int) "total fires" 2 (Faults.total_fires t));
  List.iter
    (fun spec ->
      match Faults.of_spec spec with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" spec)
      | Error _ -> ())
    [ "nocolon"; ":nth=1"; "a:"; "a:nth=x"; "a:p=2.0"; "a:frob=1"; "a:nth=0" ]

let test_faults_ambient_scoping () =
  Alcotest.(check bool) "no ambient registry" false
    (Faults.ambient_fire "x");
  let t = Faults.create () in
  Faults.arm t ~site:"x" (Faults.First 1);
  Faults.with_ambient t (fun () ->
      Alcotest.(check bool) "armed inside scope" true (Faults.ambient_fire "x");
      match
        Faults.with_ambient (Faults.create ()) (fun () ->
            Faults.ambient_fire "x")
      with
      | fired -> Alcotest.(check bool) "inner scope shadows" false fired);
  Alcotest.(check bool) "restored outside scope" false
    (Faults.ambient_fire "x");
  (* inject raises the typed exception with the site name. *)
  let t = Faults.create () in
  Faults.arm t ~site:"boom" (Faults.First 1);
  match Faults.inject ~detail:"test" t "boom" with
  | () -> Alcotest.fail "armed inject must raise"
  | exception Faults.Injected { site = "boom"; detail = "test" } -> ()

(* --- Atomic_file --- *)

let scratch =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "resil-scratch-%d-%d" (Unix.getpid ()) !n in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let test_atomic_file_roundtrip () =
  let dir = scratch () in
  let path = Filename.concat dir "f.json" in
  Atomic_file.write ~path "first";
  Atomic_file.write ~path "second";
  Alcotest.(check (option string)) "last write wins" (Some "second")
    (Atomic_file.read_opt ~path);
  Alcotest.(check bool) "no tmp sibling left" false
    (Sys.file_exists (path ^ ".tmp"))

let test_atomic_file_typed_failures () =
  let dir = scratch () in
  let path = Filename.concat dir "f.json" in
  let t = Faults.create () in
  Faults.arm t ~site:"atomic_file.write" (Faults.Nth 1);
  Faults.with_ambient t (fun () ->
      match Atomic_file.write ~path "doomed" with
      | () -> Alcotest.fail "injected ENOSPC must raise"
      | exception Atomic_file.Write_error { stage = Atomic_file.Write; _ } ->
          ());
  Alcotest.(check bool) "tmp unlinked after write failure" false
    (Sys.file_exists (path ^ ".tmp"));
  let t = Faults.create () in
  Faults.arm t ~site:"atomic_file.fsync" (Faults.Nth 1);
  Faults.with_ambient t (fun () ->
      match Atomic_file.write ~path "doomed" with
      | () -> Alcotest.fail "injected fsync failure must raise"
      | exception Atomic_file.Write_error { stage = Atomic_file.Fsync; _ } ->
          ());
  Alcotest.(check bool) "tmp unlinked after fsync failure" false
    (Sys.file_exists (path ^ ".tmp"));
  (* Missing parent directory: typed Create, not Sys_error. *)
  (match
     Atomic_file.write ~path:(Filename.concat dir "no/such/dir/f") "x"
   with
  | () -> Alcotest.fail "missing parent must raise"
  | exception Atomic_file.Write_error { stage = Atomic_file.Create; _ } -> ());
  (* A failed write never clobbers the previous good copy. *)
  Atomic_file.write ~path "good";
  let t = Faults.create () in
  Faults.arm t ~site:"atomic_file.write" (Faults.Nth 1);
  Faults.with_ambient t (fun () ->
      try Atomic_file.write ~path "bad" with Atomic_file.Write_error _ -> ());
  Alcotest.(check (option string)) "previous copy intact" (Some "good")
    (Atomic_file.read_opt ~path)

let test_atomic_file_crash_before_rename () =
  let dir = scratch () in
  let path = Filename.concat dir "f.json" in
  let t = Faults.create () in
  Faults.arm t ~site:"atomic_file.rename" (Faults.Nth 1);
  Faults.with_ambient t (fun () ->
      match Atomic_file.write ~path "crashing" with
      | () -> Alcotest.fail "injected crash must raise"
      | exception Faults.Injected { site = "atomic_file.rename"; _ } -> ());
  (* A real crash leaves the durable tmp and no destination; so does the
     simulated one. *)
  Alcotest.(check bool) "tmp left behind (crash semantics)" true
    (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check bool) "destination absent" false (Sys.file_exists path);
  (* The next write (post-"reboot") heals: tmp replaced, rename lands. *)
  Atomic_file.write ~path "recovered";
  Alcotest.(check (option string)) "recovery write lands" (Some "recovered")
    (Atomic_file.read_opt ~path);
  Alcotest.(check bool) "tmp gone after recovery" false
    (Sys.file_exists (path ^ ".tmp"))

let test_atomic_file_append () =
  let dir = scratch () in
  let path = Filename.concat dir "log" in
  (* Never creates: a log without its base is not a file to start. *)
  (match Atomic_file.append ~path "orphan" with
  | () -> Alcotest.fail "append to a missing file must raise"
  | exception Atomic_file.Write_error { stage = Atomic_file.Create; _ } -> ());
  Alcotest.(check bool) "missing file not created" false (Sys.file_exists path);
  Atomic_file.write ~path "base|";
  Atomic_file.append ~path "r1|";
  Atomic_file.append ~path "r2|";
  Alcotest.(check (option string)) "appends land in order"
    (Some "base|r1|r2|") (Atomic_file.read_opt ~path);
  (* A failed append is truncated back off: the half record written
     before ENOSPC, or the whole record whose fsync failed. *)
  List.iter
    (fun (site, stage) ->
      let t = Faults.create () in
      Faults.arm t ~site (Faults.Nth 1);
      Faults.with_ambient t (fun () ->
          match Atomic_file.append ~path "doomed-record|" with
          | () -> Alcotest.fail (site ^ ": injected failure must raise")
          | exception Atomic_file.Write_error { stage = s; _ } ->
              Alcotest.(check string) (site ^ ": stage")
                (Atomic_file.stage_to_string stage)
                (Atomic_file.stage_to_string s));
      Alcotest.(check (option string)) (site ^ ": file rolled back")
        (Some "base|r1|r2|") (Atomic_file.read_opt ~path))
    [
      ("atomic_file.append", Atomic_file.Write);
      ("atomic_file.append_fsync", Atomic_file.Fsync);
    ]

(* --- Disk --- *)

let test_disk_free_bytes () =
  (match Disk.free_bytes "." with
  | Some n ->
      Alcotest.(check bool) "headroom non-negative" true (Int64.compare n 0L >= 0)
  | None -> Alcotest.fail "statvfs on cwd must succeed");
  Alcotest.(check bool) "missing path probes as None" true
    (Disk.free_bytes "/no/such/path/anywhere" = None)

let suite =
  ( "resilience",
    [
      Alcotest.test_case "backoff policy validation" `Quick
        test_backoff_policy_validation;
      Alcotest.test_case "backoff deterministic schedules" `Quick
        test_backoff_deterministic;
      Alcotest.test_case "backoff immediate" `Quick test_backoff_immediate;
      Alcotest.test_case "backoff retry loop" `Quick test_backoff_retry;
      Alcotest.test_case "breaker trips and recovers" `Quick
        test_breaker_trips_and_recovers;
      Alcotest.test_case "breaker abandon frees probe" `Quick
        test_breaker_abandon_frees_probe;
      Alcotest.test_case "fault schedules" `Quick test_faults_schedules;
      Alcotest.test_case "fault prob determinism" `Quick
        test_faults_prob_deterministic;
      Alcotest.test_case "fault spec parsing" `Quick test_faults_spec;
      Alcotest.test_case "ambient registry scoping" `Quick
        test_faults_ambient_scoping;
      Alcotest.test_case "atomic file roundtrip" `Quick
        test_atomic_file_roundtrip;
      Alcotest.test_case "atomic file typed failures" `Quick
        test_atomic_file_typed_failures;
      Alcotest.test_case "atomic file crash before rename" `Quick
        test_atomic_file_crash_before_rename;
      Alcotest.test_case "atomic file append" `Quick test_atomic_file_append;
      Alcotest.test_case "disk free bytes" `Quick test_disk_free_bytes;
    ] )
