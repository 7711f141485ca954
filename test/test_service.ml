(* Tests for cq_service: JSON round-trips, frame-level fuzzing (typed
   errors, never a crash), and an in-process daemon exercised end to end —
   concurrent learns identical to solo runs, budget exhaustion, fault
   injection with byte-identical resume, and graceful-stop failover onto a
   second server over the same state directory.

   Everything runs under the test cwd (_build/default/test): socket paths
   and state directories are relative, never /tmp. *)

module Json = Cq_service.Json
module Protocol = Cq_service.Protocol
module Server = Cq_service.Server
module Client = Cq_service.Client
module Learn = Cq_core.Learn

(* --- scratch directories (cwd-relative, unique per test) --- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "svc-scratch-%d-%d" (Unix.getpid ()) !n in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let with_server ?(workers = 2) ?(max_inflight = 8) ?(snapshot_every = 50)
    ?state_dir f =
  let dir = match state_dir with Some d -> d | None -> fresh_dir () in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    Server.config ~workers ~max_inflight ~snapshot_every ~progress_every:64
      ~state_dir:dir socket
  in
  let server = Server.create cfg in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server socket dir)

let with_client socket f =
  let c = Client.connect_unix socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let str_field name doc =
  match Json.mem_str name doc with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "reply lacks %S" name)

(* Solo (daemon-less) learns use exactly the daemon's settings, so the
   digests must agree byte for byte. *)
let solo_digest =
  let memo = Hashtbl.create 4 in
  fun ~policy ~assoc ->
    let key = (policy, assoc) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
        let p = Cq_policy.Zoo.make_exn ~name:policy ~assoc in
        let report = Learn.learn_simulated ~identify:false p in
        let d = Cq_policy.Policy.machine_digest report.Learn.machine in
        Hashtbl.replace memo key d;
        d

(* --- JSON --- *)

let test_json_roundtrip () =
  let docs =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "a \"quoted\" line\nwith\ttabs and \xe2\x8a\xa5";
      Json.List [ Json.Int 1; Json.Null; Json.String "" ];
      Json.Obj
        [
          ("empty", Json.Obj []);
          ("nested", Json.List [ Json.Obj [ ("k", Json.Bool false) ] ]);
        ];
    ]
  in
  List.iter
    (fun doc ->
      let s = Json.to_string doc in
      Alcotest.(check bool)
        (Printf.sprintf "round-trips %s" s)
        true
        (Json.parse s = doc))
    docs

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* --- framing over a socketpair --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let header_of_len n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = "{\"verb\":\"ping\",\"id\":1}" in
      Protocol.write_frame a payload;
      Protocol.write_frame a "";
      (match Protocol.read_frame b with
      | Protocol.Frame got ->
          Alcotest.(check string) "payload survives" payload got
      | _ -> Alcotest.fail "expected a frame");
      (match Protocol.read_frame b with
      | Protocol.Frame "" -> ()
      | _ -> Alcotest.fail "empty frame survives");
      Unix.close a;
      match Protocol.read_frame b with
      | Protocol.Eof -> ()
      | _ -> Alcotest.fail "clean close reads as Eof")

let test_frame_typed_errors () =
  (* Negative length prefix (0xFFFFFFFF) → Bad_magic. *)
  with_socketpair (fun a b ->
      write_all a "\xff\xff\xff\xff";
      match Protocol.read_frame b with
      | Protocol.Bad (Protocol.Bad_magic _) -> ()
      | _ -> Alcotest.fail "negative length must be Bad_magic");
  (* Declared size over the cap → Oversized, with the declared size. *)
  with_socketpair (fun a b ->
      write_all a (header_of_len (Protocol.max_frame + 1));
      match Protocol.read_frame b with
      | Protocol.Bad (Protocol.Oversized n) ->
          Alcotest.(check int) "declared size" (Protocol.max_frame + 1) n
      | _ -> Alcotest.fail "oversized must be Oversized");
  (* Short payload then close → Truncated. *)
  with_socketpair (fun a b ->
      write_all a (header_of_len 10 ^ "abc");
      Unix.close a;
      match Protocol.read_frame b with
      | Protocol.Bad (Protocol.Truncated { declared = 10; got = 3 }) -> ()
      | _ -> Alcotest.fail "short payload must be Truncated");
  (* Partial header then close → Truncated too, never an exception. *)
  with_socketpair (fun a b ->
      write_all a "\x00\x00";
      Unix.close a;
      match Protocol.read_frame b with
      | Protocol.Bad (Protocol.Truncated _) -> ()
      | _ -> Alcotest.fail "partial header must be Truncated")

(* A reader thread with a deadline: the framing contract is "typed result
   or Eof, promptly" — a hung read_frame must fail the test, not wedge the
   whole suite. *)
let read_frame_with_deadline ?(seconds = 10.0) fd =
  let result = ref None in
  let th = Thread.create (fun () -> result := Some (Protocol.read_frame fd)) () in
  let deadline = Cq_util.Clock.after seconds in
  let rec wait () =
    if !result <> None then ()
    else if Cq_util.Clock.expired deadline then ()
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ();
  match !result with
  | Some r ->
      Thread.join th;
      r
  | None -> Alcotest.fail "read_frame hung past the deadline"

let test_frame_byte_at_a_time () =
  (* A writer dribbling one byte per write (worst-case TCP segmentation):
     the reader must reassemble every frame intact, never misframe. *)
  with_socketpair (fun a b ->
      let payloads =
        [ "{\"verb\":\"ping\",\"id\":1}"; ""; String.make 300 'x' ]
      in
      let feeder =
        Thread.create
          (fun () ->
            List.iter
              (fun p ->
                let wire = header_of_len (String.length p) ^ p in
                String.iter
                  (fun ch ->
                    write_all a (String.make 1 ch);
                    Thread.yield ())
                  wire)
              payloads;
            Unix.close a)
          ()
      in
      List.iter
        (fun expected ->
          match read_frame_with_deadline b with
          | Protocol.Frame got ->
              Alcotest.(check string) "reassembled intact" expected got
          | _ -> Alcotest.fail "expected a frame")
        payloads;
      (match read_frame_with_deadline b with
      | Protocol.Eof -> ()
      | _ -> Alcotest.fail "clean close after dribble reads as Eof");
      Thread.join feeder)

let test_frame_torn_at_every_boundary () =
  (* Tear one frame at every possible byte boundary: each prefix must read
     back as a typed Truncated (or Eof for the empty prefix) — never an
     exception, never a hang. *)
  let payload = "{\"verb\":\"learn.start\",\"id\":7}" in
  let wire = header_of_len (String.length payload) ^ payload in
  for cut = 0 to String.length wire - 1 do
    with_socketpair (fun a b ->
        write_all a (String.sub wire 0 cut);
        Unix.close a;
        match read_frame_with_deadline b with
        | Protocol.Eof when cut = 0 -> ()
        | Protocol.Bad (Protocol.Truncated _) when cut > 0 -> ()
        | other ->
            Alcotest.fail
              (Printf.sprintf "cut at %d: unexpected %s" cut
                 (match other with
                 | Protocol.Frame _ -> "Frame"
                 | Protocol.Eof -> "Eof"
                 | Protocol.Bad e -> Protocol.frame_error_to_string e)))
  done

let test_frame_torn_write_fault_site () =
  (* The injected torn write must write a strict prefix: the peer sees a
     typed Truncated once the writer closes, and the writer itself gets
     the typed Injected exception to act on. *)
  let t = Cq_util.Faults.create () in
  Cq_util.Faults.arm t ~site:"frame.write.torn" (Cq_util.Faults.Nth 1);
  with_socketpair (fun a b ->
      Cq_util.Faults.with_ambient t (fun () ->
          match Protocol.write_frame a "0123456789abcdef" with
          | () -> Alcotest.fail "armed torn write must raise"
          | exception Cq_util.Faults.Injected { site = "frame.write.torn"; _ }
            ->
              ());
      Unix.close a;
      match read_frame_with_deadline b with
      | Protocol.Bad (Protocol.Truncated _) | Protocol.Eof -> ()
      | Protocol.Frame _ -> Alcotest.fail "torn write delivered a whole frame"
      | Protocol.Bad e ->
          Alcotest.fail ("unexpected " ^ Protocol.frame_error_to_string e))

(* --- the daemon under garbage input --- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let read_reply_kind fd =
  match Protocol.read_frame fd with
  | Protocol.Frame payload -> (
      let doc = Json.parse payload in
      match Json.member "error" doc with
      | Some err -> Option.value ~default:"?" (Json.mem_str "kind" err)
      | None -> "ok")
  | Protocol.Eof -> "eof"
  | Protocol.Bad _ -> Alcotest.fail "daemon sent a malformed frame"

let test_fuzzed_frames_never_crash () =
  with_server (fun _server socket _dir ->
      (* Garbage length prefix: typed bad_frame reply, connection dropped. *)
      let fd = raw_connect socket in
      write_all fd "\xde\xad\xbe\xef";
      Alcotest.(check string) "bad magic" "bad_frame" (read_reply_kind fd);
      Unix.close fd;
      (* Oversized declaration: same. *)
      let fd = raw_connect socket in
      write_all fd (header_of_len (Protocol.max_frame * 2));
      Alcotest.(check string) "oversized" "bad_frame" (read_reply_kind fd);
      Unix.close fd;
      (* Truncated frame: the daemon just drops the connection. *)
      let fd = raw_connect socket in
      write_all fd (header_of_len 64 ^ "only a few bytes");
      Unix.close fd;
      (* Well-framed garbage payloads keep the connection alive with typed
         errors: unparseable → bad_json, non-request JSON → bad_request,
         unknown verb → unknown_verb — all on the SAME connection. *)
      let fd = raw_connect socket in
      Protocol.write_frame fd "\x01\x02 not json";
      Alcotest.(check string) "garbage payload" "bad_json" (read_reply_kind fd);
      Protocol.write_frame fd "[1,2,3]";
      Alcotest.(check string) "non-object" "bad_request" (read_reply_kind fd);
      Protocol.write_frame fd "{\"verb\":\"no.such.verb\",\"id\":9}";
      Alcotest.(check string) "unknown verb" "unknown_verb" (read_reply_kind fd);
      Protocol.write_frame fd "{\"verb\":\"ping\",\"id\":10}";
      Alcotest.(check string) "still serving" "ok" (read_reply_kind fd);
      Unix.close fd;
      (* Deterministic pseudo-random fuzz: every frame gets either a typed
         error reply or a dropped connection — never a crash. *)
      let state = ref 123456789 in
      let rand n =
        state := (!state * 1103515245) + 12345;
        abs !state mod n
      in
      for _ = 1 to 40 do
        let fd = raw_connect socket in
        let len = rand 48 in
        let payload = String.init len (fun _ -> Char.chr (rand 256)) in
        (match rand 3 with
        | 0 ->
            (* Valid framing, junk body: a complete frame always gets a
               reply (typed error for junk), so read it. *)
            Protocol.write_frame fd payload;
            (match Protocol.read_frame fd with
            | Protocol.Frame _ | Protocol.Eof | Protocol.Bad _ -> ()
            | exception Unix.Unix_error _ -> ())
        | 1 ->
            (* Incomplete frame: the daemon is rightly still waiting for
               the rest, so expect no reply — just hang up on it. *)
            write_all fd
              (String.sub (header_of_len 40 ^ payload) 0 (4 + (len mod 5)))
        | _ -> write_all fd payload (* raw junk, junk header — hang up *));
        Unix.close fd
      done;
      (* The daemon survived all of it. *)
      with_client socket (fun c -> ignore (Client.ping c)))

(* --- sessions, queries, learning --- *)

let test_membership_queries () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c ->
          let sid = Client.create_sim c ~policy:"LRU" ~assoc:2 () in
          let word = [ 0; 2; 1; 2; 0 ] in
          let got = Client.query_sim c sid word in
          let expected =
            let p = Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:2 in
            let polca =
              Cq_core.Polca.create ~check_hits:false
                (Cq_cache.Oracle.of_policy p)
            in
            List.map Cq_policy.Types.output_label (Cq_core.Polca.run polca word)
          in
          Alcotest.(check (list string)) "outputs match ground truth" expected got;
          (* Out-of-alphabet symbols are a typed bad_request. *)
          (match Client.query_sim c sid [ 0; 7 ] with
          | _ -> Alcotest.fail "out-of-alphabet word must be rejected"
          | exception Client.Error { kind = "bad_request"; _ } -> ());
          (* Unknown session is typed too. *)
          match Client.query_sim c (sid + 999) [ 0 ] with
          | _ -> Alcotest.fail "unknown session must be rejected"
          | exception Client.Error { kind = "unknown_session"; _ } -> ()))

let test_concurrent_learns_match_solo () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c1 ->
          with_client socket (fun c2 ->
              let s1 = Client.create_sim c1 ~policy:"LRU" ~assoc:4 () in
              let s2 = Client.create_sim c2 ~policy:"FIFO" ~assoc:4 () in
              (* Both queued before either is awaited: the two learns share
                 the hardware gate concurrently. *)
              Client.learn_start c1 s1;
              Client.learn_start c2 s2;
              let r1 = Client.learn_wait c1 ~timeout_s:120.0 s1 in
              let r2 = Client.learn_wait c2 ~timeout_s:120.0 s2 in
              Alcotest.(check string) "lru done" "done" (str_field "state" r1);
              Alcotest.(check string) "fifo done" "done" (str_field "state" r2);
              let d1 = str_field "digest" r1 and d2 = str_field "digest" r2 in
              Alcotest.(check string)
                "lru digest identical to solo"
                (solo_digest ~policy:"LRU" ~assoc:4)
                d1;
              Alcotest.(check string)
                "fifo digest identical to solo"
                (solo_digest ~policy:"FIFO" ~assoc:4)
                d2;
              Alcotest.(check bool) "distinct policies differ" true (d1 <> d2);
              (* session.result serves the digest (and DOT on demand). *)
              let res = Client.result c1 ~dot:true s1 in
              Alcotest.(check string) "result digest" d1 (str_field "digest" res);
              Alcotest.(check bool)
                "dot present" true
                (match Json.mem_str "dot" res with
                | Some dot ->
                    String.length dot > 0
                    && String.sub dot 0 7 = "digraph"
                | None -> false))))

let test_budget_exhaustion () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c ->
          (* Budget 0: both learning and querying answer budget_exhausted. *)
          let broke = Client.create_sim c ~policy:"LRU" ~assoc:4 ~query_budget:0 () in
          (match Client.learn_start c broke with
          | _ -> Alcotest.fail "budget-0 learn must be refused"
          | exception Client.Error { kind = "budget_exhausted"; _ } -> ());
          (match Client.query_sim c broke [ 0 ] with
          | _ -> Alcotest.fail "budget-0 query must be refused"
          | exception Client.Error { kind = "budget_exhausted"; _ } -> ());
          (* A small budget trips mid-learn and surfaces as the typed
             Budget_exhausted failure, not a hang or a crash. *)
          let tight = Client.create_sim c ~policy:"LRU" ~assoc:4 ~query_budget:50 () in
          Client.learn_start c tight;
          let st = Client.learn_wait c ~timeout_s:60.0 tight in
          Alcotest.(check string) "failed" "failed" (str_field "state" st);
          Alcotest.(check string)
            "typed failure" "budget_exhausted" (str_field "failure" st)))

let test_kill_worker_and_resume () =
  with_server ~snapshot_every:25 (fun _server socket _dir ->
      with_client socket (fun c ->
          let sid =
            Client.create_sim c ~policy:"LRU" ~assoc:4 ~name:"killme" ()
          in
          (* Fault injection: the worker dies after 120 hardware queries —
             long after the first snapshot at 25. *)
          Client.learn_start c ~kill_after_queries:120 sid;
          let st = Client.learn_wait c ~timeout_s:60.0 sid in
          Alcotest.(check string) "failed" "failed" (str_field "state" st);
          Alcotest.(check string)
            "worker killed" "worker_killed" (str_field "failure" st);
          let status = Client.status c sid in
          Alcotest.(check bool)
            "snapshot written" true
            (Json.mem_bool "snapshot_exists" status = Some true);
          (* Resume on another worker: the finished automaton must be
             byte-identical to an uninterrupted solo learn. *)
          Client.learn_start c ~resume:true sid;
          let st = Client.learn_wait c ~timeout_s:120.0 sid in
          Alcotest.(check string) "resumed to done" "done" (str_field "state" st);
          Alcotest.(check string)
            "resume digest byte-identical to solo"
            (solo_digest ~policy:"LRU" ~assoc:4)
            (str_field "digest" st)))

let test_graceful_stop_failover () =
  let dir = fresh_dir () in
  (* First daemon: start a learn, then stop mid-flight.  Graceful stop
     parks the learn at its next probe with a final snapshot. *)
  with_server ~state_dir:dir ~snapshot_every:20 (fun server socket _dir ->
      with_client socket (fun c ->
          let sid =
            Client.create_sim c ~policy:"PLRU" ~assoc:4 ~name:"failover" ()
          in
          Client.learn_start c sid;
          (* Give the worker a moment to get into the learn proper. *)
          let deadline = Cq_util.Clock.after 10.0 in
          let rec spin () =
            if Cq_util.Clock.expired deadline then ()
            else
              let st = Client.status c sid in
              match Json.mem_str "state" st with
              | Some "running"
                when (match Json.mem_int "queries" st with
                     | Some q -> q > 0
                     | None -> false) ->
                  ()
              | Some ("done" | "failed") -> ()
              | _ ->
                  Thread.delay 0.01;
                  spin ()
          in
          spin ();
          Server.stop server));
  (* Second daemon over the same state directory: a same-named session
     resumes from the parked snapshot and completes identically to an
     uninterrupted run. *)
  with_server ~state_dir:dir (fun _server socket _dir ->
      with_client socket (fun c ->
          let sid =
            Client.create_sim c ~policy:"PLRU" ~assoc:4 ~name:"failover" ()
          in
          Client.learn_start c ~resume:true sid;
          let st = Client.learn_wait c ~timeout_s:120.0 sid in
          Alcotest.(check string) "done after failover" "done" (str_field "state" st);
          Alcotest.(check string)
            "failover digest byte-identical to solo"
            (solo_digest ~policy:"PLRU" ~assoc:4)
            (str_field "digest" st)))

let test_busy_and_cancel () =
  with_server ~workers:1 ~max_inflight:1 (fun _server socket _dir ->
      with_client socket (fun c ->
          let a = Client.create_sim c ~policy:"LRU" ~assoc:4 () in
          let b = Client.create_sim c ~policy:"FIFO" ~assoc:4 () in
          Client.learn_start c a;
          (* One learn in flight and max_inflight = 1: more work is refused
             with the typed busy reply (backpressure, not queue growth). *)
          (match Client.learn_start c b with
          | _ -> Alcotest.fail "second learn must be refused"
          | exception Client.Error { kind = "busy"; _ } -> ());
          (match Client.learn_start c a with
          | _ -> Alcotest.fail "re-learning a busy session must be refused"
          | exception Client.Error { kind = "busy"; _ } -> ());
          Client.learn_cancel c a;
          let st = Client.learn_wait c ~timeout_s:60.0 a in
          (* Cancellation can race completion of a fast learn; either way
             the session reaches a terminal state and frees the slot. *)
          (match (str_field "state" st, Json.mem_str "failure" st) with
          | "failed", Some "cancelled" | "done", None -> ()
          | state, failure ->
              Alcotest.fail
                (Printf.sprintf "unexpected terminal state %s/%s" state
                   (Option.value ~default:"-" failure)));
          Client.learn_start c b;
          let st = Client.learn_wait c ~timeout_s:120.0 b in
          Alcotest.(check string) "slot freed" "done" (str_field "state" st)))

(* An unnamed session defaults to "session-<sid>"; a client that already
   claimed that name explicitly must not make the next unnamed create
   fail (nor burn its sid). *)
let test_default_name_never_clashes () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c ->
          let named = Client.create_sim c ~name:"session-2" ~policy:"LRU" ~assoc:2 () in
          let a = Client.create_sim c ~policy:"LRU" ~assoc:2 () in
          let b = Client.create_sim c ~policy:"FIFO" ~assoc:2 () in
          Alcotest.(check (list int)) "consecutive sids" [ named + 1; named + 2 ] [ a; b ];
          let name sid = str_field "name" (Client.status c sid) in
          let names = List.map name [ named; a; b ] in
          Alcotest.(check string) "explicit name kept" "session-2" (List.hd names);
          Alcotest.(check int) "three distinct names" 3
            (List.length (List.sort_uniq compare names))))

(* Every session-scoped verb answers an unknown session with the typed
   [unknown_session] error; an unknown verb stays [unknown_verb]. *)
let test_unknown_session_every_verb () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c ->
          let kind verb =
            match Client.call c ~params:(Json.Obj [ ("session", Json.Int 999) ]) verb with
            | _ -> "ok"
            | exception Client.Error { kind; _ } -> kind
          in
          List.iter
            (fun verb ->
              Alcotest.(check string) verb "unknown_session" (kind verb))
            [
              "session.attach"; "session.detach"; "session.drop";
              "session.status"; "session.result"; "learn.start";
              "learn.status"; "learn.cancel"; "learn.wait"; "query";
              "replay"; "analyze"; "events";
            ];
          Alcotest.(check string) "unknown verb" "unknown_verb"
            (kind "session.frobnicate")))

let test_events_stream () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c ->
          let sid = Client.create_sim c ~policy:"LRU" ~assoc:2 () in
          Client.learn_start c sid;
          let seen = ref [] in
          let _reply =
            Client.stream c
              ~params:(Json.Obj [ ("session", Json.Int sid) ])
              "events"
              (fun ev ->
                match Json.mem_str "type" ev with
                | Some ty -> seen := ty :: !seen
                | None -> ())
          in
          let seen = List.rev !seen in
          Alcotest.(check bool)
            "saw the lifecycle" true
            (List.mem "queued" seen && List.mem "started" seen
            && List.mem "done" seen)))

let test_hw_session_mbl () =
  with_server (fun _server socket _dir ->
      with_client socket (fun c ->
          let sid =
            Client.create_hw c ~cpu:"skylake" ~level:"L1" ~set:0 ()
          in
          (* '@ A A?' — after a reset, access A and probe it: a hit. *)
          let reply = Client.query_mbl c sid "@ A A?" in
          match Json.mem_list "results" reply with
          | Some (_ :: _ as results) ->
              List.iter
                (fun r ->
                  match Json.member "outcomes" r with
                  | Some (Json.List outcomes) ->
                      List.iter
                        (fun o ->
                          Alcotest.(check string)
                            "probe hits" "Hit"
                            (Option.value ~default:"?" (Json.to_str o)))
                        outcomes
                  | _ -> Alcotest.fail "result lacks outcomes")
                results
          | _ -> Alcotest.fail "hw query returned no results"))

(* --- signal-driven shutdown of the real binaries --- *)

let wait_for path =
  let deadline = Cq_util.Clock.after 15.0 in
  let rec go () =
    if Sys.file_exists path then true
    else if Cq_util.Clock.expired deadline then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let test_sigterm_flushes_observability () =
  (* The cachequery REPL with --trace/--metrics, killed by SIGTERM, must
     still write both artefacts (the PR-7 shutdown fix) and exit 143. *)
  let exe = "../bin/cachequery_cli.exe" in
  let trace_f = "sig-flush-trace.json" and metrics_f = "sig-flush-metrics.json" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ trace_f; metrics_f ];
  let stdin_r, stdin_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      [| exe; "--trace"; trace_f; "--metrics"; metrics_f |]
      stdin_r Unix.stdout Unix.stderr
  in
  Unix.close stdin_r;
  Thread.delay 0.4;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Unix.close stdin_w;
  (match status with
  | Unix.WEXITED 143 -> ()
  | Unix.WEXITED n -> Alcotest.fail (Printf.sprintf "exit %d, wanted 143" n)
  | _ -> Alcotest.fail "killed uncleanly — the handler did not run");
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true (Sys.file_exists f);
      let ic = open_in_bin f in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      match Json.parse body with
      | _ -> ()
      | exception Json.Parse_error msg ->
          Alcotest.fail (Printf.sprintf "%s is not valid JSON: %s" f msg))
    [ trace_f; metrics_f ]

let test_daemon_binary_graceful_sigterm () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "daemon.sock" in
  let metrics_f = Filename.concat dir "metrics.json" in
  let exe = "../bin/cachequeryd_cli.exe" in
  let pid =
    Unix.create_process exe
      [|
        exe; "--socket"; socket; "--state-dir"; dir; "--workers"; "1";
        "--metrics"; metrics_f;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Alcotest.(check bool) "daemon came up" true (wait_for socket);
  with_client socket (fun c ->
      ignore (Client.ping c);
      let sid = Client.create_sim c ~policy:"LRU" ~assoc:2 () in
      Client.learn_start c sid;
      let st = Client.learn_wait c ~timeout_s:60.0 sid in
      Alcotest.(check string) "learned over the wire" "done" (str_field "state" st));
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.fail (Printf.sprintf "exit %d, wanted 0" n)
  | _ -> Alcotest.fail "daemon killed uncleanly");
  Alcotest.(check bool) "metrics flushed" true (Sys.file_exists metrics_f)

let suite =
  ( "service",
    [
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
      Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame typed errors" `Quick test_frame_typed_errors;
      Alcotest.test_case "frame byte-at-a-time reassembly" `Quick
        test_frame_byte_at_a_time;
      Alcotest.test_case "frame torn at every boundary" `Quick
        test_frame_torn_at_every_boundary;
      Alcotest.test_case "frame torn-write fault site" `Quick
        test_frame_torn_write_fault_site;
      Alcotest.test_case "fuzzed frames never crash the daemon" `Quick
        test_fuzzed_frames_never_crash;
      Alcotest.test_case "membership queries" `Quick test_membership_queries;
      Alcotest.test_case "concurrent learns match solo" `Slow
        test_concurrent_learns_match_solo;
      Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
      Alcotest.test_case "kill worker, resume byte-identical" `Slow
        test_kill_worker_and_resume;
      Alcotest.test_case "graceful stop + failover" `Slow
        test_graceful_stop_failover;
      Alcotest.test_case "busy backpressure and cancel" `Quick
        test_busy_and_cancel;
      Alcotest.test_case "events stream" `Quick test_events_stream;
      Alcotest.test_case "default session name never clashes" `Quick
        test_default_name_never_clashes;
      Alcotest.test_case "unknown session on every verb" `Quick
        test_unknown_session_every_verb;
      Alcotest.test_case "hw session MBL query" `Quick test_hw_session_mbl;
      Alcotest.test_case "SIGTERM flushes trace+metrics" `Quick
        test_sigterm_flushes_observability;
      Alcotest.test_case "daemon graceful SIGTERM" `Quick
        test_daemon_binary_graceful_sigterm;
    ] )
