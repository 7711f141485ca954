(* cachequeryd's engine: sessions, the fair hardware token, the worker
   pool, and the request dispatcher.

   Threading model (threads.posix, one domain): each listener has an
   accept thread, each connection a handler thread, and learns run on a
   fixed pool of worker threads consuming a bounded queue.  All shared
   state — the session table, the learn queue, per-session learn state —
   is guarded by one server mutex [t.m]; the hardware token has its own
   lock so waiting for hardware never holds the server lock.  Each learn
   is single-threaded and deterministic: concurrency lives only between
   sessions, which is why an interleaved learn still produces the solo
   run's automaton (asserted in test_service). *)

module Clock = Cq_util.Clock
module Metrics = Cq_util.Metrics
module Trace = Cq_util.Trace
module Learn = Cq_core.Learn

(* Control-flow exceptions raised from the learner's [probe] hook.  They
   are outside the supervisor's failure taxonomy, so [Learn.run] writes a
   final snapshot and re-raises them to the worker (see learn_core's
   exception path) — exactly the failover contract. *)
exception Cancelled
exception Worker_killed (* fault injection: simulate a dead worker *)
exception Draining (* graceful shutdown parked the learn *)

(* The hardware token: FIFO turnstile serialising access to the (one)
   measurement device.  A learn holds a ticket from one top-level oracle
   query to the next probe call, where it yields — release then
   re-acquire — so contending sessions hand the device around in strict
   arrival order, at query granularity.  Ad-hoc membership queries
   acquire around a single query.  Tickets (not session ids) are the
   holder identity: one session may legitimately wait twice (a learn and
   a concurrent membership query). *)
module Gate = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    waiting : int Queue.t;
    mutable holder : int option;
    mutable next_ticket : int;
    acquires : Metrics.counter;
    contended : Metrics.counter;
    wait_seconds : Metrics.histogram;
  }

  let create registry =
    {
      m = Mutex.create ();
      c = Condition.create ();
      waiting = Queue.create ();
      holder = None;
      next_ticket = 0;
      acquires = Metrics.counter registry "service.gate.acquires";
      contended = Metrics.counter registry "service.gate.contended";
      wait_seconds =
        Metrics.histogram ~buckets:16 ~start:0.0001 ~base:4.0 registry
          "service.gate.wait_seconds";
    }

  let acquire t =
    Mutex.lock t.m;
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    Queue.push ticket t.waiting;
    Metrics.incr t.acquires;
    let t0 = Clock.mono () in
    let contended = ref false in
    while not (t.holder = None && Queue.peek t.waiting = ticket) do
      contended := true;
      Condition.wait t.c t.m
    done;
    ignore (Queue.pop t.waiting);
    t.holder <- Some ticket;
    if !contended then begin
      Metrics.incr t.contended;
      Metrics.observe t.wait_seconds (Clock.mono () -. t0)
    end;
    Mutex.unlock t.m;
    ticket

  let release t ticket =
    Mutex.lock t.m;
    if t.holder = Some ticket then begin
      t.holder <- None;
      Condition.broadcast t.c
    end;
    Mutex.unlock t.m

  (* The learn-loop handoff point: give every waiter its turn, then get
     back in line. *)
  let yield t ticket =
    release t ticket;
    acquire t

  (* Queue depth for the health verb: holders + waiters. *)
  let depth t =
    Mutex.lock t.m;
    let n =
      Queue.length t.waiting + match t.holder with Some _ -> 1 | None -> 0
    in
    Mutex.unlock t.m;
    n
end

type target =
  | Sim of { policy : string; assoc : int }
  | Hw of {
      cpu : string;
      level : Cq_hwsim.Cpu_model.level;
      slice : int;
      set : int;
      seed : int;
      noise : string; (* hwsim noise preset: quiet/default/burst/drift *)
    }

(* The PR-2 noise presets, addressable over the wire: chaos schedules
   pick a backend-degradation profile by name. *)
let noise_preset_of_name = function
  | "quiet" -> Some Cq_hwsim.Machine.quiet_noise
  | "default" -> Some Cq_hwsim.Machine.default_noise
  | "burst" -> Some Cq_hwsim.Machine.burst_noise
  | "drift" -> Some Cq_hwsim.Machine.drift_noise
  | _ -> None

let target_json = function
  | Sim { policy; assoc } ->
      Json.Obj
        [
          ("kind", Json.String "sim");
          ("policy", Json.String policy);
          ("assoc", Json.Int assoc);
        ]
  | Hw { cpu; level; slice; set; seed; noise } ->
      Json.Obj
        [
          ("kind", Json.String "hw");
          ("cpu", Json.String cpu);
          ("level", Json.String (Cq_hwsim.Cpu_model.level_to_string level));
          ("slice", Json.Int slice);
          ("set", Json.Int set);
          ("seed", Json.Int seed);
          ("noise", Json.String noise);
        ]

type learn_state =
  | Idle
  | Queued
  | Running of { queries : int; started : float (* mono *) }
  | Done of {
      digest : string;
      states : int;
      member_queries : int;
      seconds : float;
      identified : string list;
    }
  | Failed of { kind : string; detail : string; snapshot : string option }

let state_name = function
  | Idle -> "idle"
  | Queued -> "queued"
  | Running _ -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"

type session = {
  sid : int;
  name : string;
  target : target;
  snapshot_path : string;
  budget : int option; (* lifetime hardware-query budget *)
  mutable queries_used : int;
  mutable refs : int;
  mutable state : learn_state;
  mutable cancel_requested : bool;
  (* options for the next learn, set by learn.start *)
  mutable learn_resume : bool;
  mutable kill_after : int option;
  mutable learn_budget : int option;
  (* learned artefacts *)
  mutable machine : Cq_policy.Types.output Cq_automata.Mealy.t option;
  mutable learned_assoc : int option;
  (* lazily built membership-query engines *)
  mutable sim_polca : Cq_core.Polca.t option;
  mutable hw_frontend : Cq_cachequery.Frontend.t option;
  (* bounded recent-events ring, newest first *)
  mutable events : (int * (string * Json.t) list) list;
  mutable next_seq : int;
  mutable last_progress : int;
}

type config = {
  socket_path : string;
  tcp : (string * int) option;
  workers : int;
  state_dir : string;
  max_inflight : int;
  snapshot_every : int;
  progress_every : int;
  breaker_threshold : int; (* consecutive learn failures before tripping *)
  breaker_cooldown : float; (* seconds open before a half-open probe *)
}

let config ?tcp ?(workers = 2) ?(max_inflight = 8) ?(snapshot_every = 500)
    ?(progress_every = 512) ?(breaker_threshold = 5) ?(breaker_cooldown = 2.0)
    ~state_dir socket_path =
  {
    socket_path;
    tcp;
    workers;
    state_dir;
    max_inflight;
    snapshot_every;
    progress_every;
    breaker_threshold;
    breaker_cooldown;
  }

type t = {
  cfg : config;
  m : Mutex.t;
  work_available : Condition.t;
  changed : Condition.t; (* any session state transition *)
  sessions : (int, session) Hashtbl.t;
  queue : int Queue.t; (* sids with state Queued *)
  mutable inflight : int; (* queued + running learns *)
  mutable next_sid : int;
  mutable stopping : bool;
  mutable stop_started : bool;
  mutable stopped_flag : bool;
  mutable stop_requested : bool;
  mutable listeners : Unix.file_descr list;
  mutable threads : Thread.t list; (* accept + worker threads *)
  mutable conns : (Unix.file_descr * Thread.t) list;
  devices : (string, Cq_hwsim.Machine.t) Hashtbl.t;
  gate : Gate.t;
  breaker : Cq_util.Breaker.t;
  (* Idempotency-key replay cache: success replies of mutating verbs
     (session.create, learn.start), keyed by the client-chosen "idem"
     string, so a retry across a reconnect returns the original reply
     instead of double-creating.  Bounded FIFO; failures are never
     cached (the client should genuinely retry those). *)
  idem : (string, (string * Json.t) list) Hashtbl.t;
  idem_order : string Queue.t;
  registry : Metrics.t;
  started_at : float; (* mono *)
  c_connections : Metrics.counter;
  c_requests : Metrics.counter;
  c_protocol_errors : Metrics.counter;
  c_busy : Metrics.counter;
  c_degraded : Metrics.counter;
  c_idem_replays : Metrics.counter;
  c_snapshot_degraded : Metrics.counter;
  c_learns_started : Metrics.counter;
  c_learns_done : Metrics.counter;
  c_learns_failed : Metrics.counter;
  c_events : Metrics.counter;
  h_request_seconds : Metrics.histogram;
}

let create ?metrics cfg =
  let registry =
    match metrics with Some r -> r | None -> Metrics.create ()
  in
  (if not (Sys.file_exists cfg.state_dir) then
     try Unix.mkdir cfg.state_dir 0o755 with Unix.Unix_error _ -> ());
  {
    cfg;
    m = Mutex.create ();
    work_available = Condition.create ();
    changed = Condition.create ();
    sessions = Hashtbl.create 16;
    queue = Queue.create ();
    inflight = 0;
    next_sid = 1;
    stopping = false;
    stop_started = false;
    stopped_flag = false;
    stop_requested = false;
    listeners = [];
    threads = [];
    conns = [];
    devices = Hashtbl.create 4;
    gate = Gate.create registry;
    breaker =
      Cq_util.Breaker.create ~failure_threshold:cfg.breaker_threshold
        ~cooldown:cfg.breaker_cooldown ();
    idem = Hashtbl.create 16;
    idem_order = Queue.create ();
    registry;
    started_at = Clock.mono ();
    c_connections = Metrics.counter registry "service.connections";
    c_requests = Metrics.counter registry "service.requests";
    c_protocol_errors = Metrics.counter registry "service.protocol_errors";
    c_busy = Metrics.counter registry "service.busy_rejections";
    c_degraded = Metrics.counter registry "service.degraded_rejections";
    c_idem_replays = Metrics.counter registry "service.idem_replays";
    c_snapshot_degraded = Metrics.counter registry "service.snapshot_degraded";
    c_learns_started = Metrics.counter registry "service.learns_started";
    c_learns_done = Metrics.counter registry "service.learns_done";
    c_learns_failed = Metrics.counter registry "service.learns_failed";
    c_events = Metrics.counter registry "service.events";
    h_request_seconds =
      Metrics.histogram ~buckets:20 ~start:0.0001 ~base:4.0 registry
        "service.request_seconds";
  }

let metrics t = t.registry

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* --- events (call with [t.m] held) --- *)

let max_events = 256

let publish_locked t s ty extra =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let fields =
    ("type", Json.String ty)
    :: ("session", Json.Int s.sid)
    :: ("seq", Json.Int seq)
    :: extra
  in
  s.events <-
    (let l = (seq, fields) :: s.events in
     if List.length l > max_events then List.filteri (fun i _ -> i < max_events) l
     else l);
  Metrics.incr t.c_events;
  Trace.instant ~cat:"service"
    ~args:[ ("session", string_of_int s.sid) ]
    ("service.event." ^ ty);
  Condition.broadcast t.changed

(* --- session helpers --- *)

let failure_kind = function
  | Learn.Transient _ -> "transient"
  | Learn.Diverged _ -> "diverged"
  | Learn.Budget_exhausted _ -> "budget_exhausted"
  | Learn.Invalid _ -> "invalid"

let session_json s =
  let base =
    [
      ("session", Json.Int s.sid);
      ("name", Json.String s.name);
      ("target", target_json s.target);
      ("state", Json.String (state_name s.state));
      ("queries_used", Json.Int s.queries_used);
      ( "budget",
        match s.budget with Some b -> Json.Int b | None -> Json.Null );
      ("refs", Json.Int s.refs);
      ("snapshot", Json.String s.snapshot_path);
      ("snapshot_exists", Json.Bool (Sys.file_exists s.snapshot_path));
    ]
  in
  let state_fields =
    match s.state with
    | Running { queries; started } ->
        [
          ("queries", Json.Int queries);
          ("running_seconds", Json.Float (Clock.mono () -. started));
        ]
    | Done { digest; states; member_queries; seconds; identified } ->
        [
          ("digest", Json.String digest);
          ("states", Json.Int states);
          ("member_queries", Json.Int member_queries);
          ("seconds", Json.Float seconds);
          ( "identified",
            Json.List (List.map (fun n -> Json.String n) identified) );
        ]
    | Failed { kind; detail; snapshot } ->
        [
          ("failure", Json.String kind);
          ("detail", Json.String detail);
          ( "failure_snapshot",
            match snapshot with Some p -> Json.String p | None -> Json.Null );
        ]
    | Idle | Queued -> []
  in
  base @ state_fields

(* --- typed rejections --- *)

(* A verb refuses a request by raising [Reject (kind, message)];
   [dispatch] turns it into the typed error reply in one place. *)
exception Reject of string * string

let reject kind fmt =
  Printf.ksprintf (fun msg -> raise (Reject (kind, msg))) fmt

(* The request's session, under [t.m]. *)
let with_session t params f =
  locked t (fun () ->
      match Json.mem_int "session" params with
      | None -> reject "unknown_session" "missing integer \"session\" field"
      | Some sid -> (
          match Hashtbl.find_opt t.sessions sid with
          | Some s -> f s
          | None -> reject "unknown_session" "unknown session %d" sid))

let remaining_budget s =
  match s.budget with
  | None -> None
  | Some b -> Some (max 0 (b - s.queries_used))

(* The machine registry: hardware sessions naming the same CPU/seed/noise
   share one simulated machine, which is what makes the fair-scheduling
   question real — their queries interleave on shared state, serialised
   by the gate at top-level-query granularity. *)
let device t cpu seed noise =
  let key = Printf.sprintf "%s:%d:%s" cpu seed noise in
  match Hashtbl.find_opt t.devices key with
  | Some m -> m
  | None ->
      let model =
        match Cq_hwsim.Cpu_model.by_name cpu with
        | Some m -> m
        | None -> failwith ("unknown CPU " ^ cpu)
      in
      let noise_cfg =
        match noise_preset_of_name noise with
        | Some cfg -> cfg
        | None -> failwith ("unknown noise preset " ^ noise)
      in
      let machine =
        Cq_hwsim.Machine.create ~seed:(Int64.of_int seed) ~noise:noise_cfg
          model
      in
      Hashtbl.replace t.devices key machine;
      machine

(* --- idempotency-key replay (call without [t.m] held) --- *)

let max_idem_entries = 256

(* Run a mutating verb at most once per client-chosen "idem" key: a retry
   across a reconnect gets the first success reply back.  Rejections
   propagate uncached, so the client genuinely retries those. *)
let idempotent t params f =
  match Json.mem_str "idem" params with
  | None -> f ()
  | Some key -> (
      match locked t (fun () -> Hashtbl.find_opt t.idem key) with
      | Some fields ->
          Metrics.incr t.c_idem_replays;
          fields
      | None ->
          let fields = f () in
          locked t (fun () ->
              if not (Hashtbl.mem t.idem key) then begin
                Hashtbl.replace t.idem key fields;
                Queue.push key t.idem_order;
                if Queue.length t.idem_order > max_idem_entries then
                  Hashtbl.remove t.idem (Queue.pop t.idem_order)
              end);
          fields)

(* --- the learn worker --- *)

type learn_result =
  | R_done of Learn.report
  | R_failed of Learn.failure * string option * int (* member queries *)

let run_learn t s =
  let spill_path = s.snapshot_path ^ ".spill" in
  let resume =
    if not s.learn_resume then None
    else if Sys.file_exists s.snapshot_path then Some s.snapshot_path
    else if Sys.file_exists spill_path then Some spill_path
    else None
  in
  let query_budget =
    match (remaining_budget s, s.learn_budget) with
    | None, b | b, None -> b
    | Some a, Some b -> Some (min a b)
  in
  (* A failed snapshot write degrades the session — typed warning event,
     re-route to the spill path — it never kills the learn. *)
  let snapshot =
    Learn.snapshot_policy ~every_queries:t.cfg.snapshot_every ~spill:spill_path
      ~on_degraded:(fun msg ->
        Metrics.incr t.c_snapshot_degraded;
        locked t (fun () ->
            publish_locked t s "snapshot_degraded"
              [ ("detail", Json.String msg) ]))
      s.snapshot_path
  in
  (* The historical kill_after_queries hook, now expressed as a fault
     schedule: a per-learn registry armed with [Reach k] on the worker
     kill site.  The daemon-wide ambient registry (--faults) can arm the
     same site to kill arbitrary learns. *)
  let kill_reg = Cq_util.Faults.create () in
  (match s.kill_after with
  | Some k ->
      Cq_util.Faults.arm kill_reg ~site:"service.worker.kill"
        (Cq_util.Faults.Reach k)
  | None -> ());
  (* Backend-probe chaos: an armed "hw.noise.burst" site flips the shared
     machine to the burst preset for one top-level query, restoring the
     session's configured preset at the next probe — the PR-2 noise model
     as an injectable fault. *)
  let burst_machine =
    match s.target with
    | Hw { cpu; seed; noise; _ } -> (
        match noise_preset_of_name noise with
        | Some cfg -> Some (device t cpu seed noise, cfg)
        | None -> None)
    | Sim _ -> None
  in
  let burst_active = ref false in
  let last_queries = ref 0 in
  let ticket = ref (Gate.acquire t.gate) in
  let probe q =
    last_queries := q;
    (match burst_machine with
    | Some (machine, configured) ->
        if !burst_active then begin
          Cq_hwsim.Machine.set_noise machine configured;
          burst_active := false
        end;
        if Cq_util.Faults.ambient_fire "hw.noise.burst" then begin
          Cq_hwsim.Machine.set_noise machine Cq_hwsim.Machine.burst_noise;
          burst_active := true
        end
    | None -> ());
    let raise_now =
      locked t (fun () ->
          (match s.state with
          | Running { queries; started } when q > queries ->
              s.state <- Running { queries = q; started };
              if q - s.last_progress >= t.cfg.progress_every then begin
                s.last_progress <- q;
                publish_locked t s "progress" [ ("queries", Json.Int q) ]
              end
          | _ -> ());
          if t.stopping then Some Draining
          else if s.cancel_requested then Some Cancelled
          else if
            Cq_util.Faults.fire ~n:q kill_reg "service.worker.kill"
            || Cq_util.Faults.ambient_fire ~n:q "service.worker.kill"
          then Some Worker_killed
          else None)
    in
    (match raise_now with Some e -> raise e | None -> ());
    (* Hand the hardware token around: FIFO across sessions, one
       top-level query per turn. *)
    ticket := Gate.yield t.gate !ticket
  in
  let result =
    match
      Fun.protect
        ~finally:(fun () ->
          (* The machine is shared across sessions: never leak an active
             burst past this learn's lifetime. *)
          (match burst_machine with
          | Some (machine, configured) when !burst_active ->
              Cq_hwsim.Machine.set_noise machine configured;
              burst_active := false
          | _ -> ());
          Gate.release t.gate !ticket)
        (fun () ->
          match s.target with
          | Sim { policy; assoc } -> (
              let p = Cq_policy.Zoo.make_exn ~name:policy ~assoc in
              match
                Learn.run_simulated ~identify:false ~snapshot ?resume
                  ?query_budget ~probe p
              with
              | Learn.Complete report -> R_done report
              | Learn.Partial p ->
                  R_failed (p.Learn.failure, p.Learn.snapshot, p.Learn.member_queries))
          | Hw { cpu; level; slice; set; seed; noise } -> (
              let machine = device t cpu seed noise in
              let run =
                Cq_core.Hardware.learn_set ~seed ~slice ~set ~check_hits:false
                  ~snapshot ?resume ?query_budget ~probe machine level
              in
              s.learned_assoc <- Some run.Cq_core.Hardware.assoc;
              match run.Cq_core.Hardware.outcome with
              | Cq_core.Hardware.Learned { report; _ } -> R_done report
              | Cq_core.Hardware.Partial
                  { failure; snapshot; member_queries; _ } ->
                  R_failed (failure, snapshot, member_queries)
              | Cq_core.Hardware.Failed { reason; _ } ->
                  R_failed (Learn.Transient reason, None, 0)))
    with
    | r -> Ok r
    | exception e -> Error e
  in
  let snapshot_if_exists () =
    if Sys.file_exists s.snapshot_path then Some s.snapshot_path
    else if Sys.file_exists spill_path then Some spill_path
    else None
  in
  (* Feed the breaker: only outcomes that say something about backend
     health count.  Budget exhaustion, divergence and cancellation are
     the caller's (or the policy's) doing, not the backend's — they
     release a held half-open probe without moving the state. *)
  (match result with
  | Ok (R_done _) -> Cq_util.Breaker.success t.breaker
  | Ok (R_failed (failure, _, _)) -> (
      match failure with
      | Learn.Transient _ | Learn.Invalid _ ->
          Cq_util.Breaker.failure t.breaker
      | Learn.Budget_exhausted _ | Learn.Diverged _ ->
          Cq_util.Breaker.abandon t.breaker)
  | Error (Cancelled | Draining) -> Cq_util.Breaker.abandon t.breaker
  | Error _ -> Cq_util.Breaker.failure t.breaker);
  locked t (fun () ->
      (match result with
      | Ok (R_done report) ->
          s.queries_used <- s.queries_used + report.Learn.member_queries;
          s.machine <- Some report.Learn.machine;
          (match s.target with
          | Sim { assoc; _ } -> s.learned_assoc <- Some assoc
          | Hw _ -> ());
          let digest = Cq_policy.Policy.machine_digest report.Learn.machine in
          s.state <-
            Done
              {
                digest;
                states = report.Learn.states;
                member_queries = report.Learn.member_queries;
                seconds = report.Learn.seconds;
                identified = report.Learn.identified;
              };
          Metrics.incr t.c_learns_done;
          publish_locked t s "done"
            [
              ("digest", Json.String digest);
              ("states", Json.Int report.Learn.states);
            ]
      | Ok (R_failed (failure, snap, member_queries)) ->
          s.queries_used <- s.queries_used + member_queries;
          let kind = failure_kind failure in
          let detail = Fmt.str "%a" Learn.pp_failure failure in
          s.state <- Failed { kind; detail; snapshot = snap };
          Metrics.incr t.c_learns_failed;
          publish_locked t s "failed" [ ("failure", Json.String kind) ]
      | Error e ->
          s.queries_used <- s.queries_used + !last_queries;
          let kind, detail =
            match e with
            | Cancelled -> ("cancelled", "cancelled by client request")
            | Worker_killed -> ("worker_killed", "worker died mid-learn")
            | Draining -> ("interrupted", "daemon shut down mid-learn")
            | e -> ("error", Printexc.to_string e)
          in
          s.state <- Failed { kind; detail; snapshot = snapshot_if_exists () };
          Metrics.incr t.c_learns_failed;
          publish_locked t s "failed" [ ("failure", Json.String kind) ]);
      s.cancel_requested <- false;
      t.inflight <- t.inflight - 1;
      Condition.broadcast t.changed)

let worker_loop t =
  let rec next () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work_available t.m
    done;
    if t.stopping then begin
      Mutex.unlock t.m;
      ()
    end
    else begin
      let sid = Queue.pop t.queue in
      match Hashtbl.find_opt t.sessions sid with
      | None ->
          t.inflight <- t.inflight - 1;
          Mutex.unlock t.m;
          next ()
      | Some s ->
          s.state <- Running { queries = 0; started = Clock.mono () };
          s.last_progress <- 0;
          publish_locked t s "started" [];
          Mutex.unlock t.m;
          run_learn t s;
          next ()
    end
  in
  next ()

(* --- request dispatch --- *)

let reply fd ?id fields = Protocol.send fd (Protocol.ok ?id fields)

let check_budget s =
  if remaining_budget s = Some 0 then
    reject "budget_exhausted" "session budget of %d queries spent"
      (Option.value ~default:0 s.budget)

(* One turn of the hardware token around [f]. *)
let with_gate t f =
  let ticket = Gate.acquire t.gate in
  Fun.protect ~finally:(fun () -> Gate.release t.gate ticket) f

(* The read-only verbs (replay, analyze) serve simulated sessions only. *)
let sim_target verb s =
  match s.target with
  | Sim { policy; assoc } -> (policy, assoc)
  | Hw _ -> reject "bad_request" "%s serves simulated sessions only" verb

(* The machine a read-only verb evaluates, from its "source" field:
   [Some] learned machine, or [None] for the session's policy.  "auto"
   takes the learned machine once there is one. *)
let resolve_source t s params =
  let machine = locked t (fun () -> s.machine) in
  match Option.value ~default:"auto" (Json.mem_str "source" params) with
  | "learned" when Option.is_none machine ->
      reject "bad_request" "session has no learned machine yet"
  | "auto" | "learned" -> machine
  | "policy" -> None
  | _ -> reject "bad_request" "source must be \"auto\", \"policy\" or \"learned\""

let source_name machine =
  Json.String (if Option.is_none machine then "policy" else "learned")

let parse_level s =
  match String.uppercase_ascii s with
  | "L1" -> Some Cq_hwsim.Cpu_model.L1
  | "L2" -> Some Cq_hwsim.Cpu_model.L2
  | "L3" -> Some Cq_hwsim.Cpu_model.L3
  | _ -> None

let parse_target params =
  let bad fmt = reject "bad_request" fmt in
  let target =
    match Json.member "target" params with
    | Some target -> target
    | None -> bad "missing \"target\" object"
  in
  let field get key default = Option.value ~default (get key target) in
  match Json.mem_str "kind" target with
  | Some ("sim" | "policy") -> (
      let assoc = field Json.mem_int "assoc" 4 in
      match Json.mem_str "policy" target with
      | None -> bad "sim target lacks a \"policy\" field"
      | Some policy -> (
          match Cq_policy.Zoo.make ~name:policy ~assoc with
          | Error msg -> bad "%s" msg
          | Ok _ -> Sim { policy; assoc }))
  | Some "hw" ->
      let cpu = field Json.mem_str "cpu" "skylake" in
      if Option.is_none (Cq_hwsim.Cpu_model.by_name cpu) then
        bad "unknown CPU %S" cpu;
      let level =
        match parse_level (field Json.mem_str "level" "L1") with
        | Some level -> level
        | None -> bad "level must be L1, L2 or L3"
      in
      (* "noise" accepts a preset name; booleans are kept for protocol-1
         clients (false = quiet, true = default). *)
      let noise =
        match Json.member "noise" target with
        | None -> "quiet"
        | Some (Json.Bool b) -> if b then "default" else "quiet"
        | Some (Json.String s) when Option.is_some (noise_preset_of_name s)
          ->
            s
        | Some (Json.String s) ->
            bad "unknown noise preset %S (quiet, default, burst, drift)" s
        | Some _ -> bad "noise must be a bool or a preset name string"
      in
      Hw
        {
          cpu;
          level;
          slice = field Json.mem_int "slice" 0;
          set = field Json.mem_int "set" 0;
          seed = field Json.mem_int "seed" 42;
          noise;
        }
  | Some k -> bad "unknown target kind %S" k
  | None -> bad "target lacks a \"kind\" field"

let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

(* --- verbs: each takes the request params and returns reply fields --- *)

let v_session_create t params =
  idempotent t params (fun () ->
      let target = parse_target params in
      let s =
        locked t (fun () ->
            if t.stopping then reject "shutting_down" "daemon is shutting down";
            let sid = t.next_sid in
            let taken name =
              Hashtbl.fold (fun _ s acc -> acc || s.name = name) t.sessions false
            in
            let name =
              match Json.mem_str "name" params with
              | Some n ->
                  let name = sanitize_name n in
                  if taken name then
                    reject "bad_request" "session name %S already in use" name;
                  name
              | None ->
                  (* A client may have claimed "session-<sid>" by name
                     already: suffix the default until it is free. *)
                  let rec free k =
                    let name =
                      if k = 0 then Printf.sprintf "session-%d" sid
                      else Printf.sprintf "session-%d.%d" sid k
                    in
                    if taken name then free (k + 1) else name
                  in
                  free 0
            in
            t.next_sid <- sid + 1;
            let s =
              {
                sid;
                name;
                target;
                snapshot_path = Filename.concat t.cfg.state_dir (name ^ ".snap");
                budget = Json.mem_int "query_budget" params;
                queries_used = 0;
                refs = 1;
                state = Idle;
                cancel_requested = false;
                learn_resume = false;
                kill_after = None;
                learn_budget = None;
                machine = None;
                learned_assoc =
                  (match target with Sim { assoc; _ } -> Some assoc | Hw _ -> None);
                sim_polca = None;
                hw_frontend = None;
                events = [];
                next_seq = 0;
                last_progress = 0;
              }
            in
            Hashtbl.replace t.sessions sid s;
            publish_locked t s "created" [];
            s)
      in
      [
        ("session", Json.Int s.sid);
        ("name", Json.String s.name);
        ("snapshot", Json.String s.snapshot_path);
      ])

let v_session_drop t params =
  with_session t params (fun s ->
      (match s.state with
      | Queued | Running _ -> reject "busy" "session has a learn in progress"
      | Idle | Done _ | Failed _ -> Hashtbl.remove t.sessions s.sid);
      [ ("dropped", Json.Int s.sid) ])

let v_session_result t params =
  let digest, states, m, assoc =
    with_session t params (fun s ->
        match (s.state, s.machine) with
        | Done d, Some m -> (d.digest, d.states, m, s.learned_assoc)
        | _ -> reject "no_result" "session has no completed learn")
  in
  let dot =
    if Option.value ~default:false (Json.mem_bool "dot" params) then
      let assoc =
        match assoc with
        | Some a -> a
        | None -> Cq_automata.Mealy.n_inputs m - 1
      in
      [
        ( "dot",
          Json.String
            (Cq_automata.Mealy.to_dot
               ~input_label:(Cq_policy.Types.input_label ~assoc)
               ~output_label:Cq_policy.Types.output_label m) );
      ]
    else []
  in
  [ ("digest", Json.String digest); ("states", Json.Int states) ] @ dot

let v_learn_start t params =
  (* A retried start across a daemon failover replays the original reply
     instead of queueing the learn twice. *)
  idempotent t params (fun () ->
      with_session t params (fun s ->
          if t.stopping then reject "shutting_down" "daemon is shutting down";
          let busy fmt =
            Metrics.incr t.c_busy;
            reject "busy" fmt
          in
          (match s.state with
          | Queued | Running _ ->
              busy "a learn is already in progress on this session"
          | Idle | Done _ | Failed _ -> ());
          if t.inflight >= t.cfg.max_inflight then
            busy "server at capacity (%d learns in flight)" t.inflight;
          check_budget s;
          if not (Cq_util.Breaker.allow t.breaker) then begin
            (* Load shedding: the backend keeps failing — a fast typed
               rejection beats a slot in a queue that cannot drain. *)
            Metrics.incr t.c_degraded;
            reject "degraded"
              "hardware backend degraded (circuit breaker open); retry \
               after the cooldown"
          end;
          s.learn_resume <-
            Option.value ~default:false (Json.mem_bool "resume" params);
          s.kill_after <- Json.mem_int "kill_after_queries" params;
          s.learn_budget <- Json.mem_int "query_budget" params;
          s.cancel_requested <- false;
          s.state <- Queued;
          t.inflight <- t.inflight + 1;
          Metrics.incr t.c_learns_started;
          Queue.push s.sid t.queue;
          publish_locked t s "queued" [];
          Condition.signal t.work_available;
          [ ("session", Json.Int s.sid); ("state", Json.String "queued") ]))

let v_learn_cancel t params =
  with_session t params (fun s ->
      let state =
        match s.state with
        | Running _ ->
            s.cancel_requested <- true;
            "cancelling"
        | Queued ->
            (* Never started: pull it out of the queue directly. *)
            let keep = Queue.create () in
            Queue.iter
              (fun sid -> if sid <> s.sid then Queue.push sid keep)
              t.queue;
            Queue.clear t.queue;
            Queue.transfer keep t.queue;
            t.inflight <- t.inflight - 1;
            s.state <-
              Failed
                {
                  kind = "cancelled";
                  detail = "cancelled before starting";
                  snapshot = None;
                };
            publish_locked t s "failed" [ ("failure", Json.String "cancelled") ];
            "cancelled"
        | Idle | Done _ | Failed _ -> reject "bad_request" "no learn in progress"
      in
      [ ("state", Json.String state) ])

let v_learn_wait t params =
  let deadline =
    match Option.bind (Json.member "timeout_s" params) Json.to_float with
    | Some s -> Clock.after s
    | None -> Clock.no_deadline
  in
  let rec wait () =
    let status =
      with_session t params (fun s ->
          let settled =
            match s.state with
            | Done _ | Failed _ | Idle -> true
            | Queued | Running _ -> t.stopping
          in
          let timed_out = (not settled) && Clock.expired deadline in
          if settled || timed_out then
            Some (session_json s @ [ ("timed_out", Json.Bool timed_out) ])
          else None)
    in
    match status with
    | Some fields -> fields
    | None ->
        Thread.delay 0.02;
        wait ()
  in
  wait ()

(* Membership queries: one hardware interaction under the gate, counted
   against the session budget. *)
let v_query t params =
  let s =
    with_session t params (fun s ->
        check_budget s;
        s)
  in
  match s.target with
  | Sim { policy; assoc } ->
      let word =
        match Option.bind (Json.member "word" params) Json.int_list with
        | Some word -> word
        | None ->
            reject "bad_request" "sim query needs a \"word\" list of integers"
      in
      if List.exists (fun i -> i < 0 || i > assoc) word then
        reject "bad_request" "word symbols must be in 0..%d" assoc;
      let outputs =
        with_gate t (fun () ->
            let polca =
              match s.sim_polca with
              | Some p -> p
              | None ->
                  let p =
                    Cq_core.Polca.create ~check_hits:false
                      (Cq_cache.Oracle.of_policy
                         (Cq_policy.Zoo.make_exn ~name:policy ~assoc))
                  in
                  s.sim_polca <- Some p;
                  p
            in
            Cq_core.Polca.run polca word)
      in
      locked t (fun () -> s.queries_used <- s.queries_used + 1);
      [
        ( "outputs",
          Json.List
            (List.map
               (fun o -> Json.String (Cq_policy.Types.output_label o))
               outputs) );
      ]
  | Hw { cpu; level; slice; set; seed; noise } ->
      let mbl =
        match Json.mem_str "mbl" params with
        | Some mbl -> mbl
        | None ->
            reject "bad_request" "hw query needs an \"mbl\" expression string"
      in
      let results =
        match
          with_gate t (fun () ->
              let frontend =
                match s.hw_frontend with
                | Some f -> f
                | None ->
                    let machine = device t cpu seed noise in
                    let backend =
                      Cq_cachequery.Backend.create machine
                        { Cq_cachequery.Backend.level; slice; set }
                    in
                    ignore (Cq_cachequery.Backend.calibrate backend);
                    let f = Cq_cachequery.Frontend.create backend in
                    s.hw_frontend <- Some f;
                    f
              in
              Cq_cachequery.Frontend.run_mbl frontend mbl)
        with
        | results -> results
        | exception e -> reject "bad_request" "%s" (Printexc.to_string e)
      in
      locked t (fun () ->
          s.queries_used <- s.queries_used + List.length results);
      let outcome = function
        | Cq_cache.Cache_set.Hit -> Json.String "Hit"
        | Cq_cache.Cache_set.Miss -> Json.String "Miss"
      in
      [
        ( "results",
          Json.List
            (List.map
               (fun (q, rs) ->
                 Json.Obj
                   [
                     ("query", Json.String (Cq_mbl.Expand.query_to_string q));
                     ("outcomes", Json.List (List.map outcome rs));
                   ])
               results) );
      ]

(* Workload replay served by the daemon: evaluate a trace spec against
   the session's policy (or its learned machine, once a learn is done)
   and the Belady-OPT bound.  One gate turn covers the whole trace —
   replay is a read-only evaluation, not a hardware interaction, so it
   does not charge the query budget. *)
let v_replay t params =
  let s = with_session t params Fun.id in
  let policy, assoc = sim_target "replay" s in
  let spec =
    match Json.mem_str "spec" params with
    | Some spec -> spec
    | None ->
        reject "bad_request" "replay needs a \"spec\" string (%s)"
          Cq_workload.Trace.spec_syntax
  in
  let tr =
    match Cq_workload.Trace.of_spec ~assoc spec with
    | Ok tr -> tr
    | Error msg -> reject "bad_request" "%s" msg
  in
  let machine = resolve_source t s params in
  let blocks = tr.Cq_workload.Trace.blocks in
  let outcome =
    with_gate t (fun () ->
        match machine with
        | Some m ->
            Cq_workload.Replay.compiled (Cq_automata.Mealy.compile m) blocks
        | None ->
            Cq_workload.Replay.policy
              (Cq_policy.Zoo.make_exn ~name:policy ~assoc)
              blocks)
  in
  let opt = Cq_workload.Opt.replay ~assoc blocks in
  [
    ("spec", Json.String tr.Cq_workload.Trace.spec);
    ("trace", Json.String tr.Cq_workload.Trace.label);
    ("source", source_name machine);
    ("accesses", Json.Int (Array.length blocks));
    ("hits", Json.Int outcome.Cq_workload.Replay.hits);
    ("misses", Json.Int outcome.Cq_workload.Replay.misses);
    ("hit_rate", Json.Float (Cq_workload.Replay.hit_rate outcome));
    ("opt_hits", Json.Int opt.Cq_workload.Replay.hits);
    ("opt_hit_rate", Json.Float (Cq_workload.Replay.hit_rate opt));
  ]

(* Static security analysis served by the daemon: run Cq_analysis.Attack
   over the session's policy automaton (or its learned machine, once a
   learn is done), dynamically verify every synthesized sequence against
   the replay paths and hwsim, and reply with the attack-cost and
   leakage summary.  Like replay: read-only, one gate turn, no query
   budget charged. *)
let v_analyze t params =
  let module A = Cq_analysis.Attack in
  let s = with_session t params Fun.id in
  let policy, assoc = sim_target "analyze" s in
  let machine = resolve_source t s params in
  let p = Cq_policy.Zoo.make_exn ~name:policy ~assoc in
  let report, verified =
    with_gate t (fun () ->
        let report =
          match machine with
          | Some m -> A.analyze ~name:policy m
          | None -> A.analyze_policy p
        in
        match (A.verify p report, A.verify_hwsim p report) with
        | Ok (), Ok () -> (report, Ok ())
        | Error e, _ | _, Error e -> (report, Error e))
  in
  (match verified with
  | Ok () -> ()
  | Error msg ->
      reject "internal" "synthesized sequence failed dynamic verification: %s"
        msg);
  let l = report.A.leakage in
  [
    ("source", source_name machine);
    ("policy", Json.String policy);
    ("assoc", Json.Int report.A.assoc);
    ("states", Json.Int report.A.states);
    ("eviction_set_size", Json.Int report.A.eviction_set_size);
    ("eviction_length", Json.Int report.A.eviction_length);
    ("probe_classes", Json.Int l.A.probe_classes);
    ("evicted_information", Json.Float l.A.evicted_information);
    ("absorbed_noise", Json.Int l.A.absorbed_noise);
    ("residual_information", Json.Float l.A.residual_information);
    ("verified", Json.Int 1);
  ]
  @
  match report.A.stealthy with
  | None -> [ ("stealthy", Json.Null) ]
  | Some st ->
      [
        ( "stealthy_length",
          Json.Int (List.length st.A.setup + List.length st.A.body) );
        ("stealthy_repeatable", Json.Bool st.A.repeatable);
      ]

(* The one streaming verb: a [subscribed] reply, then every event from
   sequence [from] on, then an [end] event once the learn is settled (or
   at once without [follow]). *)
let v_events t fd ~id params =
  let from = Option.value ~default:0 (Json.mem_int "from" params) in
  let follow = Option.value ~default:true (Json.mem_bool "follow" params) in
  let sid = with_session t params (fun s -> s.sid) in
  reply fd ~id [ ("subscribed", Json.Int sid) ];
  let next = ref from in
  let rec stream () =
    let batch, terminal =
      locked t (fun () ->
          match Hashtbl.find_opt t.sessions sid with
          | None -> ([], true)
          | Some s ->
              ( List.filter (fun (seq, _) -> seq >= !next) s.events
                |> List.sort (fun (a, _) (b, _) -> compare a b),
                match s.state with
                | Done _ | Failed _ | Idle -> true
                | Queued | Running _ -> false ))
    in
    List.iter
      (fun (seq, fields) ->
        next := seq + 1;
        Protocol.send fd (Protocol.event fields))
      batch;
    if locked t (fun () -> t.stopping) || (terminal && batch = []) || not follow
    then Protocol.send fd (Protocol.event [ ("type", Json.String "end") ])
    else begin
      Thread.delay 0.02;
      stream ()
    end
  in
  stream ()

(* Liveness + degradation in one reply: gate depth (hardware contention),
   inflight vs capacity, breaker state, snapshot-disk headroom, and the
   armed fault sites (so a chaos run can audit its own schedule). *)
let v_health t _params =
  let gate_depth = Gate.depth t.gate in
  let sessions, inflight, stopping =
    locked t (fun () -> (Hashtbl.length t.sessions, t.inflight, t.stopping))
  in
  let breaker = Cq_util.Breaker.state t.breaker in
  let degraded = breaker <> Cq_util.Breaker.Closed || stopping in
  let fault_sites =
    match Cq_util.Faults.ambient () with
    | None -> Json.Null
    | Some f ->
        Json.List
          (List.map
             (fun (site, hits, fires) ->
               Json.Obj
                 [
                   ("site", Json.String site);
                   ("hits", Json.Int hits);
                   ("fires", Json.Int fires);
                 ])
             (Cq_util.Faults.counts f))
  in
  [
    ("status", Json.String (if degraded then "degraded" else "ok"));
    ("breaker", Json.String (Cq_util.Breaker.state_to_string breaker));
    ("breaker_trips", Json.Int (Cq_util.Breaker.trips t.breaker));
    ("breaker_rejections", Json.Int (Cq_util.Breaker.rejections t.breaker));
    ("gate_depth", Json.Int gate_depth);
    ("inflight", Json.Int inflight);
    ("max_inflight", Json.Int t.cfg.max_inflight);
    ("sessions", Json.Int sessions);
    ("stopping", Json.Bool stopping);
    ("uptime_seconds", Json.Float (Clock.mono () -. t.started_at));
    ("state_dir", Json.String t.cfg.state_dir);
    ( "disk_free_bytes",
      match Cq_util.Disk.free_bytes t.cfg.state_dir with
      | Some b -> Json.Int (Int64.to_int b)
      | None -> Json.Null );
    ("fault_sites", fault_sites);
  ]

let v_stats t _params =
  let sessions, inflight =
    locked t (fun () -> (Hashtbl.length t.sessions, t.inflight))
  in
  [
    ("sessions", Json.Int sessions);
    ("inflight", Json.Int inflight);
    ("uptime_seconds", Json.Float (Clock.mono () -. t.started_at));
    ("metrics", Metrics.json t.registry);
  ]

type handler =
  | Reply of (t -> Json.t -> (string * Json.t) list)
  | Stream of (t -> Unix.file_descr -> id:Json.t -> Json.t -> unit)

let hello _ _ =
  [ ("server", Json.String "cachequeryd"); ("protocol", Json.Int 1) ]

let status t params = with_session t params session_json

let verbs =
  [
    ("hello", Reply hello);
    ("ping", Reply hello);
    ("session.create", Reply v_session_create);
    ( "session.attach",
      Reply
        (fun t params ->
          with_session t params (fun s ->
              s.refs <- s.refs + 1;
              session_json s)) );
    ( "session.detach",
      Reply
        (fun t params ->
          with_session t params (fun s ->
              s.refs <- max 0 (s.refs - 1);
              [ ("refs", Json.Int s.refs) ])) );
    ( "session.list",
      Reply
        (fun t _ ->
          let sessions =
            locked t (fun () ->
                Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
                |> List.sort (fun a b -> compare a.sid b.sid)
                |> List.map (fun s -> Json.Obj (session_json s)))
          in
          [ ("sessions", Json.List sessions) ]) );
    ("session.drop", Reply v_session_drop);
    ("session.status", Reply status);
    ("session.result", Reply v_session_result);
    ("learn.status", Reply status);
    ("learn.start", Reply v_learn_start);
    ("learn.cancel", Reply v_learn_cancel);
    ("learn.wait", Reply v_learn_wait);
    ("query", Reply v_query);
    ("replay", Reply v_replay);
    ("analyze", Reply v_analyze);
    ("events", Stream v_events);
    ("stats", Reply v_stats);
    ("health", Reply v_health);
    (* [run] acts on the flag at its next poll, and [stop] joins the
       accept threads before it closes connections: this reply goes out
       first. *)
    ( "shutdown",
      Reply
        (fun t _ ->
          t.stop_requested <- true;
          Condition.broadcast t.changed;
          [ ("stopping", Json.Bool true) ]) );
  ]

let dispatch t fd { Protocol.id; verb; params } =
  try
    match List.assoc_opt verb verbs with
    | Some (Reply handler) -> reply fd ~id (handler t params)
    | Some (Stream handler) -> handler t fd ~id params
    | None -> reject "unknown_verb" "unknown verb %S" verb
  with Reject (kind, msg) -> Protocol.send fd (Protocol.error ~id ~kind msg)

(* --- connections --- *)

(* Wait until [fd] is readable, checking the stop flag so idle
   connections do not pin the shutdown join. *)
let rec wait_readable t fd =
  if t.stopping then `Stop
  else
    match Unix.select [ fd ] [] [] 0.25 with
    | [], _, _ -> wait_readable t fd
    | _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable t fd
    | exception Unix.Unix_error (_, _, _) -> `Stop

let handle_conn t fd =
  Metrics.incr t.c_connections;
  let rec loop () =
    match wait_readable t fd with
    | `Stop -> ()
    | `Ready -> (
        match Protocol.read_frame fd with
        | Protocol.Eof -> ()
        | Protocol.Bad err ->
            Metrics.incr t.c_protocol_errors;
            (try
               Protocol.send fd
                 (Protocol.error ~kind:"bad_frame"
                    (Protocol.frame_error_to_string err))
             with _ -> ());
            (* The stream is desynchronised — drop the connection. *)
            ()
        | Protocol.Frame payload ->
            Metrics.incr t.c_requests;
            let t0 = Clock.mono () in
            (match Json.parse payload with
            | exception Json.Parse_error msg ->
                Metrics.incr t.c_protocol_errors;
                Protocol.send fd (Protocol.error ~kind:"bad_json" msg)
            | doc -> (
                match Protocol.request_of_json doc with
                | Error msg ->
                    Metrics.incr t.c_protocol_errors;
                    Protocol.send fd (Protocol.error ~kind:"bad_request" msg)
                | Ok req -> (
                    try
                      Trace.with_span ~cat:"service" ("service." ^ req.verb)
                        (fun () -> dispatch t fd req)
                    with
                    | Unix.Unix_error _ as e -> raise e
                    (* A torn write left a partial frame on the wire; an
                       error reply appended to it would be read as frame
                       payload and wedge the peer.  Drop the connection —
                       the peer sees Truncated/Eof and reconnects. *)
                    | Cq_util.Faults.Injected _ as e -> raise e
                    | e ->
                        Protocol.send fd
                          (Protocol.error ~id:req.Protocol.id ~kind:"error"
                             (Printexc.to_string e)))));
            Metrics.observe t.h_request_seconds (Clock.mono () -. t0);
            loop ())
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  locked t (fun () ->
      t.conns <- List.filter (fun (fd', _) -> fd' <> fd) t.conns)

let accept_loop t lfd =
  let rec loop () =
    if t.stopping then ()
    else
      match Unix.select [ lfd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept lfd with
          | fd, _ ->
              if t.stopping then (try Unix.close fd with _ -> ())
              else begin
                let th = Thread.create (fun () -> handle_conn t fd) () in
                locked t (fun () -> t.conns <- (fd, th) :: t.conns);
                loop ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  loop ()

(* --- lifecycle --- *)

let bind_unix path =
  if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let bind_tcp addr port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
  Unix.listen fd 16;
  fd

let start t =
  (* A peer closing its socket mid-write must surface as EPIPE on the
     offending connection (handled per-connection above), not deliver a
     process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listeners =
    bind_unix t.cfg.socket_path
    ::
    (match t.cfg.tcp with
    | Some (addr, port) -> [ bind_tcp addr port ]
    | None -> [])
  in
  t.listeners <- listeners;
  let acceptors =
    List.map (fun lfd -> Thread.create (fun () -> accept_loop t lfd) ()) listeners
  in
  let workers =
    List.init t.cfg.workers (fun _ -> Thread.create (fun () -> worker_loop t) ())
  in
  t.threads <- acceptors @ workers

let stopped t = t.stopped_flag

let request_stop t = t.stop_requested <- true

let stop t =
  let proceed =
    locked t (fun () ->
        if t.stop_started then false
        else begin
          t.stop_started <- true;
          t.stopping <- true;
          (* Queued-but-not-started learns will never run: park them so
             clients see a terminal state (their snapshots, if any, still
             resume). *)
          Queue.iter
            (fun sid ->
              match Hashtbl.find_opt t.sessions sid with
              | Some s when s.state = Queued ->
                  s.state <-
                    Failed
                      {
                        kind = "interrupted";
                        detail = "daemon shut down before the learn started";
                        snapshot =
                          (if Sys.file_exists s.snapshot_path then
                             Some s.snapshot_path
                           else None);
                      };
                  t.inflight <- t.inflight - 1;
                  publish_locked t s "failed"
                    [ ("failure", Json.String "interrupted") ]
              | _ -> ())
            t.queue;
          Queue.clear t.queue;
          Condition.broadcast t.work_available;
          Condition.broadcast t.changed;
          true
        end)
  in
  if not proceed then
    while not t.stopped_flag do
      Thread.delay 0.02
    done
  else begin
    (* Running learns hit [Draining] at their next probe, write a final
       snapshot and park as [interrupted]; workers then drain.  Accept
       loops notice the flag within their select timeout. *)
    List.iter
      (fun lfd -> try Unix.close lfd with Unix.Unix_error _ -> ())
      t.listeners;
    List.iter (fun th -> Thread.join th) t.threads;
    (* Nudge connection handlers off any blocking read, then join. *)
    let conns = locked t (fun () -> t.conns) in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
    t.stopped_flag <- true
  end

let run t =
  start t;
  while not t.stop_requested do
    Thread.delay 0.1
  done;
  stop t
