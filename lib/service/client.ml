(* The client side of the cachequeryd protocol: blocking calls over one
   connection, with typed errors re-raised from the daemon's replies.

   Resilience is opt-in: a client built with [~retry] owns a dialer (not
   just a socket) and heals connection failures transparently —
   jittered-exponential reconnect via [Cq_util.Backoff], idempotency
   keys stamped on the mutating verbs (session.create / learn.start) so
   a retry across a daemon failover replays instead of double-creating,
   and event streams that resubscribe from the last seen sequence
   number.  Without [~retry] the behaviour is the historical one: a
   single connection, first failure raises. *)

type retry = {
  attempts : int;
  policy : Cq_util.Backoff.policy;
  sleep : float -> unit;
  seed : int;
}

let retry ?(attempts = 5) ?policy ?(sleep = Unix.sleepf) ?(seed = 0) () =
  if attempts < 1 then invalid_arg "Client.retry: attempts must be >= 1";
  let policy =
    match policy with
    | Some p -> p
    | None ->
        (* Decorrelated jitter so a daemon restart does not synchronise
           every client into a reconnect storm. *)
        Cq_util.Backoff.policy ~base:0.02 ~cap:1.0 ()
  in
  { attempts; policy; sleep; seed }

type t = {
  m : Mutex.t;
  dial : unit -> Unix.file_descr;
  retry : retry option;
  mutable fd : Unix.file_descr option;
  mutable next_id : int;
  mutable was_connected : bool;
  mutable reconnects : int;
  mutable request_retries : int;
  mutable idem_seq : int;
  idem_prefix : string;
}

exception Error of { kind : string; message : string }

let protocol_error message = raise (Error { kind = "protocol"; message })

let ignore_sigpipe () =
  (* A daemon dying mid-call must raise EPIPE from the write, not kill
     the client process with SIGPIPE. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* Distinguishes client instances born in the same process at the same
   millisecond — pid + time alone collide across concurrent clients, and
   colliding prefixes would replay one client's idempotent creates to
   another. *)
let instance_counter = Atomic.make 0

let make ?retry ~dial () =
  ignore_sigpipe ();
  {
    m = Mutex.create ();
    dial;
    retry;
    fd = None;
    next_id = 1;
    was_connected = false;
    reconnects = 0;
    request_retries = 0;
    idem_seq = 0;
    (* Unique across client processes, restarts, and instances: pid,
       wall-clock millis at construction ([Clock.now] is the sanctioned
       wall-clock read), and a per-process instance counter. *)
    idem_prefix =
      Printf.sprintf "%d-%x-%d" (Unix.getpid ())
        (int_of_float (Cq_util.Clock.now () *. 1000.) land 0xFFFFFF)
        (Atomic.fetch_and_add instance_counter 1);
  }

let dial_unix path () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* Establish (or re-establish) the connection; call with [t.m] held.
   With retry, connect attempts back off with jitter; without, one
   attempt raises as it always did. *)
let ensure t =
  match t.fd with
  | Some fd -> fd
  | None -> (
      let connected fd =
        if t.was_connected then t.reconnects <- t.reconnects + 1;
        t.was_connected <- true;
        t.fd <- Some fd;
        fd
      in
      match t.retry with
      | None -> connected (t.dial ())
      | Some r -> (
          match
            Cq_util.Backoff.retry ~sleep:r.sleep ~seed:r.seed ~policy:r.policy
              ~attempts:r.attempts ~init:None
              (fun ~attempt:_ _ ->
                match t.dial () with
                | fd -> `Done fd
                | exception (Unix.Unix_error _ as e) -> `Retry (Some e))
          with
          | Ok fd -> connected fd
          | Error (Some e) -> raise e
          | Error None -> protocol_error "connect retry loop yielded nothing"))

let drop t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None

let connect_unix ?retry path =
  let t = make ?retry ~dial:(dial_unix path) () in
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> ignore (ensure t));
  t

let close c =
  Mutex.lock c.m;
  drop c;
  Mutex.unlock c.m

let reconnects c = c.reconnects
let request_retries c = c.request_retries

let read_doc fd =
  match Protocol.read_frame fd with
  | Protocol.Frame payload -> (
      match Json.parse payload with
      | doc -> doc
      | exception Json.Parse_error msg ->
          protocol_error ("unparseable reply: " ^ msg))
  | Protocol.Eof -> protocol_error "daemon closed the connection"
  | Protocol.Bad err -> protocol_error (Protocol.frame_error_to_string err)

let check_reply doc =
  match Json.member "ok" doc with
  | Some (Json.Bool true) -> doc
  | Some (Json.Bool false) ->
      let kind, message =
        match Json.member "error" doc with
        | Some err ->
            ( Option.value ~default:"error" (Json.mem_str "kind" err),
              Option.value ~default:"" (Json.mem_str "message" err) )
        | None -> ("error", "malformed error reply")
      in
      raise (Error { kind; message })
  | _ -> protocol_error "reply lacks an \"ok\" field"

let send_request t fd ?params verb =
  let id = t.next_id in
  t.next_id <- id + 1;
  let fields =
    [ ("verb", Json.String verb); ("id", Json.Int id) ]
    @ match params with Some p -> [ ("params", p) ] | None -> []
  in
  Protocol.send fd (Json.Obj fields)

(* One request/reply exchange on the live connection; [t.m] held. *)
let exchange t ?params verb =
  let fd = ensure t in
  send_request t fd ?params verb;
  check_reply (read_doc fd)

let is_conn_failure = function
  | Unix.Unix_error _ | Error { kind = "protocol"; _ } -> true
  (* An injected torn write leaves this side's stream desynchronised,
     exactly like a real mid-frame disconnect: drop and redial. *)
  | Cq_util.Faults.Injected _ -> true
  | _ -> false

(* The retrying call core.  Connection failures drop the socket and — for
   [retryable] verbs on a retry-enabled client — redial and resend.
   Typed [busy]/[degraded] rejections are transient by construction
   (load shedding, a breaker cooling down) and retry the same way.
   Everything else raises immediately. *)
let call_core ~retryable t ?params verb =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      match t.retry with
      | None -> exchange t ?params verb
      | Some r -> (
          match
            Cq_util.Backoff.retry ~sleep:r.sleep ~seed:r.seed ~policy:r.policy
              ~attempts:r.attempts ~init:None
              (fun ~attempt:_ _ ->
                match exchange t ?params verb with
                | doc -> `Done doc
                | exception e ->
                    if is_conn_failure e then begin
                      drop t;
                      if retryable then begin
                        t.request_retries <- t.request_retries + 1;
                        `Retry (Some e)
                      end
                      else raise e
                    end
                    else (
                      match e with
                      | Error { kind = "busy" | "degraded"; _ } when retryable
                        ->
                          t.request_retries <- t.request_retries + 1;
                          `Retry (Some e)
                      | e -> raise e))
          with
          | Ok doc -> doc
          | Error (Some e) -> raise e
          | Error None -> protocol_error "retry loop yielded nothing"))

let call c ?params verb = call_core ~retryable:true c ?params verb

let is_end doc = Json.mem_str "type" doc = Some "end"

let stream_once t ?params verb f =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      let fd = ensure t in
      send_request t fd ?params verb;
      let reply = check_reply (read_doc fd) in
      let rec drain () =
        let doc = read_doc fd in
        if is_end doc then ()
        else begin
          f doc;
          drain ()
        end
      in
      drain ();
      reply)

let stream c ?params verb f = stream_once c ?params verb f

(* --- convenience wrappers --- *)

let ping c = call c "ping"
let health c = call c "health"

let opt_field name = function Some v -> [ (name, v) ] | None -> []

let session_of reply =
  match Json.mem_int "session" reply with
  | Some sid -> sid
  | None -> protocol_error "reply lacks a session id"

(* Mutating verbs get an idempotency key whenever retry is enabled, so a
   resend after a mid-reply disconnect replays the original success
   server-side instead of double-creating. *)
let idem_field c =
  match c.retry with
  | None -> []
  | Some _ ->
      c.idem_seq <- c.idem_seq + 1;
      [ ("idem", Json.String (Printf.sprintf "%s-%d" c.idem_prefix c.idem_seq)) ]

let create_sim c ?name ?query_budget ~policy ~assoc () =
  let params =
    Json.Obj
      ([
         ( "target",
           Json.Obj
             [
               ("kind", Json.String "sim");
               ("policy", Json.String policy);
               ("assoc", Json.Int assoc);
             ] );
       ]
      @ opt_field "name" (Option.map (fun n -> Json.String n) name)
      @ opt_field "query_budget"
          (Option.map (fun b -> Json.Int b) query_budget)
      @ idem_field c)
  in
  session_of (call c ~params "session.create")

let create_hw c ?name ?query_budget ?(seed = 42) ?(noise = "quiet") ~cpu
    ~level ~set () =
  let params =
    Json.Obj
      ([
         ( "target",
           Json.Obj
             [
               ("kind", Json.String "hw");
               ("cpu", Json.String cpu);
               ("level", Json.String level);
               ("set", Json.Int set);
               ("seed", Json.Int seed);
               ("noise", Json.String noise);
             ] );
       ]
      @ opt_field "name" (Option.map (fun n -> Json.String n) name)
      @ opt_field "query_budget"
          (Option.map (fun b -> Json.Int b) query_budget)
      @ idem_field c)
  in
  session_of (call c ~params "session.create")

let learn_start c ?resume ?kill_after_queries ?query_budget sid =
  let params =
    Json.Obj
      ([ ("session", Json.Int sid) ]
      @ opt_field "resume" (Option.map (fun b -> Json.Bool b) resume)
      @ opt_field "kill_after_queries"
          (Option.map (fun n -> Json.Int n) kill_after_queries)
      @ opt_field "query_budget"
          (Option.map (fun n -> Json.Int n) query_budget)
      @ idem_field c)
  in
  ignore (call c ~params "learn.start")

let learn_wait c ?timeout_s sid =
  let params =
    Json.Obj
      ([ ("session", Json.Int sid) ]
      @ opt_field "timeout_s" (Option.map (fun s -> Json.Float s) timeout_s))
  in
  call c ~params "learn.wait"

let learn_cancel c sid =
  ignore (call c ~params:(Json.Obj [ ("session", Json.Int sid) ]) "learn.cancel")

let status c sid =
  call c ~params:(Json.Obj [ ("session", Json.Int sid) ]) "learn.status"

let result c ?(dot = false) sid =
  call c
    ~params:(Json.Obj [ ("session", Json.Int sid); ("dot", Json.Bool dot) ])
    "session.result"

(* A membership query re-executes on the hardware and charges the session
   budget, so it is deliberately NOT resent on a connection failure — the
   caller decides whether double-charging is acceptable. *)
let query_sim c sid word =
  let reply =
    call_core ~retryable:false c
      ~params:
        (Json.Obj [ ("session", Json.Int sid); ("word", Json.of_int_list word) ])
      "query"
  in
  match Json.mem_list "outputs" reply with
  | Some outputs ->
      List.map
        (fun o -> Option.value ~default:"?" (Json.to_str o))
        outputs
  | None -> protocol_error "query reply lacks \"outputs\""

let query_mbl c sid mbl =
  call_core ~retryable:false c
    ~params:(Json.Obj [ ("session", Json.Int sid); ("mbl", Json.String mbl) ])
    "query"

(* Replay is read-only and budget-free server-side, so unlike membership
   queries it is safe to resend after a connection failure. *)
let replay c ?source ~spec sid =
  let params =
    Json.Obj
      ([ ("session", Json.Int sid); ("spec", Json.String spec) ]
      @ opt_field "source" (Option.map (fun s -> Json.String s) source))
  in
  call c ~params "replay"

(* Analysis is likewise read-only and budget-free, hence resendable. *)
let analyze c ?source sid =
  let params =
    Json.Obj
      ([ ("session", Json.Int sid) ]
      @ opt_field "source" (Option.map (fun s -> Json.String s) source))
  in
  call c ~params "analyze"

(* Event stream with transparent resume: remember the last sequence seen
   and resubscribe from there after a reconnect, so a daemon bounce costs
   neither duplicates nor gaps. *)
let events c ?(from = 0) ?(follow = true) sid f =
  let next = ref from in
  let params () =
    Json.Obj
      [
        ("session", Json.Int sid);
        ("from", Json.Int !next);
        ("follow", Json.Bool follow);
      ]
  in
  let handle doc =
    (match Json.mem_int "seq" doc with
    | Some s -> next := s + 1
    | None -> ());
    f doc
  in
  match c.retry with
  | None -> stream_once c ~params:(params ()) "events" handle
  | Some r -> (
      match
        Cq_util.Backoff.retry ~sleep:r.sleep ~seed:r.seed ~policy:r.policy
          ~attempts:r.attempts ~init:None
          (fun ~attempt:_ _ ->
            match stream_once c ~params:(params ()) "events" handle with
            | reply -> `Done reply
            | exception e when is_conn_failure e ->
                Mutex.lock c.m;
                drop c;
                c.request_retries <- c.request_retries + 1;
                Mutex.unlock c.m;
                `Retry (Some e))
      with
      | Ok reply -> reply
      | Error (Some e) -> raise e
      | Error None -> protocol_error "event retry loop yielded nothing")

let shutdown c =
  try ignore (call_core ~retryable:false c "shutdown")
  with Error { kind = "protocol"; _ } | Unix.Unix_error _ -> ()
