(** cq-client: the client side of the cachequeryd protocol.

    A synchronous wrapper: one {!call} sends a frame and blocks on the
    reply (the daemon answers requests on a connection in order).  Error
    replies raise {!Error} with the daemon's typed kind, so tests and
    scripts can match on ["busy"] / ["budget_exhausted"] / ... without
    string-scraping messages.

    Resilience is opt-in via {!retry}.  A client connected with
    [~retry] owns its dialer and transparently heals connection
    failures: requests that hit a dead socket (or a typed ["busy"] /
    ["degraded"] rejection) redial with jittered-exponential backoff and
    resend; the mutating verbs ([session.create], [learn.start]) carry
    auto-generated idempotency keys so a resend across a daemon
    failover replays the original success instead of double-creating;
    and {!events} resubscribes from the last sequence number it saw, so
    a daemon bounce costs neither duplicate nor dropped events.
    Membership queries are the exception: they charge the session's
    query budget server-side, so they are never resent automatically. *)

type t

type retry
(** Reconnect/retry configuration — see {!val-retry}. *)

val retry :
  ?attempts:int ->
  ?policy:Cq_util.Backoff.policy ->
  ?sleep:(float -> unit) ->
  ?seed:int ->
  unit ->
  retry
(** Defaults: 5 attempts per operation, decorrelated-jitter backoff
    (base 20 ms, cap 1 s), [Unix.sleepf].  Inject [sleep] and [seed] in
    tests for deterministic, wall-clock-free retries. *)

exception Error of { kind : string; message : string }
(** A [{"ok": false}] reply, or a framing failure ([kind] = ["protocol"])
    — e.g. the daemon closed the connection mid-reply. *)

val connect_unix : ?retry:retry -> string -> t

val close : t -> unit

val reconnects : t -> int
(** Successful re-dials after a lost connection (0 without [~retry]). *)

val request_retries : t -> int
(** Requests resent after a connection failure or typed
    ["busy"]/["degraded"] shedding (0 without [~retry]). *)

val call : t -> ?params:Json.t -> string -> Json.t
(** [call c verb] sends one request and returns the [ok] reply document.
    Raises {!Error} on an error reply.  With [~retry], connection
    failures and ["busy"]/["degraded"] rejections are retried with
    backoff before the last error is re-raised. *)

val stream : t -> ?params:Json.t -> string -> (Json.t -> unit) -> Json.t
(** [stream c verb f] — for streaming verbs (["events"]): sends the
    request, returns the initial [ok] reply after feeding every streamed
    event frame to [f], until the terminal [{"type": "end"}] frame
    (exclusive).  Note the reply is read {e first}, then the stream.
    No automatic resume at this layer — use {!events} for that. *)

(** {1 Convenience wrappers} *)

val ping : t -> Json.t

val health : t -> Json.t
(** The daemon's [health] document: overall status, circuit-breaker
    state/trips/rejections, gate depth, inflight learns, snapshot-disk
    headroom, armed fault sites. *)

val create_sim :
  t -> ?name:string -> ?query_budget:int -> policy:string -> assoc:int -> unit -> int
(** Returns the new session id. *)

val create_hw :
  t ->
  ?name:string ->
  ?query_budget:int ->
  ?seed:int ->
  ?noise:string ->
  cpu:string ->
  level:string ->
  set:int ->
  unit ->
  int
(** [noise] names a hwsim preset: ["quiet"] (default), ["default"],
    ["burst"], ["drift"]. *)

val learn_start :
  t -> ?resume:bool -> ?kill_after_queries:int -> ?query_budget:int -> int -> unit

val learn_wait : t -> ?timeout_s:float -> int -> Json.t
(** Block until the session's learn reaches a terminal state (or the
    timeout); returns the status document. *)

val learn_cancel : t -> int -> unit

val status : t -> int -> Json.t

val result : t -> ?dot:bool -> int -> Json.t
(** The completed learn's [{digest; states; dot?}]; raises {!Error}
    [no_result] otherwise. *)

val query_sim : t -> int -> int list -> string list
(** Membership query on a sim session: outputs as labels (["⊥"] / line
    indices), one per input symbol.  Never auto-resent: a query spends
    session budget server-side, so a retry could double-charge. *)

val query_mbl : t -> int -> string -> Json.t
(** MBL query on a hw session; returns the reply document.  Never
    auto-resent (see {!query_sim}). *)

val replay : t -> ?source:string -> spec:string -> int -> Json.t
(** [replay c ~spec sid] evaluates a workload trace spec on a sim
    session, returning the reply document [{spec; trace; source;
    accesses; hits; misses; hit_rate; opt_hits; opt_hit_rate}].
    [source] is ["auto"] (default: the learned machine when one exists,
    else the policy), ["policy"], or ["learned"].  Replay is read-only
    and does not charge the query budget. *)

val analyze : t -> ?source:string -> int -> Json.t
(** [analyze c sid] runs the static security analysis
    ({!Cq_analysis.Attack}) over a sim session's policy automaton — the
    learned machine when one exists and [source] permits — with every
    synthesized sequence dynamically verified server-side.  Returns the
    reply document [{source; policy; assoc; states; eviction_set_size;
    eviction_length; probe_classes; evicted_information; absorbed_noise;
    residual_information; verified; stealthy_length?;
    stealthy_repeatable?}].  [source] as in {!replay}.  Read-only,
    budget-free. *)

val events : t -> ?from:int -> ?follow:bool -> int -> (Json.t -> unit) -> Json.t
(** [events c sid f] subscribes to the session's event stream, feeding
    each event document to [f].  With [~retry], a connection failure
    mid-stream reconnects and resubscribes from the last sequence seen
    (tracked via each event's ["seq"] field), resuming without
    duplicates.  [follow] defaults to [true]. *)

val shutdown : t -> unit
(** Ask the daemon to stop; tolerates the connection dying right after. *)
