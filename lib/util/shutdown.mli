(** Signal-aware shutdown: keep the [at_exit]-registered observability
    exports (trace, metrics) from being lost to an unhandled
    SIGINT/SIGTERM. *)

val exit_on_signals : ?signals:int list -> unit -> unit
(** Install handlers (for [signals], default SIGINT and SIGTERM) that
    call [exit (128 + signal number)] — the shell convention — running
    every [at_exit] hook, so trace/metrics files are flushed — instead of
    the default disposition (die without unwinding).  One-shot CLIs use
    this. *)

val notify_on_signals : ?signals:int list -> (int -> unit) -> unit
(** Install [f] as the handler for [signals].  Long-running servers use
    this to run their own graceful path (stop accepting, snapshot live
    sessions) before exiting; the handler runs at the runtime's next safe
    point in the main thread. *)
