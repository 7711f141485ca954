(** Structured tracing: hierarchical spans recorded into a bounded ring
    buffer, exported as JSONL or Chrome [trace_event] JSON (loadable in
    [chrome://tracing] and Perfetto).

    Tracing is globally off by default, and the disabled path is a strict
    no-op — one bool read, no allocation.  Call sites that build argument
    lists guard on {!enabled} first, so hot paths pay nothing without a
    sink.  Recording is thread- and domain-safe, and span nesting depth
    is tracked per domain. *)

type kind = Span | Instant | Counter_sample

type event = {
  kind : kind;
  name : string;
  cat : string;
  ts_us : float;  (** start time, microseconds (gettimeofday epoch) *)
  dur_us : float;  (** 0 for instants and counter samples *)
  tid : int;  (** recording domain's id *)
  depth : int;  (** span nesting depth at record time *)
  args : (string * string) list;
  value : float;  (** [Counter_sample] only *)
}

val enable : ?capacity:int -> unit -> unit
(** Install a fresh sink with a ring buffer of [capacity] events
    (default 65536, oldest events overwritten on overflow) and turn
    tracing on. *)

val disable : unit -> unit
val enabled : unit -> bool

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span covering its execution.
    The span is recorded (at the depth where it started) even when [f]
    raises.  When tracing is disabled this is exactly [f ()]. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
val counter : ?cat:string -> string -> float -> unit

val events : unit -> event list
(** Ring contents, oldest surviving event first.  [[]] when disabled. *)

val recorded : unit -> int
(** Events ever recorded into the current sink (including overwritten
    ones); 0 when disabled. *)

val dropped : unit -> int
(** Events overwritten after ring overflow; 0 when disabled. *)

val clear : unit -> unit

val to_chrome_json : unit -> string
(** The ring as one Chrome [trace_event] JSON array: spans as complete
    events (ph ["X"]), instants ph ["i"], counter samples ph ["C"]. *)

val to_jsonl : unit -> string
(** The ring as one JSON object per line (same objects as
    {!to_chrome_json}). *)

val export_chrome : path:string -> unit -> unit
val export_jsonl : path:string -> unit -> unit
