(* Structured tracing: cheap hierarchical spans over the whole pipeline
   (learn → polca → frontend → backend), recorded into a bounded in-memory
   ring buffer and exported as JSONL or Chrome trace_event JSON (loadable
   in chrome://tracing and Perfetto).

   Disabled is the default, and the disabled path is a strict no-op: one
   read of a bool flag, no allocation.  Hot paths that want to attach
   arguments guard on [enabled ()] before building the argument list, so
   a run without tracing pays nothing — the engine benchmark asserts its
   access counts are identical with the module compiled in.

   The sink is global rather than threaded through every layer: spans are
   diagnostics, not results, and a per-layer handle would force every
   constructor in the pipeline to grow a parameter.  Recording takes a
   mutex — the daemon's worker threads trace concurrently — and span
   depth is tracked per domain (DLS).

   Timestamps come from [Clock.mono] (CLOCK_MONOTONIC, in microseconds),
   so a wall-clock step under NTP can neither reorder events nor stretch
   a span.  The origin is arbitrary (typically boot), which trace viewers
   do not mind: they lay events out relative to the first one.  Spans
   additionally carry their nesting depth, so ordering never depends on
   timer resolution. *)

type kind = Span | Instant | Counter_sample

type event = {
  kind : kind;
  name : string;
  cat : string;
  ts_us : float; (* start time, microseconds *)
  dur_us : float; (* 0 for instants and counter samples *)
  tid : int; (* domain id *)
  depth : int; (* span nesting depth at record time *)
  args : (string * string) list;
  value : float; (* Counter_sample only *)
}

type sink = {
  buf : event option array;
  mutable head : int; (* next write position *)
  mutable stored : int; (* events currently in the ring *)
  mutable dropped : int; (* events overwritten after overflow *)
  mutable total : int; (* events ever recorded *)
  lock : Mutex.t;
}

let enabled_flag = ref false
let sink : sink option ref = ref None

let default_capacity = 65_536

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  sink :=
    Some
      {
        buf = Array.make capacity None;
        head = 0;
        stored = 0;
        dropped = 0;
        total = 0;
        lock = Mutex.create ();
      };
  enabled_flag := true

let disable () =
  enabled_flag := false;
  sink := None

let enabled () = !enabled_flag

let now_us () = Clock.mono () *. 1e6

(* Per-domain span nesting depth.  Only touched when tracing is enabled. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let record ev =
  match !sink with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      let cap = Array.length s.buf in
      if s.stored = cap then s.dropped <- s.dropped + 1
      else s.stored <- s.stored + 1;
      s.buf.(s.head) <- Some ev;
      s.head <- (s.head + 1) mod cap;
      s.total <- s.total + 1;
      Mutex.unlock s.lock

let domain_id () = (Domain.self () :> int)

let with_span ?(cat = "") ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        depth := d;
        record
          {
            kind = Span;
            name;
            cat;
            ts_us = t0;
            dur_us = now_us () -. t0;
            tid = domain_id ();
            depth = d;
            args;
            value = 0.;
          })
      f
  end

let instant ?(cat = "") ?(args = []) name =
  if !enabled_flag then
    record
      {
        kind = Instant;
        name;
        cat;
        ts_us = now_us ();
        dur_us = 0.;
        tid = domain_id ();
        depth = !(Domain.DLS.get depth_key);
        args;
        value = 0.;
      }

let counter ?(cat = "") name value =
  if !enabled_flag then
    record
      {
        kind = Counter_sample;
        name;
        cat;
        ts_us = now_us ();
        dur_us = 0.;
        tid = domain_id ();
        depth = !(Domain.DLS.get depth_key);
        args = [];
        value;
      }

(* Ring contents in insertion order (oldest surviving event first). *)
let events () =
  match !sink with
  | None -> []
  | Some s ->
      Mutex.lock s.lock;
      let cap = Array.length s.buf in
      let start = (s.head - s.stored + cap) mod cap in
      let out = ref [] in
      for i = s.stored - 1 downto 0 do
        match s.buf.((start + i) mod cap) with
        | Some ev -> out := ev :: !out
        | None -> ()
      done;
      Mutex.unlock s.lock;
      !out

let recorded () = match !sink with None -> 0 | Some s -> s.total
let dropped () = match !sink with None -> 0 | Some s -> s.dropped

let clear () =
  match !sink with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      Array.fill s.buf 0 (Array.length s.buf) None;
      s.head <- 0;
      s.stored <- 0;
      s.dropped <- 0;
      s.total <- 0;
      Mutex.unlock s.lock

(* --- exporters -------------------------------------------------------- *)

(* One event as a Chrome trace_event object.  Spans are complete events
   (ph "X"), instants ph "i" (thread scope), counter samples ph "C". *)
let event_json ev =
  let str s = Json.String s in
  let phase =
    match ev.kind with
    | Span -> [ ("ph", str "X"); ("dur", Json.Float ev.dur_us) ]
    | Instant -> [ ("ph", str "i"); ("s", str "t") ]
    | Counter_sample -> [ ("ph", str "C") ]
  in
  let args =
    match ev.kind with
    | Counter_sample -> [ ("value", Json.Float ev.value) ]
    | Span | Instant ->
        List.map
          (fun (k, v) -> (k, str v))
          (("depth", string_of_int ev.depth) :: ev.args)
  in
  Json.Obj
    ([
       ("name", str ev.name);
       ("cat", str (if ev.cat = "" then "cq" else ev.cat));
     ]
    @ phase
    @ [
        ("ts", Json.Float ev.ts_us);
        ("pid", Json.Int 1);
        ("tid", Json.Int ev.tid);
        ("args", Json.Obj args);
      ])

(* One compact event per line: the Chrome form wraps the lines in an
   array, JSONL leaves them bare. *)
let event_lines () =
  List.map (fun ev -> Json.to_string (event_json ev)) (events ())

let to_chrome_json () =
  "[\n" ^ String.concat ",\n" (event_lines ()) ^ "\n]\n"

let to_jsonl () =
  String.concat "" (List.map (fun l -> l ^ "\n") (event_lines ()))

let export_chrome ~path () = Atomic_file.write ~path (to_chrome_json ())
let export_jsonl ~path () = Atomic_file.write ~path (to_jsonl ())
