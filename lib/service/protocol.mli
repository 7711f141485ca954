(** The cachequeryd wire protocol: length-prefixed JSON frames.

    Every message — request, reply, streamed event — is one frame: a
    4-byte big-endian payload length followed by that many bytes of JSON.
    The length is bounded by {!max_frame}; a peer announcing more (or a
    negative length, which can only arise from garbage) is answered with
    a typed [bad_frame] error and disconnected, never crashed on.

    Requests are objects [{"verb": ..., "id"?: ..., "params"?: {...}}].
    Replies echo the request's [id] and carry ["ok": true] plus
    verb-specific fields, or ["ok": false] with an ["error"] object
    [{"kind": ..., "message": ...}].  Error kinds are closed — see
    {!section-kinds}. *)

val max_frame : int
(** Maximum payload bytes per frame (4 MiB). *)

type frame_error =
  | Bad_magic of int  (** declared length is negative — garbage prefix *)
  | Oversized of int  (** declared length exceeds {!max_frame} *)
  | Truncated of { declared : int; got : int }
      (** the peer closed the connection mid-frame *)

val frame_error_to_string : frame_error -> string

type read_result = Frame of string | Eof | Bad of frame_error

val read_frame : Unix.file_descr -> read_result
(** Read one frame.  [Eof] is a clean close {e between} frames; a close
    inside a frame is [Bad (Truncated _)].  Retries [EINTR]; any other
    [Unix_error] surfaces as [Eof] (the connection is gone either way). *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame.  Raises [Invalid_argument] if the payload exceeds
    {!max_frame}; [Unix_error]s (peer gone) propagate to the caller. *)

(** {1 Requests} *)

type request = {
  id : Json.t;  (** echoed verbatim in the reply; [Null] if absent *)
  verb : string;
  params : Json.t;  (** [Null] if absent *)
}

val request_of_json : Json.t -> (request, string) result

(** {1:kinds Replies}

    Error kinds the daemon emits: [bad_frame], [bad_json], [bad_request],
    [unknown_verb], [unknown_session], [busy], [budget_exhausted],
    [no_result], [shutting_down], [error] (internal). *)

val ok : ?id:Json.t -> (string * Json.t) list -> Json.t
(** [{"ok": true, "id": id, ...fields}]. *)

val error : ?id:Json.t -> kind:string -> string -> Json.t
(** [{"ok": false, "id": id, "error": {"kind": kind, "message": msg}}]. *)

val event : (string * Json.t) list -> Json.t
(** A streamed event frame: [{"event": true, ...fields}] — distinguished
    from replies by the absence of ["ok"]. *)

val send : Unix.file_descr -> Json.t -> unit
(** [write_frame] of the serialized document. *)

