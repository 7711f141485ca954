(* Length-prefixed JSON framing for cachequeryd.

   The frame reader is the daemon's first line of defence: it must turn
   every malformed prefix a client can send — garbage bytes, an absurd
   length, a connection dropped mid-frame — into a typed error the
   server can answer and log, never an exception that unwinds a
   connection thread.  The framing fuzzer in test_service drives exactly
   these paths. *)

let max_frame = 4 * 1024 * 1024

type frame_error =
  | Bad_magic of int
  | Oversized of int
  | Truncated of { declared : int; got : int }

let frame_error_to_string = function
  | Bad_magic n -> Printf.sprintf "negative frame length %d (garbage prefix)" n
  | Oversized n ->
      Printf.sprintf "frame length %d exceeds the %d-byte maximum" n max_frame
  | Truncated { declared; got } ->
      Printf.sprintf "connection closed %d bytes into a %d-byte frame" got
        declared

type read_result = Frame of string | Eof | Bad of frame_error

(* Read exactly [n] bytes; [Ok 0 <= got < n] means EOF cut the read
   short.  EINTR retries; other errors read as a dead peer. *)
let really_read fd buf n =
  let rec go off =
    if off >= n then n
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> off
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> off
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 4 with
  | 0 -> Eof
  (* A partial length prefix: the peer died inside the 4-byte header. *)
  | k when k < 4 -> Bad (Truncated { declared = 4; got = k })
  | _ ->
      let len =
        (Char.code (Bytes.get hdr 0) lsl 24)
        lor (Char.code (Bytes.get hdr 1) lsl 16)
        lor (Char.code (Bytes.get hdr 2) lsl 8)
        lor Char.code (Bytes.get hdr 3)
      in
      (* Interpret the 32-bit field as signed so 0xFFFFFFFF reads as -1,
         not 4 GiB: a negative length can only be garbage. *)
      let len = if len land 0x80000000 <> 0 then len - (1 lsl 32) else len in
      if len < 0 then Bad (Bad_magic len)
      else if len > max_frame then Bad (Oversized len)
      else begin
        (* Chaos seam: a bounded stall between header and payload — the
           shape of a peer wedged mid-frame — exercising reader-side
           patience without ever hanging the connection thread. *)
        if Cq_util.Faults.ambient_fire "frame.read.stall" then
          Unix.sleepf 0.05;
        let payload = Bytes.create len in
        let got = really_read fd payload len in
        if got < len then Bad (Truncated { declared = len; got })
        else Frame (Bytes.unsafe_to_string payload)
      end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Protocol.write_frame: %d-byte payload exceeds max_frame"
         len);
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set buf 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 buf 4 len;
  let total = 4 + len in
  let rec go limit off =
    if off < limit then
      match Unix.write fd buf off (limit - off) with
      | k -> go limit (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go limit off
  in
  (* Chaos seam: a torn write emits a strict prefix of the frame and then
     fails like a dropped peer would — the reader ends up with a typed
     [Truncated], the writer with an injected exception. *)
  if Cq_util.Faults.ambient_fire "frame.write.torn" then begin
    go (max 1 (total / 2)) 0;
    raise
      (Cq_util.Faults.Injected
         { site = "frame.write.torn"; detail = "frame write torn mid-payload" })
  end
  else go total 0

type request = { id : Json.t; verb : string; params : Json.t }

let request_of_json j =
  match j with
  | Json.Obj _ -> (
      match Json.mem_str "verb" j with
      | None -> Error "request object lacks a string \"verb\" field"
      | Some verb ->
          let id = Option.value ~default:Json.Null (Json.member "id" j) in
          let params =
            Option.value ~default:Json.Null (Json.member "params" j)
          in
          Ok { id; verb; params })
  | _ -> Error "request is not a JSON object"

let with_id id fields =
  match id with
  | None | Some Json.Null -> fields
  | Some id -> ("id", id) :: fields

let ok ?id fields = Json.Obj (("ok", Json.Bool true) :: with_id id fields)

let error ?id ~kind message =
  Json.Obj
    (("ok", Json.Bool false)
    :: with_id id
         [
           ( "error",
             Json.Obj
               [ ("kind", Json.String kind); ("message", Json.String message) ]
           );
         ])

let event fields = Json.Obj (("event", Json.Bool true) :: fields)

let send fd doc = write_frame fd (Json.to_string doc)

