(* Durable learning sessions: versioned on-disk snapshots of learning
   progress.

   A snapshot carries everything a resumed run needs to reproduce the
   crashed run *exactly*:

   - the membership oracle's prefix-trie contents (every (word, outputs)
     pair the hardware ever answered) — on resume the trie is preloaded
     and the learner replays deterministically, with known queries served
     locally at zero hardware cost;
   - the L* observation table (E, S, cached rows) — rows are a pure
     function of the oracle, so re-seeding the row cache skips
     recomputation without changing what is learned;
   - run metadata: the PRNG seed (reset discovery must re-derive the same
     reset sequence) and the backend's calibration state (a resumed run
     must classify latencies exactly like the crashed one).

   File format: a base snapshot followed by appended log records.

   - The base is a fixed header — magic, one version byte, the MD5 digest
     of the payload, the payload's length (8 bytes, little-endian) —
     followed by a [Marshal]ed {!snapshot}.  The digest catches
     truncation and bit rot before [Marshal.from_string] can misbehave on
     them; the version byte rejects snapshots from incompatible builds.
     The base is written through {!Cq_util.Atomic_file.write} (tmp +
     fsync + rename), which also drops any log the file carried.
   - Each record is the payload length (4 bytes) and its bitwise
     complement (4 bytes), the payload's MD5, and a [Marshal]ed
     {!record}: the trie mutations since the previous write, in order,
     and the hardware query count at its write.  Records are appended
     with {!Cq_util.Atomic_file.append} and applied on load, in order,
     with [insert_force] semantics.

   A crash mid-append leaves a torn tail: a damaged last record, which
   [load] drops (its answers are re-queried on resume).  A damaged record
   with more bytes behind it is not something a crash produces, and
   raises [Corrupt].  Readers never observe a torn record. *)

exception Corrupt of string

let magic = "CQSNAP"
let version = 2

(* magic + version byte + 16-byte MD5 digest + 8-byte payload length *)
let header_len = String.length magic + 1 + 16 + 8

(* payload length + its complement (4 bytes each) + 16-byte MD5 digest *)
let record_header_len = 4 + 4 + 16

type meta = {
  version : int;  (* mirrors the header byte, for programmatic checks *)
  label : string;
  created : float; (* Unix time the snapshot was written *)
  queries : int; (* hardware queries answered when it was written *)
  seed : int option;
  calibration : Cq_cachequery.Backend.calibration option;
}

type 'o snapshot = {
  meta : meta;
  knowledge : 'o Cq_learner.Moracle.knowledge;
  table : 'o Cq_learner.Lstar.table_state option;
}

type 'o record = {
  r_queries : int;
  r_created : float;
  r_entries : 'o Cq_learner.Moracle.knowledge;
}

let make_meta ?(label = "") ?seed ?calibration ~queries () =
  { version; label; created = Cq_util.Clock.now (); queries; seed; calibration }

(* Every durable write, base or record, is one "session.save" span
   carrying its byte count. *)
let traced_write ~bytes write =
  if Cq_util.Trace.enabled () then
    Cq_util.Trace.with_span ~cat:"session"
      ~args:[ ("bytes", string_of_int bytes) ]
      "session.save" write
  else write ()

let encode snap =
  let payload = Marshal.to_string snap [] in
  let buf = Buffer.create (header_len + String.length payload) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let write_base ~path snap =
  let encoded = encode snap in
  let bytes = String.length encoded in
  traced_write ~bytes (fun () -> Cq_util.Atomic_file.write ~path encoded);
  bytes

let save ~path snap = ignore (write_base ~path snap : int)

let encode_record r =
  let payload = Marshal.to_string r [] in
  let len = String.length payload in
  let buf = Buffer.create (record_header_len + len) in
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (Int32.of_int (len lxor 0xFFFF_FFFF));
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let append ~path ~queries entries =
  let encoded =
    encode_record
      { r_queries = queries; r_created = Cq_util.Clock.now (); r_entries = entries }
  in
  let bytes = String.length encoded in
  traced_write ~bytes (fun () -> Cq_util.Atomic_file.append ~path encoded);
  bytes

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let unmarshal ~path what s pos =
  match Marshal.from_string s pos with
  | v -> v
  | exception (Failure _ | Invalid_argument _) ->
      corrupt "%s: %s does not unmarshal" path what

(* The records after the base, newest first, up to a torn tail. *)
let decode_records ~path s pos =
  let len = String.length s in
  let u32 at = Int32.to_int (String.get_int32_le s at) land 0xFFFF_FFFF in
  let rec go pos acc =
    let rest = len - pos in
    if rest < record_header_len then acc (* end of file, or a torn header *)
    else
      let plen = u32 pos in
      if u32 (pos + 4) <> plen lxor 0xFFFF_FFFF then
        corrupt "%s: damaged log record header at byte %d" path pos;
      let start = pos + record_header_len in
      let next = start + plen in
      if next > len then acc (* torn payload *)
      else if Digest.substring s start plen <> String.sub s (pos + 8) 16 then
        if next = len then acc (* damaged last record: torn tail *)
        else corrupt "%s: log record digest mismatch at byte %d" path pos
      else go next (unmarshal ~path "log record" s start :: acc)
  in
  go pos []

let decode ~path s =
  let mlen = String.length magic in
  if String.length s < header_len then
    corrupt "%s: truncated snapshot (%d bytes, header needs %d)" path
      (String.length s) header_len;
  if String.sub s 0 mlen <> magic then
    corrupt "%s: not a CacheQuery snapshot (bad magic)" path;
  let v = Char.code s.[mlen] in
  if v <> version then
    corrupt "%s: snapshot format version %d, this build reads version %d" path
      v version;
  let digest = String.sub s (mlen + 1) 16 in
  let base_len = String.get_int64_le s (mlen + 17) in
  if
    Int64.compare base_len 0L < 0
    || Int64.compare base_len (Int64.of_int (String.length s - header_len)) > 0
  then
    corrupt "%s: truncated snapshot payload (%Ld bytes declared, %d present)"
      path base_len
      (String.length s - header_len);
  let base_len = Int64.to_int base_len in
  if Digest.substring s header_len base_len <> digest then
    corrupt "%s: snapshot digest mismatch (truncated or corrupted payload)"
      path;
  let base : _ snapshot = unmarshal ~path "snapshot payload" s header_len in
  match decode_records ~path s (header_len + base_len) with
  | [] -> base
  | last :: _ as newest_first ->
      {
        base with
        meta =
          { base.meta with queries = last.r_queries; created = last.r_created };
        knowledge =
          Cq_learner.Moracle.knowledge_concat
            (base.knowledge :: List.rev_map (fun r -> r.r_entries) newest_first);
      }

let load ~path =
  match Cq_util.Atomic_file.read_opt ~path with
  | None -> corrupt "%s: no such snapshot" path
  | Some s ->
      (fun run ->
        if Cq_util.Trace.enabled () then
          Cq_util.Trace.with_span ~cat:"session"
            ~args:[ ("bytes", string_of_int (String.length s)) ]
            "session.load" run
        else run ())
      @@ fun () -> decode ~path s

let load_opt ~path =
  match Cq_util.Atomic_file.read_opt ~path with
  | None -> None
  | Some s -> Some (decode ~path s)

let pp_meta ppf m =
  Fmt.pf ppf "%s%d queries, seed %s, threshold %s"
    (if m.label = "" then "" else m.label ^ ": ")
    m.queries
    (match m.seed with Some s -> string_of_int s | None -> "-")
    (match m.calibration with
    | Some c -> string_of_int c.Cq_cachequery.Backend.cal_threshold ^ "c"
    | None -> "-")
