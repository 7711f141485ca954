(* Atomic file replacement: write to a sibling temp file, fsync, rename;
   and durable appends to a file so replaced.

   Snapshots of multi-hour learning campaigns and benchmark result files
   must never be observable half-written — a crash between [open] and the
   final [write] would otherwise destroy the previous good copy along with
   the new one.  POSIX [rename] over the destination is atomic, so readers
   see either the old complete file or the new complete file, never a
   torn one.  [append] is not atomic: a crash mid-append leaves a prefix
   of the new bytes at the end of the file, so whatever is appended must
   be framed and checksummed by its reader's format (session log records
   are) — readers never observe a torn record, only a torn tail they can
   recognise and drop.

   Failure contract: any I/O failure surfaces as the typed {!Write_error}
   (stage + errno text) with the temp sibling unlinked — or, for
   [append], the file truncated back to its previous length — so a full
   disk degrades a snapshot instead of littering the state dir with
   [*.tmp] files and killing the learn with a raw [Unix_error].  The
   fsync outcome is part of that contract — a snapshot that never reached
   stable storage must not be reported as written.

   Fault sites (armed via [Faults], inert otherwise):
   - "atomic_file.write"  — ENOSPC while writing the temp sibling
   - "atomic_file.fsync"  — EIO at fsync
   - "atomic_file.rename" — simulated crash between the durable temp
     write and the rename: the temp file is deliberately left behind
     (as a real crash would leave it) and [Faults.Injected] escapes
   - "atomic_file.append" — ENOSPC after half of an appended record
   - "atomic_file.append_fsync" — EIO at the append's fsync *)

type stage = Create | Write | Fsync | Rename

let stage_to_string = function
  | Create -> "create"
  | Write -> "write"
  | Fsync -> "fsync"
  | Rename -> "rename"

exception Write_error of { path : string; stage : stage; reason : string }

let () =
  Printexc.register_printer (function
    | Write_error { path; stage; reason } ->
        Some
          (Printf.sprintf "Atomic_file.Write_error(%s at %s: %s)" path
             (stage_to_string stage) reason)
    | _ -> None)

let write ~path content =
  let tmp = path ^ ".tmp" in
  let typed stage reason = raise (Write_error { path; stage; reason }) in
  let oc =
    try open_out_bin tmp with Sys_error reason -> typed Create reason
  in
  let cleanup () =
    close_out_noerr oc;
    try Sys.remove tmp with Sys_error _ -> ()
  in
  (try
     if Faults.ambient_fire "atomic_file.write" then
       raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp));
     output_string oc content;
     flush oc;
     (* Push the bytes to stable storage before the rename makes them the
        authoritative copy; a metadata-only crash window would otherwise
        leave a zero-length "snapshot". *)
     if Faults.ambient_fire "atomic_file.fsync" then
       raise (Unix.Unix_error (Unix.EIO, "fsync", tmp));
     Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | Sys_error reason ->
      cleanup ();
      typed Write reason
  | Unix.Unix_error (e, op, _) ->
      cleanup ();
      typed (if op = "fsync" then Fsync else Write) (Unix.error_message e));
  (try close_out oc
   with Sys_error reason ->
     (try Sys.remove tmp with Sys_error _ -> ());
     typed Write reason);
  (* The crash-simulation point: the temp sibling is durable, the rename
     has not happened.  A real crash here leaves the tmp file; so do we. *)
  Faults.ambient_inject ~detail:"crash between tmp write and rename"
    "atomic_file.rename";
  try Sys.rename tmp path
  with Sys_error reason ->
    (try Sys.remove tmp with Sys_error _ -> ());
    typed Rename reason

let append ~path content =
  let typed stage reason = raise (Write_error { path; stage; reason }) in
  (* No O_CREAT: appending to a missing file would start a log without
     the base it extends. *)
  let fd =
    try Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) -> typed Create (Unix.error_message e)
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  try
    let n = String.length content in
    if Faults.ambient_fire "atomic_file.append" then begin
      (* A full disk mid-record: half the bytes land, then ENOSPC. *)
      ignore (Unix.write_substring fd content 0 (n / 2));
      raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
    end;
    ignore (Unix.write_substring fd content 0 n);
    if Faults.ambient_fire "atomic_file.append_fsync" then
      raise (Unix.Unix_error (Unix.EIO, "fsync", path));
    Unix.fsync fd
  with Unix.Unix_error (e, op, _) ->
    (* Drop the partial record, so the next append does not land behind
       garbage; if even that fails, the reader sees a torn tail. *)
    (try Unix.ftruncate fd size with Unix.Unix_error _ -> ());
    typed (if op = "fsync" then Fsync else Write) (Unix.error_message e)

let read_opt ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> Some content
  | exception Sys_error _ -> None

