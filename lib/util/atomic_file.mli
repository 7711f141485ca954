(** Atomic whole-file replacement (write temp sibling + fsync + rename),
    durable appends, and tolerant reads.  Used for learning-session
    snapshots and benchmark result files, which must never be observable
    half-written: a replaced file is never torn, and an appended record
    is never observed torn by a reader that frames and checksums its
    records — a crash mid-append leaves only a torn tail to drop. *)

type stage = Create | Write | Fsync | Rename

val stage_to_string : stage -> string

exception Write_error of { path : string; stage : stage; reason : string }
(** The one failure shape of {!write}: which stage failed and the errno
    text.  The temp sibling has been unlinked by the time it is raised. *)

val write : path:string -> string -> unit
(** Replace [path] with [content] atomically: readers observe either the
    previous complete file or the new one.  Any I/O failure — including
    fsync, which is not swallowed — raises {!Write_error} with the temp
    sibling removed.

    Exception: when the ["atomic_file.rename"] fault site is armed (see
    {!Faults}), a simulated crash between the durable temp write and the
    rename raises {!Faults.Injected} and deliberately leaves the temp
    file behind, exactly as a real crash would. *)

val append : path:string -> string -> unit
(** Append [content] to the existing file [path] and fsync it.  Not
    atomic: a crash mid-append leaves a prefix of [content] at the end
    of the file.  Any I/O failure raises {!Write_error} ([Create] when
    [path] cannot be opened — it is never created — [Write] or [Fsync])
    after truncating the file back to its previous length.  Fault sites
    ["atomic_file.append"] (ENOSPC after half the bytes) and
    ["atomic_file.append_fsync"] (EIO at fsync). *)

val read_opt : path:string -> string option
(** Whole-file read; [None] when the file is missing or unreadable (a
    previous run was interrupted before producing it). *)

