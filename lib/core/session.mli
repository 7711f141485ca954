(** Durable learning sessions: versioned on-disk snapshots of learning
    progress, kept as a base snapshot plus an append-only log of the
    answers learned since, so a crash at any instant leaves a loadable
    file behind.

    A snapshot carries the membership oracle's prefix-trie contents, the
    L* observation table and the run metadata (PRNG seed, calibration
    state).  Resuming preloads the trie and replays the learner
    deterministically: every previously answered query is served locally,
    so the resumed run reaches the crash point at zero hardware cost and
    then continues — producing the {e identical} automaton a crash-free
    run would have produced.

    File layout: a base ({!save}: magic, version byte, MD5 digest and
    length of a [Marshal] payload) written atomically, followed by
    length-prefixed, checksummed records ({!append}), each carrying the
    trie mutations since the previous write and the hardware query count
    at that point.  A crash mid-append tears at most the last record,
    which {!load} drops; readers never observe a torn record. *)

exception Corrupt of string
(** The file is not a loadable snapshot: missing, truncated base, wrong
    magic, incompatible format version, digest mismatch, an undecodable
    payload, or a damaged log record with more bytes behind it.  The
    message says which. *)

val version : int
(** Current snapshot format version (written into the header; {!load}
    rejects files written by other versions). *)

type meta = {
  version : int;  (** format version the snapshot was written with *)
  label : string;  (** human-readable run label ("" when unset) *)
  created : float;  (** Unix time of the write *)
  queries : int;  (** hardware queries answered when it was written *)
  seed : int option;  (** PRNG seed of the run (reset discovery replay) *)
  calibration : Cq_cachequery.Backend.calibration option;
      (** backend calibration state, restored instead of re-measuring *)
}

type 'o snapshot = {
  meta : meta;
  knowledge : 'o Cq_learner.Moracle.knowledge;  (** prefix-trie dump *)
  table : 'o Cq_learner.Lstar.table_state option;
      (** observation table at snapshot time *)
}

val make_meta :
  ?label:string ->
  ?seed:int ->
  ?calibration:Cq_cachequery.Backend.calibration ->
  queries:int ->
  unit ->
  meta

val save : path:string -> 'o snapshot -> unit
(** Write [snap] as a base (magic + version + MD5 digest + payload length
    + [Marshal] payload), atomically: tmp sibling, fsync, rename.  Readers
    never observe a torn base; a crash mid-write leaves the previous file
    intact.  Replaces any log the file carried. *)

val write_base : path:string -> 'o snapshot -> int
(** As {!save}; returns the bytes written. *)

val append :
  path:string -> queries:int -> 'o Cq_learner.Moracle.knowledge -> int
(** Append one log record to the base at [path] and fsync it: the trie
    mutations since the previous write, in order, and the hardware query
    count [queries] that {!load} reports once the record is the last one.
    Returns the bytes written.  Failures raise
    {!Cq_util.Atomic_file.Write_error} with the file truncated back to
    its previous length. *)

val load : path:string -> 'o snapshot
(** Read and verify a snapshot: the base, then each record in order,
    applied with [insert_force] semantics; [meta.queries] and
    [meta.created] come from the last good record.  A damaged last record
    is a torn tail and is dropped (its answers are re-queried on resume).
    @raise Corrupt on any other damage (see {!exception-Corrupt}). *)

val load_opt : path:string -> 'o snapshot option
(** [None] when the file does not exist; still @raise Corrupt when it
    exists but is damaged — a damaged snapshot is an error to surface, not
    an absence to paper over. *)

val pp_meta : Format.formatter -> meta -> unit
