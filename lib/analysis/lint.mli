(** A small lint pass over this repository's own OCaml sources, looking
    for hazard patterns the project has already been bitten by:

    - [hashtbl-add]: [Hashtbl.add] where [Hashtbl.replace] is almost
      always meant — [add] silently stacks bindings, which turned the
      frontend's query memo into a leak until PR 2 fixed it;
    - [wall-clock]: direct [Unix.gettimeofday] / [Sys.time] reads outside
      [Cq_util.Clock] — deadlines and drift detection must share one
      clock so they can be reasoned about (and faked) together;
    - [marshal-unvalidated]: a file that [Marshal.from_*]s untrusted
      bytes without any [Digest] validation in sight — snapshots are
      re-read across versions, and a stale marshal segfaults;
    - [domain-shared-state]: [ref] cells and [Hashtbl.create] in files
      that [Domain.spawn] — shared mutable state across domains belongs
      behind [Atomic] (or a clear single-writer discipline);
    - [hot-loop-alloc]: List combinators and [fun] closures inside a
      hot-loop region — bracketed by standalone ["hot-loop"] /
      ["end hot-loop"] marker comments with the usual [cq-lint:]
      prefix (spelled out in {!Lint.hot_regions}; repeating the exact
      text here would mark this very file).  The compiled-evaluator
      paths in [Cq_automata.Mealy] are marked: they run once per
      conformance-suite word, so an allocation there multiplies by
      millions.  Allocation in a marked region is not forbidden — it
      must carry a written justification
      ([cq-lint: allow hot-loop-alloc — ...]), making every such site
      an audited decision rather than an accident;
    - [stray-artifact]: scratch/snapshot runtime state ([wl-scratch-*]
      directories, [*.snap] learning-session snapshots) sitting under a
      linted path — PR 9 accidentally committed one; the fix is
      deletion (plus [.gitignore]), so this rule has no allow;
    - [dead-export]: a [val] in a library interface ([.mli] under a
      [lib] directory) whose name no file outside its own module
      mentions as a whole word — an export nobody imports is API
      surface kept alive for nothing.  Cross-file: see {!dead_exports}.

    Matching is over comment- and string-stripped source text, so
    mentioning a pattern in a docstring (as this one just did, four
    times) is fine.  A finding is suppressed by an annotation on the same
    line or the line above:

    {[ (* cq-lint: allow hashtbl-add — fresh key, guarded by mem above *) ]}

    The rule name must follow [cq-lint: allow], and a free-form
    justification must follow the rule name — a bare
    [cq-lint: allow <rule>] with no stated reason does not suppress
    (writing the reason is the point). *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;
  excerpt : string;  (** the offending source line, trimmed *)
  message : string;
}

val rules : (string * string) list
(** Rule names with one-line descriptions. *)

val lint_source : file:string -> string -> finding list
(** Lint source text directly ([file] is used for reporting only). *)

val dead_exports :
  ?refs:(string * string) list -> (string * string) list -> finding list
(** [dead_exports ~refs sources] runs the [dead-export] rule over
    [(file, text)] pairs: every [val] of a [lib] interface among
    [sources] that no other module of [sources] or [refs] mentions is a
    finding.  [refs] only count as references, they are not linted.
    Meaningful when the two together cover every file that may import a
    library value. *)

val lint_paths : ?refs:string list -> string list -> finding list
(** Lint every [.ml]/[.mli] under the given files/directories
    (directories are walked recursively, skipping [_build] and
    dot-directories), sorted by file then line.  Non-source files are
    not read, but scratch/snapshot artifacts encountered during the
    walk are reported under [stray-artifact].  The [.ml]/[.mli] files
    under [refs] (default none) count as references for [dead-export]
    without being linted themselves. *)

val pp_finding : Format.formatter -> finding -> unit

val report_json : finding list -> string
(** The findings as a JSON array of
    [{"file", "line", "rule", "message", "excerpt"}] objects. *)
