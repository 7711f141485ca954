(* Self-analysis: lexical hazard patterns over the repo's own sources.

   The matcher works on a *stripped* copy of each file — comments, string
   literals, char literals and quoted-string literals blanked out, line
   structure preserved — produced by a small OCaml lexer below.  That
   keeps the rules dumb (substring tests per line) without false
   positives from documentation.  Suppressions are ordinary comments
   ([cq-lint: allow <rule>] on the offending line or the one above), so
   they survive in the raw text the stripper erased and double as
   documentation of why the pattern is safe at that site. *)

type finding = {
  file : string;
  line : int;
  rule : string;
  excerpt : string;
  message : string;
}

let rules =
  [
    ( "hashtbl-add",
      "Hashtbl.add silently stacks bindings; use Hashtbl.replace unless \
       shadowing is intended" );
    ( "wall-clock",
      "direct wall-clock read; route through Cq_util.Clock so deadlines \
       and drift share one clock" );
    ( "marshal-unvalidated",
      "Marshal.from_* without Digest validation anywhere in the file; \
       stale bytes segfault" );
    ( "domain-shared-state",
      "mutable state in a Domain.spawn-ing file; share via Atomic or \
       document the single-writer discipline" );
    ( "hot-loop-alloc",
      "allocation in a hot-loop region (List combinator or closure); \
       hoist it out of the loop or audit it with an allow" );
    ( "stray-artifact",
      "scratch/snapshot artifact in the source tree; runtime state \
       (wl-scratch-* dirs, *.snap session snapshots) must stay out of \
       version control" );
    ( "dead-export",
      "lib/ interface value that no file outside its module references; \
       delete it, or drop it from the .mli if its module uses it" );
  ]

(* --- Stripping --------------------------------------------------------- *)

(* Blank out comments (nested, and the strings nested inside them), string
   literals, quoted-string literals ({id|...|id}) and char literals,
   preserving newlines so line numbers survive. *)
let strip src =
  let n = String.length src in
  let buf = Bytes.of_string src in
  let blank i = if Bytes.get buf i <> '\n' then Bytes.set buf i ' ' in
  let blank_range i j =
    for k = i to min j (n - 1) do
      blank k
    done
  in
  let rec code i =
    if i >= n then ()
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
          blank_range i (i + 1);
          comment 1 (i + 2)
      | '"' -> string `Code (i + 1)
      | '{' -> (
          (* {id|...|id} quoted strings. *)
          let j = ref (i + 1) in
          while
            !j < n
            && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
          do
            incr j
          done;
          if !j < n && src.[!j] = '|' then begin
            let id = String.sub src (i + 1) (!j - i - 1) in
            let close = "|" ^ id ^ "}" in
            quoted close (!j + 1) (i + 1)
          end
          else code (i + 1))
      | '\'' ->
          if i + 1 < n && src.[i + 1] = '\\' then begin
            (* escaped char literal: find the closing quote *)
            let j = ref (i + 2) in
            while !j < n && !j <= i + 6 && src.[!j] <> '\'' do
              incr j
            done;
            if !j < n && src.[!j] = '\'' then begin
              blank_range i !j;
              code (!j + 1)
            end
            else code (i + 1)
          end
          else if i + 2 < n && src.[i + 2] = '\'' then begin
            blank_range i (i + 2);
            code (i + 3)
          end
          else code (i + 1) (* type variable or post-identifier quote *)
      | _ -> code (i + 1)
  and comment depth i =
    if i >= n then ()
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
          blank_range i (i + 1);
          comment (depth + 1) (i + 2)
      | '*' when i + 1 < n && src.[i + 1] = ')' ->
          blank_range i (i + 1);
          if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      | '"' ->
          blank i;
          string (`Comment depth) (i + 1)
      | _ ->
          blank i;
          comment depth (i + 1)
  and string ret i =
    if i >= n then ()
    else
      match src.[i] with
      | '\\' ->
          blank i;
          if i + 1 < n then blank (i + 1);
          string ret (i + 2)
      | '"' -> (
          match ret with
          | `Code -> code (i + 1)
          | `Comment d ->
              blank i;
              comment d (i + 1))
      | _ ->
          blank i;
          string ret (i + 1)
  and quoted close i start =
    (* scan for [close], blanking the body *)
    let cn = String.length close in
    let rec find i =
      if i + cn > n then blank_range start (n - 1)
      else if String.sub src i cn = close then begin
        blank_range start (i - 1);
        code (i + cn)
      end
      else find (i + 1)
    in
    find i
  in
  code 0;
  Bytes.to_string buf

(* --- Matching ---------------------------------------------------------- *)

let is_ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Does [line] contain [needle] not followed by an identifier character?
   (So "Hashtbl.add" does not match "Hashtbl.add_seq".) *)
let contains_token line needle =
  let nl = String.length line and nn = String.length needle in
  let rec at i =
    if i + nn > nl then false
    else if
      String.sub line i nn = needle
      && (i + nn >= nl || not (is_ident_char line.[i + nn]))
    then true
    else at (i + 1)
  in
  at 0

let contains_sub line needle =
  let nl = String.length line and nn = String.length needle in
  let rec at i =
    if i + nn > nl then false
    else if String.sub line i nn = needle then true
    else at (i + 1)
  in
  at 0

let split_lines s = String.split_on_char '\n' s

let find_sub line needle =
  let nl = String.length line and nn = String.length needle in
  let rec at i =
    if i + nn > nl then None
    else if String.sub line i nn = needle then Some i
    else at (i + 1)
  in
  at 0

(* [cq-lint: allow <rule>: reason] in the raw text of the finding's line
   or the line above.  A bare [allow <rule>] with no stated reason does
   NOT suppress (tightened after the Hashtbl.add dedup sweep): every
   surviving suppression must document why the pattern is safe at that
   site, so allows cannot accrete as unexplained noise. *)
let allowed raw_lines line rule =
  let marker = "cq-lint: allow " ^ rule in
  let reasoned l =
    match find_sub l marker with
    | None -> false
    | Some i ->
        let j = i + String.length marker in
        if j < String.length l && is_ident_char l.[j] then
          (* A longer rule name ("hashtbl-addendum"): not this rule. *)
          false
        else begin
          (* A reason = at least one letter or digit after the rule name,
             before the comment closes. *)
          let rest = String.sub l j (String.length l - j) in
          let stop =
            match find_sub rest "*)" with
            | Some k -> k
            | None -> String.length rest
          in
          let rec scan k =
            k < stop
            && (match rest.[k] with
               | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
               | _ -> scan (k + 1))
          in
          scan 0
        end
  in
  let check idx =
    idx >= 1 && idx <= Array.length raw_lines && reasoned raw_lines.(idx - 1)
  in
  check line || check (line - 1)

let message_of rule = List.assoc rule rules

(* Hot-loop regions are declared in the raw text (the markers are
   comments, so the stripper erases them): a standalone comment line
   with the prefixed "hot-loop" marker opens a region, the prefixed
   "end hot-loop" marker closes it (the exact strings are in the code
   below — writing them out in this comment would mark this file).
   Inside a region every List combinator and closure allocation is a
   finding unless audited with an allow — the point is not that such
   code is wrong, but that allocation on a marked path must be a
   decision someone wrote a justification for.

   A marker only counts when its stripped line is blank, i.e. the
   marker sits in a comment with no code beside it.  That keeps string
   literals that merely *mention* the marker (this linter's own source,
   its tests) from opening phantom regions. *)
let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') s

let hot_regions raw_lines stripped_lines =
  let n = Array.length raw_lines in
  let hot = Array.make n false in
  let in_region = ref false in
  for i = 0 to n - 1 do
    let marker m =
      contains_sub raw_lines.(i) m && is_blank stripped_lines.(i)
    in
    if marker "cq-lint: end hot-loop" then in_region := false
    else if marker "cq-lint: hot-loop" then in_region := true
    else hot.(i) <- !in_region
  done;
  hot

let lint_source ~file src =
  let stripped = Array.of_list (split_lines (strip src)) in
  let raw = Array.of_list (split_lines src) in
  let hot = hot_regions raw stripped in
  let findings = ref [] in
  let emit line rule =
    if not (allowed raw line rule) then
      findings :=
        {
          file;
          line;
          rule;
          excerpt = String.trim raw.(line - 1);
          message = message_of rule;
        }
        :: !findings
  in
  let spawns_domains = ref false in
  let has_digest = ref false in
  Array.iter
    (fun l ->
      if contains_token l "Domain.spawn" then spawns_domains := true;
      if contains_sub l "Digest." then has_digest := true)
    stripped;
  Array.iteri
    (fun i l ->
      let line = i + 1 in
      if contains_token l "Hashtbl.add" then emit line "hashtbl-add";
      if contains_token l "Unix.gettimeofday" || contains_token l "Sys.time"
      then emit line "wall-clock";
      if contains_sub l "Marshal.from_" && not !has_digest then
        emit line "marshal-unvalidated";
      if
        !spawns_domains
        && (contains_sub l "= ref " || contains_sub l "= ref("
           || contains_token l "Hashtbl.create")
      then emit line "domain-shared-state";
      if hot.(i) && (contains_sub l "List." || contains_token l "fun") then
        emit line "hot-loop-alloc")
    stripped;
  List.rev !findings

let read_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> Some src
  | exception Sys_error _ -> None

(* --- Dead exports ------------------------------------------------------ *)

(* A cross-file rule: a [val] of a library interface ([.mli] under a
   [lib] directory) is dead when no file outside its own module mentions
   its name as a whole word.  The scan is lexical and over stripped text,
   so a mention in a comment is not a use, while any same-named
   identifier elsewhere is (the rule can miss a dead export, never flag a
   live one).  A module is its [.ml]/[.mli] pair, keyed by the path
   without extension. *)
let words stripped =
  let seen = Hashtbl.create 1024 in
  let n = String.length stripped in
  let rec go i =
    if i < n then
      if is_ident_char stripped.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char stripped.[!j] do
          incr j
        done;
        Hashtbl.replace seen (String.sub stripped i (!j - i)) ();
        go !j
      end
      else go (i + 1)
  in
  go 0;
  seen

let is_lib_mli path =
  Filename.check_suffix path ".mli"
  && List.mem "lib" (String.split_on_char '/' path)

(* [val name] declarations with their 1-based lines. *)
let declared_vals stripped =
  List.concat
    (List.mapi
       (fun i l ->
         let l = String.trim l in
         if String.length l > 4 && String.sub l 0 4 = "val " then
           let rest = String.trim (String.sub l 4 (String.length l - 4)) in
           let k = ref 0 in
           while !k < String.length rest && is_ident_char rest.[!k] do
             incr k
           done;
           if !k = 0 then [] else [ (String.sub rest 0 !k, i + 1) ]
         else [])
       (split_lines stripped))

let dead_exports ?(refs = []) sources =
  let scan (file, src) = (file, src, strip src) in
  let linted = List.map scan sources in
  let vocabulary =
    List.map
      (fun (file, _, stripped) ->
        (Filename.remove_extension file, words stripped))
      (linted @ List.map scan refs)
  in
  let used_outside file name =
    let own = Filename.remove_extension file in
    List.exists
      (fun (m, ws) -> m <> own && Hashtbl.mem ws name)
      vocabulary
  in
  List.concat_map
    (fun (file, src, stripped) ->
      if not (is_lib_mli file) then []
      else
        let raw = Array.of_list (split_lines src) in
        List.filter_map
          (fun (name, line) ->
            if used_outside file name || allowed raw line "dead-export" then
              None
            else
              Some
                {
                  file;
                  line;
                  rule = "dead-export";
                  excerpt = String.trim raw.(line - 1);
                  message = message_of "dead-export";
                })
          (declared_vals stripped))
    linted

let is_ml path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* Scratch state that PR 9's test run accidentally committed: daemon
   state dirs and learning-session snapshots.  They are runtime
   artifacts, not sources, so their mere presence under a linted path is
   a finding — there is no allow (the fix is deletion, and a binary
   snapshot cannot carry an annotation anyway). *)
let is_stray_name base =
  Filename.check_suffix base ".snap"
  || String.length base >= 11
     && String.sub base 0 11 = "wl-scratch-"

let stray_finding path =
  {
    file = path;
    line = 1;
    rule = "stray-artifact";
    excerpt = Filename.basename path;
    message = message_of "stray-artifact";
  }

let rec walk path ((mls, strays) as acc) =
  if Sys.is_directory path then
    let acc =
      if is_stray_name (Filename.basename path) then
        (mls, stray_finding path :: strays)
      else acc
    in
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if is_stray_name (Filename.basename path) then
    (mls, stray_finding path :: strays)
  else if is_ml path then (path :: mls, strays)
  else acc

let read_all files =
  List.filter_map
    (fun f -> Option.map (fun src -> (f, src)) (read_source f))
    files

let lint_paths ?(refs = []) paths =
  let mls, strays =
    List.fold_left (fun acc p -> walk p acc) ([], []) paths
  in
  let files = List.rev mls in
  let ref_files =
    List.filter
      (fun f -> not (List.mem f files))
      (List.rev (fst (List.fold_left (fun acc p -> walk p acc) ([], []) refs)))
  in
  let sources = read_all files in
  let findings =
    strays
    @ List.concat_map (fun (file, src) -> lint_source ~file src) sources
    @ dead_exports ~refs:(read_all ref_files) sources
  in
  List.sort
    (fun a b ->
      match compare a.file b.file with 0 -> compare a.line b.line | c -> c)
    findings

let pp_finding ppf f =
  Fmt.pf ppf "%s:%d: [%s] %s@,    %s" f.file f.line f.rule f.message f.excerpt

let report_json findings =
  let module Json = Cq_util.Json in
  let one f =
    Json.Obj
      [
        ("file", Json.String f.file);
        ("line", Json.Int f.line);
        ("rule", Json.String f.rule);
        ("message", Json.String f.message);
        ("excerpt", Json.String f.excerpt);
      ]
  in
  Json.to_string_pretty (Json.List (List.map one findings)) ^ "\n"
