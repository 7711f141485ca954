(* Tests for cq_analysis: the MBL abstract interpreter held to its
   exactness contract against the real expander (differential fuzzing),
   the automaton model checker against the policy zoo and seeded
   mutations of it, and the self-lint pass. *)

module A = Cq_mbl.Ast
module E = Cq_mbl.Expand
module MC = Cq_analysis.Mbl_check
module AC = Cq_analysis.Automaton_check
module Mealy = Cq_automata.Mealy

(* --- Mbl_check: unit cases ------------------------------------------- *)

let summary_of input =
  match MC.check_string ~assoc:4 input with
  | Ok s -> s
  | Error d -> Alcotest.fail ("unexpected rejection: " ^ MC.diagnostic_to_string d)

let diagnostic_of ?max_queries input =
  match MC.check_string ?max_queries ~assoc:4 input with
  | Error d -> d
  | Ok _ -> Alcotest.fail ("unexpected acceptance of " ^ input)

let test_check_example_4_1 () =
  let s = summary_of "@ X _?" in
  Alcotest.(check int) "cardinality" 4 s.MC.cardinality;
  Alcotest.(check int) "accesses" 24 s.MC.total_accesses;
  Alcotest.(check int) "profiled" 4 s.MC.profiled_accesses;
  Alcotest.(check int) "longest" 6 s.MC.max_query_len;
  Alcotest.(check int) "main blocks" 5 s.MC.main_blocks;
  Alcotest.(check int) "aux blocks" 0 s.MC.aux_blocks

let test_check_aux_blocks () =
  let s = summary_of "@ M a M?" in
  Alcotest.(check int) "main" 5 s.MC.main_blocks;
  Alcotest.(check int) "aux" 1 s.MC.aux_blocks;
  Alcotest.(check (float 0.001)) "pressure" 1.25 s.MC.associativity_pressure

let test_check_rejections () =
  (match diagnostic_of "(A?)?" with
  | { MC.code = MC.Double_tag; _ } -> ()
  | d -> Alcotest.fail ("expected Double_tag, got " ^ MC.diagnostic_to_string d));
  (match diagnostic_of ~max_queries:8 "_ _ _" with
  | { MC.code = MC.Cardinality_overflow { bound = 8; at_least }; _ } ->
      Alcotest.(check bool) "overflow bound" true (at_least > 8)
  | d ->
      Alcotest.fail
        ("expected Cardinality_overflow, got " ^ MC.diagnostic_to_string d));
  match MC.check ~assoc:4 (A.Power (A.Block "A", -1)) with
  | Error { MC.code = MC.Negative_power (-1); _ } -> ()
  | Error d ->
      Alcotest.fail ("expected Negative_power, got " ^ MC.diagnostic_to_string d)
  | Ok _ -> Alcotest.fail "negative power accepted"

let test_check_capacity () =
  (match MC.check_string ~capacity:4 ~assoc:4 "@ M a M?" with
  | Error { MC.code = MC.Excess_blocks { distinct = 5; capacity = 4 }; _ } -> ()
  | Error d -> Alcotest.fail ("wrong diagnostic: " ^ MC.diagnostic_to_string d)
  | Ok _ -> Alcotest.fail "capacity overrun accepted");
  match MC.check_string ~capacity:5 ~assoc:4 "@ M a M?" with
  | Ok _ -> ()
  | Error d -> Alcotest.fail ("5 blocks in 5: " ^ MC.diagnostic_to_string d)

(* Guard-placement subtlety inherited from the expander: Power k = 0
   never evaluates its body, so an overflowing body is invisible; a
   zero-cardinality Seq item keeps later items evaluated (and guarded). *)
let test_check_guard_placement () =
  let overflow = A.Seq [ A.Wildcard; A.Wildcard; A.Wildcard ] (* 64 > 8 *) in
  (match MC.check ~max_queries:8 ~assoc:4 (A.Power (overflow, 0)) with
  | Ok s -> Alcotest.(check int) "k=0 skips the body" 1 s.MC.cardinality
  | Error d -> Alcotest.fail (MC.diagnostic_to_string d));
  match MC.check ~max_queries:8 ~assoc:4 (A.Seq [ A.Set []; overflow ]) with
  | Error { MC.code = MC.Cardinality_overflow _; _ } -> ()
  | Error d -> Alcotest.fail ("wrong diagnostic: " ^ MC.diagnostic_to_string d)
  | Ok _ -> Alcotest.fail "overflow after empty set not caught"

(* --- Mbl_check: differential fuzz against the expander ---------------- *)

(* Random ASTs with every constructor, including ill-tagged and
   overflowing ones; a small [max_queries] makes overflows common. *)
let gen_ast prng =
  let block () =
    if Cq_util.Prng.bool prng 0.1 then A.Block "a" (* auxiliary *)
    else
      A.Block
        (Cq_cache.Block.to_string
           (Cq_cache.Block.of_index (Cq_util.Prng.int prng 8)))
  in
  let rec go depth =
    if depth = 0 then
      match Cq_util.Prng.int prng 4 with
      | 0 -> A.At
      | 1 -> A.Wildcard
      | _ -> block ()
    else
      match Cq_util.Prng.int prng 10 with
      | 0 | 1 -> block ()
      | 2 -> A.At
      | 3 -> A.Wildcard
      | 4 | 5 ->
          A.Seq (List.init (1 + Cq_util.Prng.int prng 3) (fun _ -> go (depth - 1)))
      | 6 ->
          A.Set (List.init (1 + Cq_util.Prng.int prng 3) (fun _ -> go (depth - 1)))
      | 7 -> A.Power (go (depth - 1), Cq_util.Prng.int prng 5 - 1)
      | 8 -> A.Extend (go (depth - 1), go (depth - 1))
      | _ ->
          A.Tagged
            (go (depth - 1), if Cq_util.Prng.bool prng 0.7 then A.Profile else A.Flush)
  in
  go (1 + Cq_util.Prng.int prng 4)

let query_strings qs = List.map E.query_to_string qs

let distinct_blocks qs =
  List.concat_map E.blocks qs
  |> List.map Cq_cache.Block.to_string
  |> List.sort_uniq compare

(* The exactness contract, program by program: same verdict as the
   expander, and on acceptance every summary field agrees with the
   materialised expansion. *)
let check_one ~max_queries ~assoc ast =
  let pp () = A.to_string ast in
  let expansion =
    match E.expand ~max_queries ~assoc ast with
    | qs -> Ok qs
    | exception E.Expansion_error msg -> Error msg
  in
  match (MC.check ~max_queries ~assoc ast, expansion) with
  | Ok s, Ok qs ->
      let lens = List.map List.length qs in
      Alcotest.(check int)
        (pp () ^ ": cardinality")
        (List.length qs) s.MC.cardinality;
      Alcotest.(check int)
        (pp () ^ ": accesses")
        (List.fold_left ( + ) 0 lens)
        s.MC.total_accesses;
      Alcotest.(check int)
        (pp () ^ ": profiled")
        (List.fold_left (fun a q -> a + List.length (E.profiled_indices q)) 0 qs)
        s.MC.profiled_accesses;
      Alcotest.(check int)
        (pp () ^ ": longest")
        (List.fold_left max 0 lens)
        s.MC.max_query_len;
      Alcotest.(check (list string))
        (pp () ^ ": footprint")
        (distinct_blocks qs)
        (List.map Cq_cache.Block.to_string s.MC.footprint)
  | Error d, Ok _ ->
      Alcotest.fail
        (Printf.sprintf "%s: checker rejected (%s) but expansion succeeded"
           (pp ()) (MC.diagnostic_to_string d))
  | Ok _, Error msg ->
      Alcotest.fail
        (Printf.sprintf "%s: checker accepted but expansion failed (%s)"
           (pp ()) msg)
  | Error _, Error _ -> ()

(* simplify must preserve the exact query list on acceptance and the
   rejection on rejection. *)
let check_simplify ~max_queries ~assoc ast =
  let ast' = MC.simplify ~max_queries ~assoc ast in
  match E.expand ~max_queries ~assoc ast with
  | qs ->
      Alcotest.(check (list string))
        (A.to_string ast ^ " simplifies to " ^ A.to_string ast')
        (query_strings qs)
        (query_strings (E.expand ~max_queries ~assoc ast'))
  | exception E.Expansion_error _ -> (
      match E.expand ~max_queries ~assoc ast' with
      | _ -> Alcotest.fail (A.to_string ast ^ ": simplify lost the rejection")
      | exception E.Expansion_error _ -> ())

let test_differential_fuzz () =
  let prng = Cq_util.Prng.of_int 0x5eed5 in
  for _ = 1 to 1_000 do
    let ast = gen_ast prng in
    let max_queries = if Cq_util.Prng.bool prng 0.5 then 64 else 65536 in
    let assoc = 2 + Cq_util.Prng.int prng 3 in
    check_one ~max_queries ~assoc ast;
    check_simplify ~max_queries ~assoc ast
  done

let test_simplify_shapes () =
  let simp s =
    A.to_string (MC.simplify ~assoc:4 (Cq_mbl.Parser.parse s))
  in
  (* Representative rewrites (the differential fuzz proves they are
     semantics-preserving; this pins down that they actually fire). *)
  Alcotest.(check string) "trivial power" "A B" (simp "(A B)1");
  Alcotest.(check string) "nested powers" "A6" (simp "((A)3)2");
  Alcotest.(check string) "singleton seq" "A" (simp "(A)")

(* --- Automaton_check: the zoo passes ---------------------------------- *)

(* Every policy in the zoo satisfies all five axioms at every (small)
   associativity.  Larger policies explode in control states (LRU-8 has
   8!), so the bigger associativity is exercised on the small ones. *)
let zoo_machines () =
  List.concat_map
    (fun (e : Cq_policy.Zoo.entry) ->
      let assocs =
        if List.mem e.Cq_policy.Zoo.name [ "FIFO"; "PLRU"; "MRU" ] then
          [ 2; 4; 8 ]
        else [ 2; 4 ]
      in
      List.filter_map
        (fun assoc ->
          if e.Cq_policy.Zoo.valid_assoc assoc then
            (* [minimize]d because that is what the checker actually sees:
               L* hypotheses are minimal by construction, while the raw
               control-state product of a zoo policy need not be (New1's
               per-line bits collapse at associativity 2). *)
            Some
              ( Printf.sprintf "%s-%d" e.Cq_policy.Zoo.name assoc,
                assoc,
                Mealy.minimize
                  (Cq_policy.Policy.to_mealy (e.Cq_policy.Zoo.make assoc)) )
          else None)
        assocs)
    Cq_policy.Zoo.entries

let test_zoo_passes () =
  List.iter
    (fun (name, assoc, m) ->
      (* BRRIP-4's minimal machine has 898 states; give the symmetry pass
         room so it runs for the whole zoo at these associativities. *)
      let r = AC.check ~max_symmetry_states:1024 ~assoc m in
      Alcotest.(check bool)
        (name ^ ": " ^ AC.report_to_string r)
        true (AC.ok r);
      Alcotest.(check bool) (name ^ ": symmetry ran") true (AC.symmetry_checked r);
      Alcotest.(check (option string)) (name ^ ": diagnose") None
        (AC.diagnose ~assoc m))
    (zoo_machines ())

(* --- Automaton_check: seeded mutations are flagged -------------------- *)

let tables m =
  let n = Mealy.n_states m and k = Mealy.n_inputs m in
  ( Array.init n (fun s -> Array.init k (fun i -> Mealy.next_state m s i)),
    Array.init n (fun s -> Array.init k (fun i -> Mealy.output m s i)) )

let rebuild m next out =
  Mealy.make ~init:(Mealy.init m) ~n_inputs:(Mealy.n_inputs m) ~next ~out

let lru4 () = Cq_policy.Policy.to_mealy (Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:4)

let expect_violation name pred r =
  Alcotest.(check bool) (name ^ " rejected") false (AC.ok r);
  Alcotest.(check bool)
    (name ^ " flagged: " ^ AC.report_to_string r)
    true
    (List.exists pred r.AC.violations)

let test_mutation_line_evicts () =
  let m = lru4 () in
  let next, out = tables m in
  out.(1).(0) <- Some 0;
  expect_violation "Ln that evicts"
    (function AC.Line_evicts { state = 1; line = 0; _ } -> true | _ -> false)
    (AC.check ~assoc:4 (rebuild m next out))

let test_mutation_evct_none () =
  let m = lru4 () in
  let next, out = tables m in
  out.(0).(4) <- None;
  expect_violation "Evct with no eviction"
    (function AC.Evct_no_eviction { state = 0 } -> true | _ -> false)
    (AC.check ~assoc:4 (rebuild m next out))

let test_mutation_evct_out_of_range () =
  let m = lru4 () in
  let next, out = tables m in
  out.(0).(4) <- Some 4;
  expect_violation "eviction out of range"
    (function AC.Evct_out_of_range { state = 0; line = 4 } -> true | _ -> false)
    (AC.check ~assoc:4 (rebuild m next out))

(* Graft a clone of the initial state onto the machine and redirect one
   transition into it: the clone is trace-equivalent to the original
   state, so the machine stops being minimal. *)
let test_mutation_merged_states () =
  let m = lru4 () in
  let next, out = tables m in
  let n = Mealy.n_states m in
  let clone_next = Array.copy next.(Mealy.init m)
  and clone_out = Array.copy out.(Mealy.init m) in
  let next = Array.append next [| clone_next |]
  and out = Array.append out [| clone_out |] in
  (* Redirect every transition into the init state to the clone instead,
     so the clone is reachable (and init may or may not stay so). *)
  let init = Mealy.init m in
  Array.iter
    (fun row ->
      Array.iteri (fun i s -> if s = init then row.(i) <- n) row)
    next;
  expect_violation "duplicated state"
    (function
      | AC.Not_minimal _ | AC.Unreachable _ -> true
      | _ -> false)
    (AC.check ~assoc:4 (rebuild m next out))

let test_mutation_flipped_transition () =
  (* Flip one transition of LRU-4: the machine stays total, deterministic
     and hit-consistent, but LRU is strictly conjugation-symmetric and a
     single flipped edge cannot preserve that.  The checker degrades the
     symmetry verdict (the machine may still be a legal — if unheard-of —
     policy, so this is a downgrade, not a violation). *)
  let m = lru4 () in
  Alcotest.(check bool) "pristine LRU-4 is strictly symmetric" true
    ((AC.check ~assoc:4 m).AC.symmetry = AC.Strict);
  let next, out = tables m in
  let s = Mealy.init m in
  next.(s).(0) <- next.(s).(1);
  let r = AC.check ~assoc:4 (rebuild m next out) in
  Alcotest.(check bool)
    ("flipped edge loses strictness: " ^ AC.report_to_string r)
    true (r.AC.symmetry <> AC.Strict)

(* A machine that always evicts line 0 is total, consistent, reachable
   and minimal — but treats the lines asymmetrically. *)
let test_mutation_asymmetric () =
  let assoc = 2 in
  let m =
    Mealy.make ~init:0 ~n_inputs:(assoc + 1)
      ~next:[| [| 0; 0; 0 |] |]
      ~out:[| [| None; None; Some 0 |] |]
  in
  expect_violation "fixed-victim policy"
    (function AC.Asymmetric _ -> true | _ -> false)
    (AC.check ~assoc m);
  (* ... and the same check with symmetry off accepts it. *)
  Alcotest.(check bool) "accepted without symmetry" true
    (AC.ok (AC.check ~symmetry:false ~assoc m))

let test_bad_alphabet_short_circuits () =
  let m = lru4 () in
  match (AC.check ~assoc:3 m).AC.violations with
  | [ AC.Bad_alphabet { n_inputs = 5; expected = 4 } ] -> ()
  | v ->
      Alcotest.fail
        (Printf.sprintf "expected a lone Bad_alphabet, got %d violations"
           (List.length v))

(* --- The learning gate ------------------------------------------------ *)

let test_validate_gate_accepts () =
  let report =
    Cq_core.Learn.learn_simulated ~validate:true
      (Cq_policy.Zoo.make_exn ~name:"LRU" ~assoc:2)
  in
  match report.Cq_core.Learn.validation with
  | Some r -> Alcotest.(check bool) "passing verdict attached" true (AC.ok r)
  | None -> Alcotest.fail "validation report missing"

(* A policy that always evicts line 0 satisfies Definition 2.1 (so the
   learner learns it without complaint) but is line-asymmetric — exactly
   the kind of systematically corrupted result conformance testing cannot
   reject.  With [~validate] the gate must turn it into [Invalid]
   (exit code 14) rather than a success. *)
let fixed_victim assoc =
  Cq_policy.Policy.v ~name:"fixed-victim" ~assoc ~init:()
    ~step:(fun () -> function
      | Cq_policy.Types.Line _ -> ((), None)
      | Cq_policy.Types.Evct -> ((), Some 0))
    ()

let test_validate_gate_rejects () =
  (match
     Cq_core.Learn.run ~validate:true
       (Cq_cache.Oracle.of_policy (fixed_victim 2))
   with
  | Cq_core.Learn.Partial { failure = Cq_core.Learn.Invalid _ as f; _ } ->
      Alcotest.(check int) "exit code" 14 (Cq_core.Learn.failure_exit_code f)
  | Cq_core.Learn.Partial { failure; _ } ->
      Alcotest.fail
        (Fmt.str "wrong failure class: %a" Cq_core.Learn.pp_failure failure)
  | Cq_core.Learn.Complete _ -> Alcotest.fail "invalid automaton accepted");
  (* ... and the raising API raises. *)
  match Cq_core.Learn.learn_simulated ~validate:true (fixed_victim 2) with
  | _ -> Alcotest.fail "learn_simulated did not raise"
  | exception Cq_core.Learn.Invalid_automaton _ -> ()

(* Without the gate the same run completes: the gate is the only line of
   defence here. *)
let test_validate_gate_off_accepts () =
  match Cq_core.Learn.run (Cq_cache.Oracle.of_policy (fixed_victim 2)) with
  | Cq_core.Learn.Complete report ->
      Alcotest.(check bool)
        "no validation report" true
        (report.Cq_core.Learn.validation = None)
  | Cq_core.Learn.Partial _ -> Alcotest.fail "ungated run failed"

(* --- Lint ------------------------------------------------------------- *)

module L = Cq_analysis.Lint

let lint_rules src = List.map (fun f -> f.L.rule) (L.lint_source ~file:"x.ml" src)

let test_lint_detects () =
  Alcotest.(check (list string)) "hashtbl add" [ "hashtbl-add" ]
    (lint_rules "let () = Hashtbl.add t k v\n");
  Alcotest.(check (list string)) "wall clock" [ "wall-clock" ]
    (lint_rules "let now = Unix.gettimeofday ()\n");
  Alcotest.(check (list string)) "marshal" [ "marshal-unvalidated" ]
    (lint_rules "let v = Marshal.from_string s 0\n");
  Alcotest.(check (list string)) "domain + ref" [ "domain-shared-state" ]
    (lint_rules "let r = ref 0\nlet d = Domain.spawn (fun () -> incr r)\n")

let test_lint_stripping () =
  (* Patterns inside comments, strings and quoted strings never fire. *)
  Alcotest.(check (list string)) "comment" []
    (lint_rules "(* Hashtbl.add here, and Unix.gettimeofday *)\nlet x = 1\n");
  Alcotest.(check (list string)) "nested comment" []
    (lint_rules "(* outer (* Hashtbl.add *) still out *)\nlet x = 1\n");
  Alcotest.(check (list string)) "string" []
    (lint_rules "let s = \"Hashtbl.add\"\n");
  Alcotest.(check (list string)) "string with escapes" []
    (lint_rules "let s = \"\\\"Hashtbl.add\"\n");
  Alcotest.(check (list string)) "quoted string" []
    (lint_rules "let s = {x|Hashtbl.add|x}\n");
  (* ... while a comment inside a string does not hide real code. *)
  Alcotest.(check (list string)) "comment-opener in string" [ "hashtbl-add" ]
    (lint_rules "let s = \"(*\"\nlet () = Hashtbl.add t k v\n");
  (* add_seq shares the prefix but is a different function. *)
  Alcotest.(check (list string)) "token boundary" []
    (lint_rules "let () = Hashtbl.add_seq t s\n")

let test_lint_allow () =
  Alcotest.(check (list string)) "same line" []
    (lint_rules
       "let () = Hashtbl.add t k v (* cq-lint: allow hashtbl-add: fresh *)\n");
  Alcotest.(check (list string)) "preceding line" []
    (lint_rules
       "(* cq-lint: allow hashtbl-add: fresh key *)\nlet () = Hashtbl.add t k v\n");
  (* The annotation names a rule; a different rule still fires. *)
  Alcotest.(check (list string)) "wrong rule" [ "hashtbl-add" ]
    (lint_rules
       "(* cq-lint: allow wall-clock: no *)\nlet () = Hashtbl.add t k v\n")

let test_lint_allow_requires_reason () =
  (* PR-7: a bare [allow] with no stated reason does not suppress —
     writing the reason is the point of the annotation. *)
  Alcotest.(check (list string)) "reasonless allow fires" [ "hashtbl-add" ]
    (lint_rules "let () = Hashtbl.add t k v (* cq-lint: allow hashtbl-add *)\n");
  Alcotest.(check (list string)) "reasonless allow above fires"
    [ "hashtbl-add" ]
    (lint_rules
       "(* cq-lint: allow hashtbl-add *)\nlet () = Hashtbl.add t k v\n");
  Alcotest.(check (list string)) "dash-style reason suppresses" []
    (lint_rules
       "let () = Hashtbl.add t k v (* cq-lint: allow hashtbl-add \xe2\x80\x94 fresh *)\n");
  (* A longer rule name must not satisfy a shorter rule's allow. *)
  Alcotest.(check (list string)) "rule name is token-bounded" [ "hashtbl-add" ]
    (lint_rules
       "(* cq-lint: allow hashtbl-addendum: reason *)\nlet () = Hashtbl.add t k v\n")

let test_lint_hot_loop () =
  (* Outside a marked region List combinators and closures are fine. *)
  Alcotest.(check (list string)) "no region" []
    (lint_rules "let f xs = List.map (fun x -> x + 1) xs\n");
  (* Inside one, both fire (here: on the same line). *)
  Alcotest.(check (list string)) "in region" [ "hot-loop-alloc" ]
    (lint_rules
       "(* cq-lint: hot-loop *)\nlet f xs = List.map succ xs\n\
        (* cq-lint: end hot-loop *)\nlet g xs = List.map succ xs\n");
  (* [function] is not [fun]; allocation-free walkers stay clean. *)
  Alcotest.(check (list string)) "token boundary" []
    (lint_rules
       "(* cq-lint: hot-loop *)\nlet rec go s = function [] -> s | _ :: w -> \
        go s w\n(* cq-lint: end hot-loop *)\n");
  (* Audited allocation is allowed, and the audit names the rule. *)
  Alcotest.(check (list string)) "allow" []
    (lint_rules
       "(* cq-lint: hot-loop *)\n(* cq-lint: allow hot-loop-alloc — result \
        *)\nlet f xs = List.map succ xs\n(* cq-lint: end hot-loop *)\n")

let test_lint_line_numbers () =
  match L.lint_source ~file:"x.ml" "let a = 1\n\nlet () = Hashtbl.add t k v\n" with
  | [ f ] -> Alcotest.(check int) "line" 3 f.L.line
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

(* stray-artifact is a walk-time rule: it fires on the *presence* of
   scratch state under a linted path, not on source text, so it is
   exercised through [lint_paths] on a throwaway tree. *)
let test_lint_stray_artifact () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cq-lint-test-%d" (Unix.getpid ()))
  in
  let scratch = Filename.concat root "wl-scratch-7" in
  Unix.mkdir root 0o755;
  Unix.mkdir scratch 0o755;
  Out_channel.with_open_bin (Filename.concat root "session-1.snap")
    (fun oc -> Out_channel.output_string oc "not a real snapshot");
  Out_channel.with_open_bin (Filename.concat root "clean.ml")
    (fun oc -> Out_channel.output_string oc "let x = 1\n");
  Fun.protect
    ~finally:(fun () ->
      Sys.remove (Filename.concat root "session-1.snap");
      Sys.remove (Filename.concat root "clean.ml");
      Unix.rmdir scratch;
      Unix.rmdir root)
    (fun () ->
      let fs = L.lint_paths [ root ] in
      Alcotest.(check (list string))
        "both the dir and the snapshot are flagged"
        [ "stray-artifact"; "stray-artifact" ]
        (List.map (fun f -> f.L.rule) fs);
      List.iter
        (fun f ->
          Alcotest.(check bool)
            "finding names the artifact" true
            (f.L.excerpt = "session-1.snap" || f.L.excerpt = "wl-scratch-7"))
        fs);
  (* The rule is advertised alongside the source-text rules. *)
  Alcotest.(check bool)
    "rule is listed" true
    (List.mem_assoc "stray-artifact" L.rules)

(* dead-export is cross-file: a lib interface value counts as live only
   when some other module mentions it — references from a [refs] tree
   (bench/, examples/, perfbench/ in the CLI) count, a comment or the
   module's own implementation does not. *)
let test_lint_dead_export () =
  let mli =
    "val used : int\n\
     val from_bench : int\n\
     val unused : int\n\
     (* cq-lint: allow dead-export \xe2\x80\x94 kept for the REPL *)\n\
     val allowed : int\n"
  in
  let sources =
    [
      ("lib/m/m.mli", mli);
      ( "lib/m/m.ml",
        "let used = 1\nlet from_bench = 2\nlet unused = used\nlet allowed = 3\n"
      );
      ("bin/main.ml", "let () = print_int M.used (* M.unused *)\n");
    ]
  in
  let dead refs =
    List.map
      (fun f -> (f.L.file, f.L.line, f.L.excerpt))
      (L.dead_exports ~refs sources)
  in
  Alcotest.(check (list (triple string int string)))
    "only the unreferenced val"
    [ ("lib/m/m.mli", 3, "val unused : int") ]
    (dead [ ("bench/main.ml", "let x = M.from_bench\n") ]);
  Alcotest.(check (list string))
    "without the reference tree, the bench-only val is dead too"
    [ "from_bench"; "unused" ]
    (List.map
       (fun (_, _, e) -> List.nth (String.split_on_char ' ' e) 1)
       (dead []));
  Alcotest.(check bool) "rule is listed" true
    (List.mem_assoc "dead-export" L.rules)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "check: Example 4.1" `Quick test_check_example_4_1;
      Alcotest.test_case "check: aux blocks" `Quick test_check_aux_blocks;
      Alcotest.test_case "check: rejections" `Quick test_check_rejections;
      Alcotest.test_case "check: capacity" `Quick test_check_capacity;
      Alcotest.test_case "check: guard placement" `Quick
        test_check_guard_placement;
      Alcotest.test_case "differential fuzz (1000 programs)" `Quick
        test_differential_fuzz;
      Alcotest.test_case "simplify shapes" `Quick test_simplify_shapes;
      Alcotest.test_case "zoo passes" `Quick test_zoo_passes;
      Alcotest.test_case "mutation: Ln evicts" `Quick test_mutation_line_evicts;
      Alcotest.test_case "mutation: Evct None" `Quick test_mutation_evct_none;
      Alcotest.test_case "mutation: Evct range" `Quick
        test_mutation_evct_out_of_range;
      Alcotest.test_case "mutation: merged states" `Quick
        test_mutation_merged_states;
      Alcotest.test_case "mutation: flipped transition" `Quick
        test_mutation_flipped_transition;
      Alcotest.test_case "mutation: asymmetric" `Quick test_mutation_asymmetric;
      Alcotest.test_case "bad alphabet" `Quick test_bad_alphabet_short_circuits;
      Alcotest.test_case "validate gate accepts" `Quick
        test_validate_gate_accepts;
      Alcotest.test_case "validate gate rejects" `Quick
        test_validate_gate_rejects;
      Alcotest.test_case "validate gate off" `Quick
        test_validate_gate_off_accepts;
      Alcotest.test_case "lint: detects" `Quick test_lint_detects;
      Alcotest.test_case "lint: stripping" `Quick test_lint_stripping;
      Alcotest.test_case "lint: allow annotations" `Quick test_lint_allow;
      Alcotest.test_case "lint: allow needs a reason" `Quick
        test_lint_allow_requires_reason;
      Alcotest.test_case "lint: hot-loop regions" `Quick test_lint_hot_loop;
      Alcotest.test_case "lint: line numbers" `Quick test_lint_line_numbers;
      Alcotest.test_case "lint: dead exports" `Quick test_lint_dead_export;
      Alcotest.test_case "lint: stray artifacts" `Quick
        test_lint_stray_artifact;
    ] )
