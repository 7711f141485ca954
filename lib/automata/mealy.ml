(* Deterministic finite-state Mealy machines over a dense integer input
   alphabet [0 .. n_inputs-1] and a polymorphic output alphabet.

   Replacement policies (Def. 2.1 of the paper) are Mealy machines with
   inputs {Ln(0), ..., Ln(n-1), Evct}; the learner produces machines in this
   representation and the synthesiser validates candidate programs against
   them.  Keeping inputs dense lets us store transitions as flat arrays. *)

type 'o t = {
  n_states : int;
  init : int;
  n_inputs : int;
  next : int array array; (* next.(s).(i) : successor state *)
  out : 'o array array;   (* out.(s).(i)  : emitted output *)
}

let n_states t = t.n_states
let n_inputs t = t.n_inputs
let init t = t.init

let check_valid t =
  if t.n_states <= 0 then invalid_arg "Mealy: empty state set";
  if t.n_inputs <= 0 then invalid_arg "Mealy: empty input alphabet";
  if t.init < 0 || t.init >= t.n_states then invalid_arg "Mealy: bad initial state";
  if Array.length t.next <> t.n_states || Array.length t.out <> t.n_states then
    invalid_arg "Mealy: transition table size mismatch";
  Array.iteri
    (fun s row ->
      if Array.length row <> t.n_inputs || Array.length t.out.(s) <> t.n_inputs then
        invalid_arg "Mealy: transition row size mismatch";
      Array.iter
        (fun s' ->
          if s' < 0 || s' >= t.n_states then invalid_arg "Mealy: dangling transition")
        row)
    t.next

let make ~init ~n_inputs ~next ~out =
  let t = { n_states = Array.length next; init; n_inputs; next; out } in
  check_valid t;
  t

let step t s i =
  if i < 0 || i >= t.n_inputs then invalid_arg "Mealy.step: input out of range";
  (t.next.(s).(i), t.out.(s).(i))

let next_state t s i = fst (step t s i)
let output t s i = snd (step t s i)

let run_from t s word =
  let state = ref s in
  List.map
    (fun i ->
      let s', o = step t !state i in
      state := s';
      o)
    word

let run t word = run_from t t.init word

let state_after t word = List.fold_left (fun s i -> next_state t s i) t.init word

(* --- Compiled evaluation -------------------------------------------------

   Conformance testing and counterexample processing evaluate the *same*
   hypothesis on millions of words.  [step] pays an input bounds check, two
   nested array indirections, and a tuple allocation per symbol; [run]
   additionally allocates the output list.  Compiling the hypothesis once
   flattens both tables into single [s * k + i]-indexed vectors — [Bytes]
   when every state id fits a byte, an int array otherwise — and the
   walkers below touch them with unsafe reads after one predictable
   per-symbol range check on the input.  No allocation on the agree/reject
   paths. *)

type transitions =
  | Narrow of Bytes.t    (* n_states <= 256: one byte per successor *)
  | Wide of int array

type 'o compiled = {
  c_states : int;
  c_k : int;
  c_init : int;
  c_next : transitions; (* successor of (s, i) at index s * c_k + i *)
  c_out : 'o array;     (* output of (s, i) at index s * c_k + i *)
  c_code : int array;   (* dictionary code of [c_out.(idx)] *)
  c_dict : 'o array;    (* distinct outputs; [c_dict.(code)] decodes *)
}

let compile t =
  let n = t.n_states and k = t.n_inputs in
  let size = n * k in
  let c_next =
    if n <= 256 then begin
      let b = Bytes.create size in
      for s = 0 to n - 1 do
        let row = t.next.(s) in
        for i = 0 to k - 1 do
          Bytes.unsafe_set b ((s * k) + i) (Char.unsafe_chr row.(i))
        done
      done;
      Narrow b
    end
    else begin
      let a = Array.make size 0 in
      for s = 0 to n - 1 do
        let row = t.next.(s) in
        for i = 0 to k - 1 do
          Array.unsafe_set a ((s * k) + i) row.(i)
        done
      done;
      Wide a
    end
  in
  let c_out = Array.make size t.out.(0).(0) in
  for s = 0 to n - 1 do
    let row = t.out.(s) in
    for i = 0 to k - 1 do
      Array.unsafe_set c_out ((s * k) + i) row.(i)
    done
  done;
  (* Output dictionary: assign each distinct output a small int code so
     the hot walkers below can compare outputs with int equality instead
     of polymorphic [caml_equal].  The alphabet of outputs is tiny (cache
     line labels), so a linear scan per table entry is fine here — this
     runs once per compile, not per evaluation. *)
  let dict = ref [] and n_dict = ref 0 in
  let c_code =
    Array.map
      (fun o ->
        let rec find c = function
          | [] ->
              dict := o :: !dict;
              incr n_dict;
              !n_dict - 1
          | o' :: rest -> if o' = o then c else find (c - 1) rest
        in
        find (!n_dict - 1) !dict)
      c_out
  in
  let c_dict = Array.make (max 1 !n_dict) t.out.(0).(0) in
  List.iteri (fun j o -> c_dict.(!n_dict - 1 - j) <- o) !dict;
  { c_states = n; c_k = k; c_init = t.init; c_next; c_out; c_code; c_dict }

let compiled_n_states c = c.c_states
let compiled_n_inputs c = c.c_k

let bad_input () = invalid_arg "Mealy.compiled: input out of range"

(* cq-lint: hot-loop — the walkers below run once per conformance-suite
   word (millions of calls per learn); per-symbol allocation is a bug. *)

let compiled_state_after c word =
  let k = c.c_k in
  match c.c_next with
  | Narrow b ->
      let rec go s = function
        | [] -> s
        | i :: w ->
            if i < 0 || i >= k then bad_input ();
            go (Char.code (Bytes.unsafe_get b ((s * k) + i))) w
      in
      go c.c_init word
  | Wide a ->
      let rec go s = function
        | [] -> s
        | i :: w ->
            if i < 0 || i >= k then bad_input ();
            go (Array.unsafe_get a ((s * k) + i)) w
      in
      go c.c_init word

(* [agrees_from c s word expected]: does the machine, started in [s], emit
   exactly [expected] on [word]?  Stops at the first mismatch; allocates
   nothing. *)
let agrees_from c s word expected =
  let k = c.c_k and out = c.c_out in
  match c.c_next with
  | Narrow b ->
      let rec go s word exp =
        match (word, exp) with
        | [], [] -> true
        | i :: w, o :: os ->
            if i < 0 || i >= k then bad_input ();
            let idx = (s * k) + i in
            Array.unsafe_get out idx = o
            && go (Char.code (Bytes.unsafe_get b idx)) w os
        | _ -> false
      in
      go s word expected
  | Wide a ->
      let rec go s word exp =
        match (word, exp) with
        | [], [] -> true
        | i :: w, o :: os ->
            if i < 0 || i >= k then bad_input ();
            let idx = (s * k) + i in
            Array.unsafe_get out idx = o
            && go (Array.unsafe_get a idx) w os
        | _ -> false
      in
      go s word expected

let agrees c word expected = agrees_from c c.c_init word expected

(* Fully pre-encoded trace: the word is packed into an int array with
   inputs range-checked once at encode time, and the expected outputs
   into dictionary codes, so the walk is a pure int-array loop — no list
   pointer-chasing, no per-symbol bounds test and no polymorphic
   equality.  Outputs the machine can never emit encode to -1, a code no
   table entry carries, so the walk rejects them without a special
   case. *)
type trace = { t_word : int array; t_codes : int array }

let encode_output c o =
  let d = c.c_dict in
  let n = Array.length d in
  let rec find i = if i >= n then -1 else if d.(i) = o then i else find (i + 1) in
  find 0

let encode_trace c word expected =
  let k = c.c_k in
  let t_word = Array.of_list word in
  (* cq-lint: allow hot-loop-alloc — encoding runs once per trace, not per evaluation *)
  Array.iter (fun i -> if i < 0 || i >= k then bad_input ()) t_word;
  (* cq-lint: allow hot-loop-alloc — encoding runs once per trace, not per evaluation *)
  { t_word; t_codes = Array.of_list (List.map (encode_output c) expected) }

let agrees_trace c tr =
  let k = c.c_k and code = c.c_code in
  let w = tr.t_word and codes = tr.t_codes in
  let n = Array.length w in
  Array.length codes = n
  &&
  match c.c_next with
  | Narrow b ->
      let rec go s j =
        j >= n
        ||
        let idx = (s * k) + Array.unsafe_get w j in
        Array.unsafe_get code idx = Array.unsafe_get codes j
        && go (Char.code (Bytes.unsafe_get b idx)) (j + 1)
      in
      go c.c_init 0
  | Wide a ->
      let rec go s j =
        j >= n
        ||
        let idx = (s * k) + Array.unsafe_get w j in
        Array.unsafe_get code idx = Array.unsafe_get codes j
        && go (Array.unsafe_get a idx) (j + 1)
      in
      go c.c_init 0

(* Index of the first position where the machine's output differs from
   [expected] (or where one sequence ends early); [None] when they agree
   over the whole word. *)
let first_disagreement c word expected =
  let k = c.c_k and out = c.c_out in
  let next =
    match c.c_next with
    (* cq-lint: allow hot-loop-alloc — one closure per call, not per symbol *)
    | Narrow b -> fun idx -> Char.code (Bytes.unsafe_get b idx)
    (* cq-lint: allow hot-loop-alloc — one closure per call, not per symbol *)
    | Wide a -> fun idx -> Array.unsafe_get a idx
  in
  let rec go n s word exp =
    match (word, exp) with
    | [], [] -> None
    | i :: w, o :: os ->
        if i < 0 || i >= k then bad_input ();
        let idx = (s * k) + i in
        if Array.unsafe_get out idx <> o then Some n
        else go (n + 1) (next idx) w os
    | _ -> Some n
  in
  go 0 c.c_init word expected

(* Streaming stepper: a compiled machine plus a mutable cursor.  The
   replay engine interleaves its own cache bookkeeping between automaton
   steps, so the whole-trace walkers above don't fit; this exposes the
   same unsafe table walk one input at a time.  Outputs are returned by
   physical sharing from [c_out] — nothing allocates per step. *)

type 'o stepper = { sc : 'o compiled; mutable s : int }

let stepper c = { sc = c; s = c.c_init }

let stepper_state st = st.s

let stepper_step st i =
  let c = st.sc in
  let k = c.c_k in
  if i < 0 || i >= k then bad_input ();
  let idx = (st.s * k) + i in
  (match c.c_next with
  | Narrow b -> st.s <- Char.code (Bytes.unsafe_get b idx)
  | Wide a -> st.s <- Array.unsafe_get a idx);
  Array.unsafe_get c.c_out idx

(* cq-lint: end hot-loop *)

(* Enumerate the reachable part of an implicit machine given by a step
   function over arbitrary (immutable, structurally comparable) states.
   This is how concrete policy implementations are turned into explicit
   automata for ground-truth state counts and equivalence checking. *)
let of_fun ~init ~n_inputs ~step ~max_states =
  let exception Too_many_states in
  let index : ('s Cq_util.Deep.t, int) Hashtbl.t = Hashtbl.create 97 in
  let by_id : (int, 's) Hashtbl.t = Hashtbl.create 97 in
  let count = ref 0 in
  let intern s =
    let key = Cq_util.Deep.pack s in
    match Hashtbl.find_opt index key with
    | Some id -> id
    | None ->
        if !count >= max_states then raise Too_many_states;
        let id = !count in
        incr count;
        (* cq-lint: allow hashtbl-add: fresh key (find_opt miss) and fresh id *)
        Hashtbl.add index key id;
        (* cq-lint: allow hashtbl-add: fresh id from the counter *)
        Hashtbl.add by_id id s;
        id
  in
  let _ = intern init in
  let rows_next = ref [] and rows_out = ref [] in
  (* Worklist BFS: process states in id order; new states get fresh ids, so
     the numbering is the deterministic BFS order from the initial state. *)
  let processed = ref 0 in
  (try
     while !processed < !count do
       let s = Hashtbl.find by_id !processed in
       let nrow = Array.make n_inputs 0 in
       let orow = ref [] in
       for i = 0 to n_inputs - 1 do
         let s', o = step s i in
         nrow.(i) <- intern s';
         orow := o :: !orow
       done;
       rows_next := nrow :: !rows_next;
       rows_out := Array.of_list (List.rev !orow) :: !rows_out;
       incr processed
     done
   with Too_many_states ->
     failwith (Printf.sprintf "Mealy.of_fun: more than %d reachable states" max_states));
  let next = Array.of_list (List.rev !rows_next) in
  let out = Array.of_list (List.rev !rows_out) in
  make ~init:0 ~n_inputs ~next ~out

(* Moore-style partition refinement adapted to Mealy machines: the initial
   partition groups states with identical output rows, then blocks are split
   until successor blocks stabilise.  O(k * n^2) worst case, plenty for the
   sizes in this repository (tens of thousands of states). *)
let minimize t =
  let n = t.n_states and k = t.n_inputs in
  let block = Array.make n 0 in
  (* Initial partition by output signature. *)
  let sig_index = Hashtbl.create 97 in
  let n_blocks = ref 0 in
  for s = 0 to n - 1 do
    let key = Cq_util.Deep.pack (Array.to_list t.out.(s)) in
    match Hashtbl.find_opt sig_index key with
    | Some b -> block.(s) <- b
    | None ->
        Hashtbl.add sig_index key !n_blocks; (* cq-lint: allow hashtbl-add: find_opt miss *)
        block.(s) <- !n_blocks;
        incr n_blocks
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    let split_index = Hashtbl.create 97 in
    let new_block = Array.make n 0 in
    let next_id = ref 0 in
    for s = 0 to n - 1 do
      let key =
        Cq_util.Deep.pack
          ( block.(s),
            Array.to_list (Array.init k (fun i -> block.(t.next.(s).(i)))) )
      in
      match Hashtbl.find_opt split_index key with
      | Some b -> new_block.(s) <- b
      | None ->
          Hashtbl.add split_index key !next_id; (* cq-lint: allow hashtbl-add: find_opt miss *)
          new_block.(s) <- !next_id;
          incr next_id
    done;
    if !next_id <> !n_blocks then begin
      changed := true;
      n_blocks := !next_id;
      Array.blit new_block 0 block 0 n
    end
  done;
  (* Rebuild over blocks, renumbering so the initial block is reachable-first
     (BFS order) for a canonical result on connected machines. *)
  let nb = !n_blocks in
  let repr = Array.make nb (-1) in
  for s = n - 1 downto 0 do
    repr.(block.(s)) <- s
  done;
  let order = Array.make nb (-1) in
  let pos = Array.make nb (-1) in
  let queue = Queue.create () in
  let count = ref 0 in
  let visit b =
    if pos.(b) = -1 then begin
      pos.(b) <- !count;
      order.(!count) <- b;
      incr count;
      Queue.add b queue
    end
  in
  visit block.(t.init);
  while not (Queue.is_empty queue) do
    let b = Queue.take queue in
    let s = repr.(b) in
    for i = 0 to k - 1 do
      visit block.(t.next.(s).(i))
    done
  done;
  let reach = !count in
  let next = Array.init reach (fun bi ->
      let s = repr.(order.(bi)) in
      Array.init k (fun i -> pos.(block.(t.next.(s).(i)))))
  in
  let out = Array.init reach (fun bi ->
      let s = repr.(order.(bi)) in
      Array.copy t.out.(s))
  in
  make ~init:0 ~n_inputs:k ~next ~out

(* Shortest word distinguishing two machines (or two states of the same
   machine), via BFS over the synchronous product.  Returns [None] when the
   machines are trace-equivalent. *)
let find_counterexample ?(from_a = None) ?(from_b = None) a b =
  if a.n_inputs <> b.n_inputs then
    invalid_arg "Mealy.find_counterexample: input alphabets differ";
  let k = a.n_inputs in
  let start = (Option.value from_a ~default:a.init, Option.value from_b ~default:b.init) in
  let seen = Hashtbl.create 997 in
  let queue = Queue.create () in
  Hashtbl.add seen start (); (* cq-lint: allow hashtbl-add: first insertion into a fresh table *)
  Queue.add (start, []) queue;
  let result = ref None in
  (try
     while not (Queue.is_empty queue) do
       let (sa, sb), path = Queue.take queue in
       for i = 0 to k - 1 do
         let sa', oa = step a sa i in
         let sb', ob = step b sb i in
         if oa <> ob then begin
           result := Some (List.rev (i :: path));
           raise Exit
         end;
         let st = (sa', sb') in
         if not (Hashtbl.mem seen st) then begin
           Hashtbl.add seen st (); (* cq-lint: allow hashtbl-add: guarded by the mem test above *)
           Queue.add (st, i :: path) queue
         end
       done
     done
   with Exit -> ());
  !result

let equivalent a b = Option.is_none (find_counterexample a b)

(* Canonical form: minimize, then states are already BFS-numbered from the
   initial state by [minimize], so equal canonical machines are isomorphic. *)
let canonicalize t = minimize t

let isomorphic a b =
  let ca = canonicalize a and cb = canonicalize b in
  ca.n_states = cb.n_states && ca.next = cb.next && ca.out = cb.out

(* Access sequences: for each reachable state, a shortest input word reaching
   it from the initial state (BFS).  Used by the Wp-method. *)
let access_sequences t =
  let acc = Array.make t.n_states None in
  acc.(t.init) <- Some [];
  let queue = Queue.create () in
  Queue.add t.init queue;
  while not (Queue.is_empty queue) do
    let s = Queue.take queue in
    let path = Option.get acc.(s) in
    for i = 0 to t.n_inputs - 1 do
      let s' = t.next.(s).(i) in
      if acc.(s') = None then begin
        acc.(s') <- Some (path @ [ i ]);
        Queue.add s' queue
      end
    done
  done;
  acc

let pp ?(pp_input = Fmt.int) ~pp_output ppf t =
  Fmt.pf ppf "@[<v>Mealy machine: %d states, %d inputs, init %d@," t.n_states
    t.n_inputs t.init;
  for s = 0 to t.n_states - 1 do
    for i = 0 to t.n_inputs - 1 do
      Fmt.pf ppf "  %d --%a/%a--> %d@," s pp_input i pp_output t.out.(s).(i)
        t.next.(s).(i)
    done
  done;
  Fmt.pf ppf "@]"

let to_dot ?(name = "mealy") ~input_label ~output_label t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  Buffer.add_string buf
    (Printf.sprintf "  __start [shape=point]; __start -> s%d;\n" t.init);
  for s = 0 to t.n_states - 1 do
    Buffer.add_string buf (Printf.sprintf "  s%d [shape=circle,label=\"%d\"];\n" s s)
  done;
  for s = 0 to t.n_states - 1 do
    for i = 0 to t.n_inputs - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=\"%s/%s\"];\n" s t.next.(s).(i)
           (input_label i)
           (output_label t.out.(s).(i)))
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Invert [to_dot]: good enough for round-tripping our own exports (and
   hand-edited copies that keep the shape).  Node declarations are
   ignored; structure comes from the __start arrow and the labelled
   edges.  The parse is line-based because the exporter is. *)
let of_dot ~input_of_label ~output_of_label text =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let strip s = String.trim s in
  (* "s12" -> Some 12 *)
  let state_of tok =
    let tok = strip tok in
    if String.length tok >= 2 && tok.[0] = 's' then
      int_of_string_opt (String.sub tok 1 (String.length tok - 1))
    else None
  in
  let lines = String.split_on_char '\n' text in
  let init = ref (-1) in
  let edges = ref [] (* (src, dst, input, output) *) in
  let parse_error = ref None in
  List.iteri
    (fun idx line ->
      if !parse_error = None then
        let lno = idx + 1 in
        let line = strip line in
        let has_sub needle =
          let nl = String.length line and nn = String.length needle in
          let rec at i = i + nn <= nl && (String.sub line i nn = needle || at (i + 1)) in
          at 0
        in
        let index_of needle =
          let nl = String.length line and nn = String.length needle in
          let rec at i =
            if i + nn > nl then None
            else if String.sub line i nn = needle then Some i
            else at (i + 1)
          in
          at 0
        in
        if has_sub "__start ->" then begin
          match index_of "__start ->" with
          | Some i -> (
              let rest = String.sub line (i + 10) (String.length line - i - 10) in
              let rest =
                match String.index_opt rest ';' with
                | Some j -> String.sub rest 0 j
                | None -> rest
              in
              match state_of rest with
              | Some s -> init := s
              | None -> parse_error := Some (Printf.sprintf "line %d: bad __start target" lno))
          | None -> ()
        end
        else
          match (index_of "->", index_of "[label=\"") with
          | Some arrow, Some lab ->
              let src = String.sub line 0 arrow in
              let dst = String.sub line (arrow + 2) (lab - arrow - 2) in
              let rest = String.sub line (lab + 8) (String.length line - lab - 8) in
              (match String.index_opt rest '"' with
              | None ->
                  parse_error := Some (Printf.sprintf "line %d: unterminated label" lno)
              | Some close -> (
                  let label = String.sub rest 0 close in
                  match String.index_opt label '/' with
                  | None ->
                      parse_error :=
                        Some (Printf.sprintf "line %d: label %S lacks in/out separator" lno label)
                  | Some slash -> (
                      let in_lab = String.sub label 0 slash in
                      let out_lab =
                        String.sub label (slash + 1) (String.length label - slash - 1)
                      in
                      match (state_of src, state_of dst) with
                      | Some s, Some d -> (
                          match (input_of_label in_lab, output_of_label out_lab) with
                          | Some i, Some o -> edges := (s, d, i, o) :: !edges
                          | None, _ ->
                              parse_error :=
                                Some (Printf.sprintf "line %d: bad input label %S" lno in_lab)
                          | _, None ->
                              parse_error :=
                                Some (Printf.sprintf "line %d: bad output label %S" lno out_lab))
                      | _ ->
                          parse_error :=
                            Some (Printf.sprintf "line %d: edge between non-state nodes" lno))))
          | _ -> ())
    lines;
  match !parse_error with
  | Some m -> Error m
  | None -> (
      match !edges with
      | [] -> err "no transitions found"
      | edges ->
          if !init < 0 then err "no __start arrow (initial state unknown)"
          else
            let n_states =
              List.fold_left (fun m (s, d, _, _) -> max m (max s d)) (-1) edges + 1
            in
            let n_inputs =
              List.fold_left (fun m (_, _, i, _) -> max m i) (-1) edges + 1
            in
            if !init >= n_states then err "initial state has no transitions"
            else
              let next = Array.make_matrix n_states n_inputs (-1) in
              let out = Array.make_matrix n_states n_inputs None in
              let dup = ref None in
              List.iter
                (fun (s, d, i, o) ->
                  if next.(s).(i) >= 0 && !dup = None then
                    dup := Some (Printf.sprintf "duplicate edge from s%d on input %d" s i);
                  next.(s).(i) <- d;
                  out.(s).(i) <- Some o)
                edges;
              (match !dup with
              | Some m -> Error m
              | None ->
                  let missing = ref None in
                  Array.iteri
                    (fun s row ->
                      Array.iteri
                        (fun i d ->
                          if d < 0 && !missing = None then
                            missing :=
                              Some (Printf.sprintf "state s%d lacks a transition on input %d" s i))
                        row)
                    next;
                  (match !missing with
                  | Some m -> Error m
                  | None ->
                      let out = Array.map (Array.map Option.get) out in
                      (match make ~init:!init ~n_inputs ~next ~out with
                      | t -> Ok t
                      | exception Invalid_argument m -> Error m))))
