(* Minimal JSON: the one value type every emitter builds — the daemon's
   wire format, the metrics and trace exporters, the analysis reports and
   the bench artifacts.  The parser is a plain recursive-descent with byte
   offsets in error messages, so a garbled client frame is diagnosable
   from the [bad_json] reply alone. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg =
  raise (Parse_error (Printf.sprintf "byte %d: %s" pos msg))

(* --- printing --- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN/Infinity literals: clamp them. *)
let float_literal fmt x =
  if Float.is_nan x then "0"
  else if x = Float.infinity then "1e308"
  else if x = Float.neg_infinity then "-1e308"
  else fmt x

(* The wire keeps %.17g; files get the shortest digits that read back as
   the same float, so a rounded bench figure prints as written. *)
let wire_float = float_literal (Printf.sprintf "%.17g")

let shortest_float x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s
  else
    let s = Printf.sprintf "%.16g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let file_float = float_literal shortest_float

let add_scalar float buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float f)
  | String s -> add_string buf s
  | List _ | Obj _ -> invalid_arg "Json.add_scalar"

(* [open_, close] around [items], each printed by [item] and preceded by
   [sep] from the second one on. *)
let add_seq buf open_ close sep item items =
  Buffer.add_char buf open_;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      item x)
    items;
  Buffer.add_char buf close

let rec print buf = function
  | List l -> add_seq buf '[' ']' "," (print buf) l
  | Obj fields ->
      add_seq buf '{' '}' ","
        (fun (k, v) ->
          add_string buf k;
          Buffer.add_char buf ':';
          print buf v)
        fields
  | v -> add_scalar wire_float buf v

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

let is_scalar = function List _ | Obj _ -> false | _ -> true

(* A container of scalars stays on one line; any other container puts
   each element on its own line, indented two spaces per level. *)
let rec print_pretty buf indent v =
  let inner = indent ^ "  " in
  let block open_ close value item items =
    if List.for_all (fun x -> is_scalar (value x)) items then
      add_seq buf open_ close ", " item items
    else begin
      Buffer.add_char buf open_;
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '\n';
          Buffer.add_string buf inner;
          item x)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent;
      Buffer.add_char buf close
    end
  in
  match v with
  | List l -> block '[' ']' Fun.id (print_pretty buf inner) l
  | Obj fields ->
      block '{' '}' snd
        (fun (k, x) ->
          add_string buf k;
          Buffer.add_string buf ": ";
          print_pretty buf inner x)
        fields
  | v -> add_scalar file_float buf v

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  print_pretty buf "" v;
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)

(* --- parsing --- *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail st.pos (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail st.pos (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then (
    st.pos <- st.pos + n;
    value)
  else fail st.pos (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then fail st.pos "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if st.pos >= String.length st.src then fail st.pos "unterminated escape";
        let e = st.src.[st.pos] in
        st.pos <- st.pos + 1;
        match e with
        | '"' -> Buffer.add_char buf '"'; go ()
        | '\\' -> Buffer.add_char buf '\\'; go ()
        | '/' -> Buffer.add_char buf '/'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'u' ->
            if st.pos + 4 > String.length st.src then
              fail st.pos "truncated \\u escape";
            let hex = String.sub st.src st.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail st.pos "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            (* UTF-8 encode the code point (BMP only; surrogate pairs are
               not combined — the exporters never emit them). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then (
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
            else (
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))));
            go ()
        | c -> fail (st.pos - 1) (Printf.sprintf "bad escape \\%C" c))
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  (* "-0" is how a negative-zero float prints: read it back as one. *)
  | Some n when text <> "-0" -> Int n
  | _ -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "bad number %S" text))

let rec parse_value st depth =
  if depth > 64 then fail st.pos "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then (
        st.pos <- st.pos + 1;
        List [])
      else
        let rec items acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail st.pos "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then (
        st.pos <- st.pos + 1;
        Obj [])
      else
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields (kv :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev (kv :: acc))
          | _ -> fail st.pos "expected ',' or '}'"
        in
        fields []
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected %C" c)

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length src then fail st.pos "trailing input after document";
  v

let parse_opt src = try Some (parse src) with Parse_error _ -> None

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

let bind o f = match o with Some v -> f v | None -> None
let mem_str key j = bind (member key j) to_str
let mem_int key j = bind (member key j) to_int
let mem_bool key j = bind (member key j) to_bool
let mem_list key j = bind (member key j) to_list

let of_int_list l = List (List.map (fun n -> Int n) l)

let int_list j =
  bind (to_list j) (fun items ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | x :: rest -> ( match to_int x with
          | Some n -> go (n :: acc) rest
          | None -> None)
      in
      go [] items)
