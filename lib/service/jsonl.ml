(* Minimal JSON for the histotestd line protocol.

   The container has no JSON library (and the benches already hand-write
   their BENCH_*.json lines), so the service layer carries its own codec:
   a strict recursive-descent parser over one line, and a deterministic
   printer (object fields in construction order, integral numbers printed
   as integers, "%.17g" otherwise so floats round-trip). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

(* Indexed loop rather than [String.iter f]: the hot render path calls
   this per response, and the iterator closure would be a per-call
   allocation. *)
let[@histolint.hot] escape_string buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\b' -> Buffer.add_string buf "\\b"
    | '\012' -> Buffer.add_string buf "\\f"
    | c when Char.code c < 0x20 ->
        (Buffer.add_string
           buf
           (Printf.sprintf "\\u%04x" (Char.code c))
         [@histolint.alloc_ok
           "raw control characters never appear in shard ids the scanner \
            accepted; only the strict parser's echo of a hostile input \
            reaches this arm"])
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let add_num buf x =
  if not (Float.is_finite x) then
    (* JSON has no NaN/inf; the service never emits them, but the printer
       must not produce unparseable output if one slips through. *)
    Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x <= 9.007199254740992e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> escape_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let add_to_buffer buf v = add buf v
let add_escaped buf s = escape_string buf s

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_is st c =
  st.pos < String.length st.src && Char.equal st.src.[st.pos] c

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
  | Some c' when Char.equal c c' -> st.pos <- st.pos + 1
  | Some c' -> parse_error "expected %C at %d, got %C" c st.pos c'
  | None -> parse_error "expected %C at %d, got end of input" c st.pos

let literal st word value =
  let len = String.length word in
  if
    st.pos + len <= String.length st.src
    && String.equal (String.sub st.src st.pos len) word
  then begin
    st.pos <- st.pos + len;
    value
  end
  else parse_error "bad literal at %d" st.pos

let add_utf8 buf cp =
  (* Encode one Unicode scalar value. *)
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.src then
    parse_error "truncated \\u escape at %d" st.pos;
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.src.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> parse_error "bad hex digit %C at %d" c (st.pos + i)
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_error "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | None -> parse_error "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = hex4 st in
                let cp =
                  if cp >= 0xD800 && cp <= 0xDBFF then begin
                    (* high surrogate: require the paired low surrogate *)
                    expect st '\\';
                    expect st 'u';
                    let lo = hex4 st in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      parse_error "unpaired surrogate";
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  end
                  else if cp >= 0xDC00 && cp <= 0xDFFF then
                    parse_error "unpaired surrogate"
                  else cp
                in
                add_utf8 buf cp
            | c -> parse_error "bad escape \\%C" c));
        go ()
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let span = String.sub st.src start (st.pos - start) in
  (* float_of_string is laxer than JSON: rule out leading zeros
     ("01"), a bare leading '+', hex forms and leading/trailing dots
     before delegating the actual conversion to it. *)
  let json_shaped =
    let n = String.length span in
    let i = if n > 0 && span.[0] = '-' then 1 else 0 in
    let digits j =
      let k = ref j in
      while !k < n && (match span.[!k] with '0' .. '9' -> true | _ -> false) do
        incr k
      done;
      !k
    in
    let after_int = digits i in
    let int_ok =
      after_int > i
      && (after_int = i + 1 || span.[i] <> '0')
    in
    let j = ref after_int in
    let frac_ok =
      if !j < n && span.[!j] = '.' then begin
        let d = digits (!j + 1) in
        let ok = d > !j + 1 in
        j := d;
        ok
      end
      else true
    in
    let exp_ok =
      if !j < n && (span.[!j] = 'e' || span.[!j] = 'E') then begin
        let k =
          if !j + 1 < n && (span.[!j + 1] = '+' || span.[!j + 1] = '-') then
            !j + 2
          else !j + 1
        in
        let d = digits k in
        let ok = d > k in
        j := d;
        ok
      end
      else true
    in
    int_ok && frac_ok && exp_ok && !j = n
  in
  match (json_shaped, float_of_string_opt span) with
  | true, Some x -> Num x
  | _ -> parse_error "bad number %S at %d" span start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek_is st ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek_is st ',' do
          st.pos <- st.pos + 1;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek_is st '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws st;
        while peek_is st ',' do
          st.pos <- st.pos + 1;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> parse_error "unexpected %C at %d" c st.pos

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 4.611686018427388e18 ->
      Some (int_of_float x)
  | _ -> None

let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None

let to_int_array v =
  match to_list v with
  | None -> None
  | Some xs ->
      let n = List.length xs in
      let out = Array.make n 0 in
      let ok = ref true in
      List.iteri
        (fun i x ->
          match to_int x with
          | Some k -> out.(i) <- k
          | None -> ok := false)
        xs;
      if !ok then Some out else None
