type t = {
  file : string;
  line : int;
  col : int;
  rule : Rules.t;
  message : string;
}

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (Rules.name a.rule) (Rules.name b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_human t =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" t.file t.line t.col
    (Rules.severity_name (Rules.severity t.rule))
    (Rules.name t.rule) t.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\"}"
    (json_escape t.file) t.line t.col (Rules.name t.rule)
    (Rules.severity_name (Rules.severity t.rule))
    (json_escape t.message)

(* --- suppression audit entries ------------------------------------------ *)

type audit = {
  au_file : string;
  au_line : int;
  au_col : int;
  au_kind : string;  (** "allow" | "disjoint" | "alloc_ok" | "keep" *)
  au_rules : string list;
  au_reason : string option;
  au_used : bool;
}

let audit_compare a b =
  let c = String.compare a.au_file b.au_file in
  if c <> 0 then c
  else
    let c = Int.compare a.au_line b.au_line in
    if c <> 0 then c
    else
      let c = Int.compare a.au_col b.au_col in
      if c <> 0 then c else String.compare a.au_kind b.au_kind

let audit_to_human a =
  Printf.sprintf "%s:%d:%d: audit [%s] rules=%s%s%s" a.au_file a.au_line
    a.au_col a.au_kind
    (String.concat "," a.au_rules)
    (match a.au_reason with
    | Some r -> Printf.sprintf " reason=%S" r
    | None -> "")
    (if a.au_used then "" else " (unused)")

let audit_to_json a =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"kind\":\"%s\",\"rules\":[%s],\"reason\":%s,\"used\":%b}"
    (json_escape a.au_file) a.au_line a.au_col (json_escape a.au_kind)
    (String.concat ","
       (List.map (fun r -> Printf.sprintf "\"%s\"" (json_escape r)) a.au_rules))
    (match a.au_reason with
    | Some r -> Printf.sprintf "\"%s\"" (json_escape r)
    | None -> "null")
    a.au_used
