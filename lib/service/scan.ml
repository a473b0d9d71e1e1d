(* Zero-allocation wire fast path for the two hot request shapes.

   The serve loop's cost under load is dominated by decoding
   `observe`/`counts` lines: the strict parser builds a full Jsonl.t tree
   (one boxed Num per array element, list cells, an assoc per object)
   only for Wire to immediately flatten it back into an int array.  This
   scanner recognizes the canonical byte form of those two lines with a
   cursor over the raw bytes and decodes the payload integers directly
   into a reusable workspace buffer — no tree, no per-element boxing
   (the PR 2 workspace pattern, applied to the wire).

   Subset contract (what keeps responses byte-identical): the scanner
   only claims a line when the strict parser would accept it AND decode
   it to the same request.  It recognizes exactly the canonical producer
   form — no whitespace anywhere, fields in the order (cmd, shard,
   xs|counts), a shard string of at most [max_shard_bytes] bytes with no
   escapes, plain integer elements of <= 15 digits (well inside the
   range where the strict parser's float round-trip is exact).
   Anything else — other commands, whitespace, reordered or extra
   fields, floats, huge integers, escapes, long ids, malformed input —
   returns false and falls back to the strict parser, which then
   produces exactly the response (or error message) it always did.
   Declining a valid line is always safe: it is just served through the
   slow parser.

   Comparisons go through [Char.code] (an %identity external, so a
   plain int compare): [Char.equal] is a genuine call per character
   without flambda, and there are a few per payload element. *)

type kind = Observe | Counts

type t = {
  mutable buf : int array;
  mutable len : int;
  interned : string option array;
      (* shard ids seen, open-addressed by a hash of their bytes: a
         repeated id is served from here instead of copied again *)
  mutable interned_count : int;
  mutable hit_kind : kind;
  mutable hit_shard : string;
  mutable hit_off : int;
  mutable hit_len : int;
}

(* The longest shard id, in bytes: every live name is kept, so without
   a bound the service's 2^12 names could pin gigabytes.  Ids are short
   tags in every bench and workload. *)
let max_shard_bytes = 256

(* 2^9 (the probe start takes 9 bits), kept at most half full: at
   [max_shard_bytes] the table holds at most 64 KiB of ids. *)
let intern_slots = 512

let create () =
  {
    buf = Array.make 4096 0;
    len = 0;
    interned = Array.make intern_slots None;
    interned_count = 0;
    hit_kind = Observe;
    hit_shard = "";
    hit_off = 0;
    hit_len = 0;
  }

let clear t = t.len <- 0
let length t = t.len
let buffer t = t.buf
let hit_kind t = t.hit_kind
let hit_shard t = t.hit_shard
let hit_off t = t.hit_off
let hit_len t = t.hit_len

let grow t =
  let nb = Array.make (2 * Array.length t.buf) 0 in
  Array.blit t.buf 0 nb 0 t.len;
  t.buf <- nb

exception Fail

(* [line] carries the bytes of [s] starting at [lo], within the window
   bounded by [hi]. *)
let prefix line lo hi s =
  let l = String.length s in
  lo + l <= hi
  &&
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < l do
    if
      Char.code (String.unsafe_get line (lo + !i))
      <> Char.code (String.unsafe_get s !i)
    then ok := false
    else incr i
  done;
  !ok

(* Literal [s] at [p]; the position after it.  Positions are passed
   and returned as ints, never as a [ref]: a ref handed to a function is
   boxed. *)
let lit line n p s =
  if prefix line p n s then p + String.length s else raise Fail

(* A JSON string at [p] of at most [limit] bytes with no escapes and no
   control bytes: it decodes to the raw span, exactly as the strict
   parser would.  Returns the position of its closing quote. *)
let simple_string line n p limit =
  let quote = Char.code '"' in
  if p >= n || Char.code (String.unsafe_get line p) <> quote then raise Fail;
  let pos = ref (p + 1) in
  while
    !pos < n
    &&
    let c = Char.code (String.unsafe_get line !pos) in
    c <> quote && c <> Char.code '\\' && c >= 0x20
  do
    incr pos
  done;
  if !pos >= n || Char.code (String.unsafe_get line !pos) <> quote then
    raise Fail;
  if !pos - p - 1 > limit then raise Fail;
  !pos

(* A new id, copied into free slot [i] ([home] starts its probe).  A
   table at its load limit is emptied first, so it never holds more than
   [intern_slots / 2] ids. *)
let add_id t i home line start stop =
  let i =
    if t.interned_count < intern_slots / 2 then i
    else begin
      Array.fill t.interned 0 intern_slots None;
      t.interned_count <- 0;
      home
    end
  in
  let s = String.sub line start (stop - start) in
  t.interned.(i) <- Some s;
  t.interned_count <- t.interned_count + 1;
  s

(* The id in [line]'s bytes [\[start, stop)], from the table.  Its probe
   starts at the top bits of a multiplicative mix of a hash of the bytes,
   so ids that differ only in a last digit spread out. *)
let[@histolint.hot] intern t line start stop =
  let h = ref 0 in
  for i = start to stop - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get line i)
  done;
  let home = (!h * 0x1E3779B97F4A7C15) lsr 54 in
  let i = ref home in
  while
    match Array.unsafe_get t.interned !i with
    | None -> false
    | Some s -> not (String.length s = stop - start && prefix line start stop s)
  do
    i := (!i + 1) land (intern_slots - 1)
  done;
  match Array.unsafe_get t.interned !i with
  | Some s -> s
  | None ->
      (add_id t !i home line start stop
       [@histolint.alloc_ok
         "an id's first line (or first since the table was emptied); \
          repeated ids hit, and the length cap bounds the copy"])

let observe_header = {|{"cmd":"observe","shard":|}
let counts_header = {|{"cmd":"counts","shard":|}

(* The scanner, on the bytes of [line] in [\[pos, pos+len)]: the reactor
   feeds it line spans straight out of its read buffer, with no per-line
   substring.  A hit is reported through the [hit_*] fields, so a line
   whose shard id is interned allocates nothing. *)
let[@histolint.hot] scan_sub t line ~pos:lo ~len:wlen =
  let n = lo + wlen in
  let start_len = t.len in
  let pos = ref lo in
  try
    let kind = if prefix line lo n observe_header then Observe else Counts in
    let id_start =
      match kind with
      | Observe -> lo + String.length observe_header + 1
      | Counts -> lit line n lo counts_header + 1
    in
    let id_stop = simple_string line n (id_start - 1) max_shard_bytes in
    pos :=
      lit line n (id_stop + 1)
        (match kind with Observe -> {|,"xs":[|} | Counts -> {|,"counts":[|});
    if !pos < n && Char.code (String.unsafe_get line !pos) = Char.code ']'
    then incr pos
    else begin
      (* Element loop: value (',' value)* ']', fully inlined — it runs
         once per payload element and is the scanner's hot loop.  A
         payload integer is an optional '-', then 1..15 digits with no
         leading zero; the byte after the digits decides: ',' next
         value, ']' done, anything else (whitespace, '.', 'e', ...)
         falls back to the strict parser. *)
      let fin = ref false in
      while not !fin do
        let neg =
          !pos < n && Char.code (String.unsafe_get line !pos) = Char.code '-'
        in
        if neg then incr pos;
        let d0 = !pos in
        let v = ref 0 in
        while
          !pos < n
          &&
          let d = Char.code (String.unsafe_get line !pos) - 48 in
          0 <= d && d <= 9
          && begin
               v := (!v * 10) + d;
               incr pos;
               true
             end
        do
          ()
        done;
        let digits = !pos - d0 in
        if digits = 0 || digits > 15 then raise Fail;
        if digits > 1 && Char.code (String.unsafe_get line d0) = Char.code '0'
        then raise Fail;
        if !pos >= n then raise Fail;
        let c = Char.code (String.unsafe_get line !pos) in
        (* inline [push]: grow is the rare path *)
        if t.len = Array.length t.buf then
          (grow t
           [@histolint.alloc_ok
             "amortized doubling of the arena; O(log) growths per \
              process lifetime"]);
        Array.unsafe_set t.buf t.len (if neg then - !v else !v);
        t.len <- t.len + 1;
        if c = Char.code ',' then incr pos
        else if c = Char.code ']' then begin
          incr pos;
          fin := true
        end
        else raise Fail
      done
    end;
    if !pos + 1 <> n || Char.code (String.unsafe_get line !pos) <> Char.code '}'
    then raise Fail;
    t.hit_kind <- kind;
    t.hit_shard <- intern t line id_start id_stop;
    t.hit_off <- start_len;
    t.hit_len <- t.len - start_len;
    true
  with Fail ->
    t.len <- start_len;
    false
