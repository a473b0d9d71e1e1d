(** The line-at-a-time serve oracle: the protocol as a reader of the
    wire spec would drive it — every line through the strict parser and
    {!Service.handle_line}, one response per write — sharing no code
    with {!Scan}'s fast path or {!Service.Batch}'s staging.  Batched
    serve must reproduce its transcript byte for byte.  The responses
    come from the engine's one renderer per kind, so this oracle checks
    the fast path and batching, not the rendered bytes; those are pinned
    by [test/golden] and by test_service's trees. *)

val serve :
  Service.t ->
  read_line:(unit -> string option) ->
  write:(string -> unit) ->
  int
(** Read lines until [read_line] returns [None]; skip each line that
    trims to [""]; answer every other one with {!Service.handle_line},
    handing [write] the response plus a newline; stop right after
    answering a [quit].  Returns the number of
    requests answered. *)

val transcript : string array -> string * int
(** [serve] over an in-memory script on a fresh service: the
    concatenated responses and the number answered. *)
