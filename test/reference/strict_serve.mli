(** The line-at-a-time serve oracle: the protocol as a reader of the
    wire spec would implement it, sharing no code with {!Scan},
    {!Service.Batch} or the batch path's direct renderer.  Batched serve
    must reproduce its transcript byte for byte. *)

val serve :
  Service.t ->
  read_line:(unit -> string option) ->
  write:(string -> unit) ->
  int
(** Read lines until [read_line] returns [None]; skip each line that
    trims to [""]; answer every other one with {!Service.handle_line},
    handing [write] the response printed by {!Jsonl.to_string} plus a
    newline; stop right after answering a [quit].  Returns the number of
    requests answered. *)

val transcript : string array -> string * int
(** [serve] over an in-memory script on a fresh service: the
    concatenated responses and the number answered. *)
