(* The state lives in a flat 32-byte buffer (four 64-bit words accessed
   with the unboxed bytes primitives) rather than a record of mutable
   int64 fields.  Semantically identical, but a record store of an int64
   boxes the written value — at four state writes per [next] the
   generator itself was the harness's residual per-draw minor-heap
   traffic once the sampling buffers were reused (Workspace).  With the
   flat state, [next] compiles to straight 64-bit loads/stores and
   allocates nothing beyond its boxed result, which inlining (see the
   attribute) lets callers in this library consume unboxed.  Callers in
   other libraries get that only in dune's release profile: the default
   dev profile compiles with -opaque, which stops inlining across
   libraries. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let of_state s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

let of_seed seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* All-zero state is the one forbidden state of xoshiro; SplitMix64 cannot
     produce four consecutive zeros, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 2L 3L 4L
  else of_state s0 s1 s2 s3

let[@inline] [@histolint.hot] next t =
  let s0 = get64 t 0 in
  let s1 = get64 t 8 in
  let s2 = get64 t 16 in
  let s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

(* The two specialised draw paths below repeat [next]'s body instead of
   calling it: classic-mode ocamlopt (no flambda) only removes Int64
   boxing when producer and consumers sit in the same function, so a
   cross-function boxed return would put one allocation back on every
   draw.  Each consumes exactly one state step, like [next]. *)

let[@histolint.hot] next_top53 t =
  let s0 = get64 t 0 in
  let s1 = get64 t 8 in
  let s2 = get64 t 16 in
  let s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  Int64.to_int (Int64.shift_right_logical result 11)

let[@histolint.hot] rec next_below t bound =
  let s0 = get64 t 0 in
  let s1 = get64 t 8 in
  let s2 = get64 t 16 in
  let s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  (* Rejection sampling on the top 63 bits — same decisions and values as
     [Int64.rem (next t >>> 1) bound] with the final partial block
     rejected, so the stream is identical to the historical Rng.int. *)
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical result 1 in
  let max_fair = Int64.sub Int64.max_int (Int64.rem Int64.max_int b) in
  if r >= max_fair then next_below t bound
  else Int64.to_int (Int64.rem r b)

let copy t = Bytes.copy t

(* The xoshiro256 jump polynomial: advances the state by 2^128 steps, giving
   independent non-overlapping subsequences for parallel experiments. *)
let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
     0x39ABDC4529B1661CL |]

let jump t =
  (* The accumulator is a second flat state, not int64 refs: a ref store
     boxes its int64 on every assignment, and [split] calls this once
     per harness trial.  Discarding steps via [next_top53] (native-int
     result) rather than [next] avoids a boxed result per step; the
     state walk is identical. *)
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then begin
          set64 acc 0 (Int64.logxor (get64 acc 0) (get64 t 0));
          set64 acc 8 (Int64.logxor (get64 acc 8) (get64 t 8));
          set64 acc 16 (Int64.logxor (get64 acc 16) (get64 t 16));
          set64 acc 24 (Int64.logxor (get64 acc 24) (get64 t 24))
        end;
        ignore (next_top53 t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
