(* servicekit: the exact half of the merge monoid (Suffstat, Kahan), the
   JSON line protocol, the batched engine against the line-at-a-time
   oracle, and the sharded reference replay against the harness's sample
   streams.

   Every QCheck case is derived from one drawn seed through Randkit, so a
   failure reproduces from the printed seed alone. *)

let part_of ~n ~cells = Partition.equal_width ~n ~cells

(* --- Suffstat: exact merge monoid --- *)

let suffstat_case seed =
  let r = Randkit.Rng.create ~seed in
  let n = 32 + Randkit.Rng.int r 512 in
  let cells = 1 + Randkit.Rng.int r (min n 64) in
  let m = 200 + Randkit.Rng.int r 2_000 in
  let part = part_of ~n ~cells in
  let values = Array.init m (fun _ -> Randkit.Rng.int r n) in
  (part, n, values)

let ingest part values =
  let st = Suffstat.create ~part in
  Suffstat.observe_all st values;
  st

let add_counts st counts =
  Suffstat.observe_counts st counts ~pos:0 ~len:(Array.length counts)

let slice values ~shards ~offset =
  let out = ref [] in
  let i = ref offset in
  while !i < Array.length values do
    out := values.(!i) :: !out;
    i := !i + shards
  done;
  Array.of_list (List.rev !out)

let z_of st ~dstar ~eps =
  (Suffstat.statistic st ~dstar:(Families.Dense dstar) ~eps).Chi2stat.z

(* Split-stream merge is bit-identical to the whole stream: counts via
   [equal], the statistic via [Float.equal] — not within tolerance. *)
let prop_suffstat_split_exact =
  QCheck.Test.make ~name:"Suffstat merge of split streams is bit-exact"
    ~count:200
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let part, n, values = suffstat_case seed in
      let shards = 2 + (seed mod 5) in
      let whole = ingest part values in
      let parts =
        Array.init shards (fun s -> ingest part (slice values ~shards ~offset:s))
      in
      let merged = Array.fold_left Suffstat.merge (Suffstat.create ~part) parts in
      let dstar = Pmf.uniform n and eps = 0.25 in
      let verdict st = Suffstat.verdict st ~dstar:(Families.Dense dstar) ~eps in
      Suffstat.equal whole merged
      && Float.equal (z_of whole ~dstar ~eps) (z_of merged ~dstar ~eps)
      && Verdict.equal (verdict whole) (verdict merged))

let prop_suffstat_monoid_laws =
  QCheck.Test.make ~name:"Suffstat merge: associative, commutative, identity"
    ~count:200
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let part, _, values = suffstat_case seed in
      let third = Array.length values / 3 in
      let a = ingest part (Array.sub values 0 third) in
      let b = ingest part (Array.sub values third third) in
      let c =
        ingest part (Array.sub values (2 * third) (Array.length values - (2 * third)))
      in
      let id = Suffstat.empty_like a in
      Suffstat.equal
        (Suffstat.merge (Suffstat.merge a b) c)
        (Suffstat.merge a (Suffstat.merge b c))
      && Suffstat.equal (Suffstat.merge a b) (Suffstat.merge b a)
      && Suffstat.equal (Suffstat.merge a id) a
      && Suffstat.equal (Suffstat.merge id a) a)

let test_suffstat_observe_counts () =
  let n = 64 in
  let part = part_of ~n ~cells:8 in
  let r = Randkit.Rng.create ~seed:11 in
  let counts = Array.init n (fun _ -> Randkit.Rng.int r 50) in
  let via_counts = Suffstat.create ~part in
  add_counts via_counts counts;
  let via_stream = Suffstat.create ~part in
  Array.iteri
    (fun x c ->
      for _ = 1 to c do
        Suffstat.observe via_stream x
      done)
    counts;
  Alcotest.(check bool) "counts = stream" true
    (Suffstat.equal via_counts via_stream);
  (* a slice of a larger array ingests exactly that slice *)
  let via_slice = Suffstat.create ~part in
  let padded = Array.concat [ [| -1; 7 |]; counts; [| -5 |] ] in
  Suffstat.observe_counts via_slice padded ~pos:2 ~len:n;
  Alcotest.(check bool) "slice = whole vector" true
    (Suffstat.equal via_slice via_counts);
  Alcotest.(check bool) "slice past the array rejected" true
    (try
       Suffstat.observe_counts via_slice padded ~pos:4 ~len:n;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative counts rejected" true
    (try
       add_counts via_counts (Array.make n (-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       add_counts via_counts [| 1; 2 |];
       false
     with Invalid_argument _ -> true)

module Suff_fold = Refkit.Replay.Suff_fold

(* Random shard sets.  Some shards come from [create] (own partition),
   the rest are [empty_like] siblings (shared partition): [merge_into]
   must treat both alike. *)
let prop_suffstat_merge_into_matches_reduce =
  QCheck.Test.make
    ~name:"clear + merge_into fold = Suff_fold.reduce"
    ~count:200
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let part, n, values = suffstat_case seed in
      let r = Randkit.Rng.create ~seed:(seed + 1) in
      let shards = 1 + Randkit.Rng.int r 8 in
      let first = Suffstat.create ~part in
      let parts =
        Array.init shards (fun s ->
            if s = 0 then first
            else if Randkit.Rng.int r 2 = 0 then Suffstat.create ~part
            else Suffstat.empty_like first)
      in
      Array.iteri (fun i x -> Suffstat.observe parts.(i mod shards) x) values;
      let expected = Suff_fold.reduce parts in
      let acc = Suffstat.empty_like first in
      (* stale contents must not leak through [clear] *)
      Suffstat.observe acc (n - 1);
      Suffstat.clear acc;
      Array.iter (fun st -> Suffstat.merge_into ~into:acc st) parts;
      Suffstat.equal acc expected)

let test_suffstat_siblings_independent () =
  (* [empty_like] siblings share only the partition. *)
  let part = part_of ~n:64 ~cells:8 in
  let a = Suffstat.create ~part in
  let b = Suffstat.empty_like a and c = Suffstat.empty_like a in
  Suffstat.observe_all b [| 0; 9; 9; 63 |];
  Alcotest.(check int) "a untouched" 0 (Suffstat.total a);
  Alcotest.(check int) "c untouched" 0 (Suffstat.total c);
  Alcotest.(check bool) "c counts all zero" true
    (Array.for_all (fun x -> x = 0) (Suffstat.counts c));
  Alcotest.(check int) "b holds its own" 4 (Suffstat.total b);
  Alcotest.(check int) "b's count 9" 2 (Suffstat.counts b).(9);
  Alcotest.(check int) "c's count 9" 0 (Suffstat.counts c).(9);
  Suffstat.observe_all c [| 9 |];
  Alcotest.(check int) "b unchanged by c" 2 (Suffstat.counts b).(9);
  Alcotest.(check int) "c's own count" 1 (Suffstat.counts c).(9)

let test_suffstat_observe_counts_atomic () =
  (* A negative entry deep inside a cell (after that cell's first
     element, after whole earlier cells) must be rejected before any
     count is added. *)
  let n = 64 in
  let part = part_of ~n ~cells:8 in
  let st = Suffstat.create ~part in
  Suffstat.observe_all st [| 0; 3; 17; 40; 40 |];
  let before = Suffstat.empty_like st in
  Suffstat.merge_into ~into:before st;
  let counts = Array.make n 2 in
  counts.(21) <- -1;
  (try
     add_counts st counts;
     Alcotest.fail "negative count accepted"
   with Invalid_argument m ->
     Alcotest.(check string) "message" "Suffstat.observe_counts: negative count"
       m);
  Alcotest.(check bool) "state unchanged" true (Suffstat.equal st before);
  Alcotest.(check int) "total = sum of counts"
    (Array.fold_left ( + ) 0 (Suffstat.counts st))
    (Suffstat.total st)

(* [total] is bounded by 2^53, checked before anything is added: entries
   near [max_int] that would wrap the sum, a vector that would overshoot
   the bound, and a slice of observations past it are all refused with
   the state untouched. *)
let test_suffstat_total_bound () =
  let part = part_of ~n:4 ~cells:2 in
  let st = Suffstat.create ~part in
  Suffstat.observe_all st [| 0; 3 |];
  let snapshot () =
    let copy = Suffstat.empty_like st in
    Suffstat.merge_into ~into:copy st;
    copy
  in
  let before = ref (snapshot ()) in
  let refused label f expected =
    (try
       f ();
       Alcotest.fail (label ^ ": accepted")
     with Invalid_argument m -> Alcotest.(check string) label expected m);
    Alcotest.(check bool) (label ^ ": state unchanged") true
      (Suffstat.equal st !before)
  in
  let counts_msg = "Suffstat.observe_counts: total would exceed 2^53" in
  refused "wrapping sum"
    (fun () -> add_counts st [| max_int; max_int; max_int; 1 |])
    counts_msg;
  refused "one past the bound"
    (fun () -> add_counts st [| 1 lsl 52; 1 lsl 52; 0; 0 |])
    counts_msg;
  add_counts st [| (1 lsl 52) - 2; 1 lsl 52; 0; 0 |];
  Alcotest.(check int) "up to the bound" (1 lsl 53) (Suffstat.total st);
  before := snapshot ();
  refused "observe at the bound"
    (fun () -> Suffstat.observe_all st [| 1 |])
    "Suffstat.observe: total would exceed 2^53";
  refused "single observe at the bound"
    (fun () -> Suffstat.observe st 1)
    "Suffstat.observe: total would exceed 2^53"

(* A cleared state stands in for a fresh one: after the same operations
   both are equal, whatever the cleared state held before. *)
let prop_suffstat_clear_is_fresh =
  QCheck.Test.make ~name:"cleared state = fresh state under any ingest"
    ~count:200
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let part, n, values = suffstat_case seed in
      let r = Randkit.Rng.create ~seed:(seed + 7) in
      let recycled = Suffstat.create ~part in
      Suffstat.observe_all recycled values;
      Suffstat.clear recycled;
      let fresh = Suffstat.empty_like recycled in
      let ops = 1 + Randkit.Rng.int r 6 in
      for _ = 1 to ops do
        match Randkit.Rng.int r 3 with
        | 0 ->
            let x = Randkit.Rng.int r n in
            Suffstat.observe recycled x;
            Suffstat.observe fresh x
        | 1 ->
            let xs = Array.init (Randkit.Rng.int r 50) (fun _ -> Randkit.Rng.int r n) in
            Suffstat.observe_all recycled xs;
            Suffstat.observe_all fresh xs
        | _ ->
            let counts = Array.init n (fun _ -> Randkit.Rng.int r 3) in
            add_counts recycled counts;
            add_counts fresh counts
      done;
      Suffstat.equal recycled fresh)

let test_suffstat_fits () =
  let st = Suffstat.create ~part:(part_of ~n:256 ~cells:16) in
  Alcotest.(check bool) "own partition" true
    (Suffstat.fits st (Suffstat.partition st));
  Alcotest.(check bool) "an equal partition built apart" true
    (Suffstat.fits st (part_of ~n:256 ~cells:16));
  Alcotest.(check bool) "other cell count" false
    (Suffstat.fits st (part_of ~n:256 ~cells:8));
  Alcotest.(check bool) "other domain" false
    (Suffstat.fits st (part_of ~n:512 ~cells:16))

let test_suffstat_matches_chi2 () =
  (* The statistic is literally Chi2stat.compute on the accumulated
     per-element counts — same m, same dstar, same partition. *)
  let n = 128 in
  let part = part_of ~n ~cells:16 in
  let r = Randkit.Rng.create ~seed:5 in
  let values = Array.init 4_000 (fun _ -> Randkit.Rng.int r n) in
  let st = ingest part values in
  let dstar = Families.zipf ~n ~s:1.0 and eps = 0.2 in
  let direct =
    Chi2stat.compute ~counts:(Suffstat.counts st)
      ~m:(float_of_int (Suffstat.total st))
      ~dstar ~part ~eps ()
  in
  Alcotest.(check bool) "z bit-equal" true
    (Float.equal direct.Chi2stat.z (z_of st ~dstar ~eps))

(* A piecewise config serves from its cells and levels; its verdict is,
   bit for bit, the dense statistic against the family's expanded pmf.
   The equal-width cells are drawn to fall off the pieces' bounds, to
   outnumber the pieces, or to be the n singletons; dense families ride
   along as the control. *)
let prop_served_pieces_match_dense =
  QCheck.Test.make
    ~name:"served z/threshold = Chi2stat.compute on the dense pmf (bits)"
    ~count:200 (QCheck.int_range 0 1_000_000) (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let n = 2 + Randkit.Rng.int r 400 in
      let k = 1 + Randkit.Rng.int r (min n 12) in
      let family =
        match Randkit.Rng.int r 5 with
        | 0 -> "uniform"
        | 1 -> Printf.sprintf "staircase:%d" k
        | 2 -> Printf.sprintf "khist:%d" k
        | 3 -> Printf.sprintf "comb:%d" (1 + Randkit.Rng.int r (n / 2))
        | _ -> "zipf:1.1"
      in
      let cells =
        match Randkit.Rng.int r 4 with
        | 0 -> n
        | 1 -> min n ((2 * k) + 1 + Randkit.Rng.int r 8)
        | 2 -> 1 + Randkit.Rng.int r n
        | _ -> 1 + Randkit.Rng.int r (min n 7)
      in
      let hseed = Randkit.Rng.int r 1000 and eps = 0.2 in
      let t = Service.create () in
      let cfg =
        Result.get_ok
          (Service.configure t ~n ~family ~eps ~cells:(Some cells) ~seed:hseed)
      in
      let values = Array.init (1 + Randkit.Rng.int r 600) (fun _ -> Randkit.Rng.int r n) in
      ignore (Result.get_ok (Service.observe t ~shard:"a" values) : int);
      let served = Result.get_ok (Service.verdict_info t) in
      let counts = Array.make n 0 in
      Array.iter (fun x -> counts.(x) <- counts.(x) + 1) values;
      let m = float_of_int (Array.length values) in
      let dense =
        Chi2stat.compute ~counts ~m
          ~dstar:(Result.get_ok (Service.family_of_spec ~n ~seed:hseed family))
          ~part:(Partition.equal_width ~n ~cells:cfg.Service.cells)
          ~eps ()
      in
      let bits = Int64.bits_of_float in
      Int64.equal (bits served.Service.z) (bits dense.Chi2stat.z)
      && Int64.equal
           (bits served.Service.threshold)
           (bits (Chi2stat.accept_threshold ~m ~eps)))

(* --- Jsonl codec --- *)

let test_jsonl_roundtrip () =
  let cases =
    [
      Jsonl.Null;
      Jsonl.Bool true;
      Jsonl.Num 0.;
      Jsonl.Num (-12345.);
      Jsonl.Num 0.1;
      Jsonl.Num 1.7976931348623157e308;
      Jsonl.Str "";
      Jsonl.Str "plain";
      Jsonl.Str "esc \" \\ \n \t \r \x00 bytes";
      Jsonl.List [];
      Jsonl.List [ Jsonl.Num 1.; Jsonl.Str "two"; Jsonl.Null ];
      Jsonl.Obj [];
      Jsonl.Obj
        [
          ("k", Jsonl.Num 3.);
          ("nested", Jsonl.Obj [ ("l", Jsonl.List [ Jsonl.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Jsonl.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "single line %S" s)
        false
        (String.contains s '\n');
      match Jsonl.parse s with
      | Error e -> Alcotest.failf "%S failed to re-parse: %s" s e
      | Ok v' ->
          Alcotest.(check string)
            (Printf.sprintf "round-trip %S" s)
            s (Jsonl.to_string v'))
    cases

let test_jsonl_parse_strict () =
  let ok = [ {|{"a":[1,2.5,-3e2],"b":"\u00e9\ud83d\ude00"}|}; "null"; "-0.5" ] in
  List.iter
    (fun s ->
      match Jsonl.parse s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    ok;
  let bad =
    [ ""; "{"; "{}extra"; "[1,]"; "nul"; "\"unterminated"; "\"\\ud800\"";
      "01"; "+1"; "{\"a\" 1}" ]
  in
  List.iter
    (fun s ->
      match Jsonl.parse s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error _ -> ())
    bad

let test_jsonl_numbers () =
  (* Integral values print without a fractional part and survive the int
     round-trip the wire protocol relies on. *)
  Alcotest.(check string) "integral" "42" (Jsonl.to_string (Jsonl.Num 42.));
  Alcotest.(check string) "negative" "-7" (Jsonl.to_string (Jsonl.Num (-7.)));
  List.iter
    (fun x ->
      Alcotest.(check string) "non-finite -> null" "null"
        (Jsonl.to_string (Jsonl.Num x)))
    [ Float.nan; infinity; neg_infinity ];
  Alcotest.(check (option int)) "to_int" (Some 42)
    (Jsonl.to_int (Jsonl.Num 42.));
  Alcotest.(check (option int)) "to_int rejects fraction" None
    (Jsonl.to_int (Jsonl.Num 1.5))

(* --- service protocol --- *)

(* One protocol step: the printed response, its tree and whether to go
   on. *)
let response t line =
  let out = Buffer.create 256 in
  let continue = Service.handle_line t out line in
  let printed = Buffer.contents out in
  (printed, Result.get_ok (Jsonl.parse printed), continue)

(* The responses' trees, built here from the wire spec: the engine
   renders them without one. *)
let error_tree msg =
  Jsonl.Obj [ ("ok", Jsonl.Bool false); ("error", Jsonl.Str msg) ]

let observe_tree ~shard ~added ~shard_total =
  Wire.ok
    [
      ("cmd", Jsonl.Str "observe");
      ("shard", Jsonl.Str shard);
      ("added", Jsonl.Num (float_of_int added));
      ("shard_total", Jsonl.Num (float_of_int shard_total));
    ]

let counts_tree ~shard ~shard_total =
  Wire.ok
    [
      ("cmd", Jsonl.Str "counts");
      ("shard", Jsonl.Str shard);
      ("shard_total", Jsonl.Num (float_of_int shard_total));
    ]

let is_ok resp = Jsonl.member "ok" resp = Some (Jsonl.Bool true)

let test_service_protocol () =
  let t = Service.create () in
  let _, resp, cont = response t {|{"cmd":"verdict"}|} in
  Alcotest.(check bool) "verdict before config fails" false (is_ok resp);
  Alcotest.(check bool) "still running" true cont;
  let _, resp, _ =
    response t {|{"cmd":"config","n":256,"family":"uniform","eps":0.25,"seed":3}|}
  in
  Alcotest.(check bool) "config ok" true (is_ok resp);
  let _, resp, _ =
    response t {|{"cmd":"observe","shard":"a","xs":[0,1,2,3,4,5,6,7]}|}
  in
  Alcotest.(check bool) "observe ok" true (is_ok resp);
  Alcotest.(check (option int)) "shard total" (Some 8)
    (Option.bind (Jsonl.member "shard_total" resp) Jsonl.to_int);
  let _, resp, _ = response t {|{"cmd":"observe","shard":"b","xs":[100,200]}|} in
  Alcotest.(check bool) "second shard ok" true (is_ok resp);
  let _, resp, _ = response t {|{"cmd":"verdict"}|} in
  Alcotest.(check bool) "verdict ok" true (is_ok resp);
  Alcotest.(check (option int)) "verdict merges both shards" (Some 10)
    (Option.bind (Jsonl.member "total" resp) Jsonl.to_int);
  Alcotest.(check (option int)) "two shards" (Some 2)
    (Option.bind (Jsonl.member "shards" resp) Jsonl.to_int);
  let _, resp, _ = response t {|{"cmd":"observe","shard":"a","xs":[999]}|} in
  Alcotest.(check bool) "out-of-domain rejected" false (is_ok resp);
  let _, resp, _ = response t "not json" in
  Alcotest.(check bool) "garbage rejected" false (is_ok resp);
  let _, resp, _ = response t {|{"cmd":"reset"}|} in
  Alcotest.(check bool) "reset ok" true (is_ok resp);
  let _, resp, _ = response t {|{"cmd":"verdict"}|} in
  Alcotest.(check bool) "no data after reset" false (is_ok resp);
  let _, resp, cont = response t {|{"cmd":"quit"}|} in
  Alcotest.(check bool) "quit ok" true (is_ok resp);
  Alcotest.(check bool) "quit stops the loop" false cont

let test_service_verdict_matches_suffstat () =
  (* The served verdict is the Suffstat verdict of the merged shards —
     same z to the last bit, read back through the JSON codec. *)
  let n = 512 in
  let t = Service.create () in
  let _, resp, _ =
    response t
      {|{"cmd":"config","n":512,"family":"zipf:1.0","eps":0.2,"cells":32,"seed":9}|}
  in
  Alcotest.(check bool) "config ok" true (is_ok resp);
  let r = Randkit.Rng.create ~seed:42 in
  let values = Array.init 5_000 (fun _ -> Randkit.Rng.int r n) in
  Array.iteri
    (fun i x ->
      let shard = Printf.sprintf "s%d" (i mod 3) in
      let _, resp, _ =
        response t
          (Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[%d]}|} shard x)
      in
      if not (is_ok resp) then Alcotest.failf "observe %d failed" i)
    values;
  let _, resp, _ = response t {|{"cmd":"verdict"}|} in
  Alcotest.(check bool) "verdict ok" true (is_ok resp);
  let served_z =
    Option.get (Option.bind (Jsonl.member "z" resp) Jsonl.to_float)
  in
  let dstar = Families.zipf ~n ~s:1.0 in
  let st = Suffstat.create ~part:(part_of ~n ~cells:32) in
  Suffstat.observe_all st values;
  let expected = z_of st ~dstar ~eps:0.2 in
  (* %.17g round-trips doubles exactly, so even the wire hop is lossless. *)
  Alcotest.(check bool)
    (Printf.sprintf "served z %.17g = computed %.17g" served_z expected)
    true
    (Float.equal served_z expected)

(* [merged] is the accumulator itself: no fold, the same state on every
   call, picking up later ingest; [shards] pairs every name with it. *)
let test_service_merged_in_place () =
  let n = 256 in
  let t = Service.create () in
  (match
     Service.configure t ~n ~family:"uniform" ~eps:0.25 ~cells:(Some 16)
       ~seed:1
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no shards, no state" true
    (Option.is_none (Service.merged t));
  let r = Randkit.Rng.create ~seed:21 in
  let whole = Suffstat.create ~part:(part_of ~n ~cells:16) in
  let ingest () =
    List.iter
      (fun shard ->
        let xs = Array.init 50 (fun _ -> Randkit.Rng.int r n) in
        Suffstat.observe_all whole xs;
        match Service.observe t ~shard xs with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
      [ "a"; "b"; "c"; "a" ]
  in
  let merged () =
    match Service.merged t with
    | Some st -> st
    | None -> Alcotest.fail "no merged state"
  in
  ingest ();
  let m1 = merged () in
  Alcotest.(check bool) "second call is the same state" true (merged () == m1);
  Alcotest.(check bool) "= the whole stream" true (Suffstat.equal m1 whole);
  Alcotest.(check bool) "every shard name reads the accumulator" true
    (List.map fst (Service.shards t) = [ "a"; "b"; "c" ]
    && List.for_all (fun (_, st) -> st == m1) (Service.shards t));
  ingest ();
  Alcotest.(check int) "picks up new ingest" 400 (Suffstat.total m1);
  Alcotest.(check bool) "still the whole stream" true
    (merged () == m1 && Suffstat.equal m1 whole);
  ignore (response t {|{"cmd":"reset"}|});
  Alcotest.(check bool) "reset: no shards, no state" true
    (Option.is_none (Service.merged t) && Service.shards t = []);
  (match Service.observe t ~shard:"solo" [| 1; 2; 3 |] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cleared in place" true (merged () == m1);
  Alcotest.(check int) "solo total" 3 (Suffstat.total m1)

(* The hostile-input regression at the daemon boundary: whether the
   fast path decodes it or (spaces inside the array, which Scan declines)
   the strict decoder does, a counts request with a negative entry deep
   in a cell gets the error and the shard keeps exactly its previous
   counts and total. *)
let test_counts_negative_leaves_no_partial_state () =
  let n = 64 in
  let counts = Array.make n 1 in
  counts.(13) <- -4;
  let bad sep =
    Printf.sprintf {|{"cmd":"counts","shard":"a","counts":[%s]}|}
      (String.concat sep (Array.to_list (Array.map string_of_int counts)))
  in
  let script bad =
    [|
      {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"cells":8,"seed":1}|};
      {|{"cmd":"observe","shard":"a","xs":[0,9,9,30]}|};
      bad;
      {|{"cmd":"stats"}|};
    |]
  in
  List.iter
    (fun (label, batch, bad, strict_parses) ->
      let t = Service.create () in
      let ex = Service.Batch.create ~batch t in
      let out = Buffer.create 256 in
      Array.iter
        (fun line ->
          Service.Batch.push ex line;
          if not (Service.Batch.want_more ex) then
            ignore (Service.Batch.execute ex ~out : bool))
        (script bad);
      ignore (Service.Batch.execute ex ~out : bool);
      (* config and stats always take the strict decoder *)
      Alcotest.(check int)
        (label ^ ": strict decodes")
        strict_parses (Service.Batch.stats ex).Service.strict_parses;
      let responses = String.split_on_char '\n' (Buffer.contents out) in
      Alcotest.(check string)
        (label ^ ": error response")
        (Service.rendered_error "Suffstat.observe_counts: negative count")
        (List.nth responses 2);
      Alcotest.(check (list (pair string int)))
        (label ^ ": shard total kept")
        [ ("a", 4) ] (Service.shard_totals t);
      match Service.merged t with
      | Some st ->
          Alcotest.(check int) (label ^ ": total kept") 4 (Suffstat.total st);
          Alcotest.(check int)
            (label ^ ": total = sum of counts")
            (Suffstat.total st)
            (Array.fold_left ( + ) 0 (Suffstat.counts st));
          let count x = (Suffstat.counts st).(x) in
          Alcotest.(check int) (label ^ ": count 9 kept") 2 (count 9);
          Alcotest.(check int) (label ^ ": count 1 kept") 0 (count 1)
      | None -> Alcotest.fail (label ^ ": no merged state"))
    [ ("strict", 1, bad ", ", 3); ("fast path", 64, bad ",", 2) ];
  (* Fresh names: a rejected counts and a wholly out-of-domain observe
     under names never seen before register no shard, so neither the
     shard list nor the verdict's shard count shows a ghost. *)
  List.iter
    (fun batch ->
      let label = Printf.sprintf "fresh names, batch %d" batch in
      let t = Service.create () in
      let ex = Service.Batch.create ~batch t in
      let out = Buffer.create 256 in
      List.iter
        (fun line ->
          Service.Batch.push ex line;
          if not (Service.Batch.want_more ex) then
            ignore (Service.Batch.execute ex ~out : bool))
        [
          {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"cells":8,"seed":1}|};
          {|{"cmd":"observe","shard":"a","xs":[1,2]}|};
          {|{"cmd":"counts","shard":"b","counts":[-1]}|};
          {|{"cmd":"observe","shard":"c","xs":[999]}|};
          {|{"cmd":"verdict"}|};
        ];
      ignore (Service.Batch.execute ex ~out : bool);
      Alcotest.(check (list (pair string int)))
        (label ^ ": shard totals")
        [ ("a", 2) ] (Service.shard_totals t);
      let verdict =
        Jsonl.parse (List.nth (String.split_on_char '\n' (Buffer.contents out)) 4)
      in
      Alcotest.(check bool)
        (label ^ ": verdict counts one shard")
        true
        (Result.map (Jsonl.member "shards") verdict = Ok (Some (Jsonl.Num 1.))))
    [ 1; 64 ]

(* Hostile shard names: once [Service.max_shards] names are live, a new
   name gets a wire error and leaves the shard list and the accumulator
   as they were; a known name still ingests. *)
let test_shard_names_capped () =
  let t = Service.create () in
  let run line =
    let printed, _, _ = response t line in
    printed
  in
  ignore
    (run
       {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"cells":8,"seed":1}|}
      : string);
  for i = 0 to Service.max_shards - 1 do
    ignore (run (Printf.sprintf {|{"cmd":"observe","shard":"s%d","xs":[%d]}|} i (i mod 64)) : string)
  done;
  let totals = Service.shard_totals t in
  let counts = Option.map (fun st -> Array.copy (Suffstat.counts st)) (Service.merged t) in
  Alcotest.(check string)
    "new name refused"
    (Service.rendered_error
       (Printf.sprintf "at most %d shards per config" Service.max_shards))
    (run {|{"cmd":"observe","shard":"one-too-many","xs":[1,2,3]}|});
  Alcotest.(check bool) "shard totals unchanged" true
    (Service.shard_totals t = totals);
  Alcotest.(check bool) "accumulator unchanged" true
    (Option.map Suffstat.counts (Service.merged t) = counts);
  Alcotest.(check string)
    "known name still ingests"
    (Jsonl.to_string (observe_tree ~shard:"s0" ~added:1 ~shard_total:2))
    (run {|{"cmd":"observe","shard":"s0","xs":[5]}|})

(* Hostile config: an n past [Service.max_n] is refused with a wire
   error before any structure is built, and the previous config, shard
   totals and accumulator are untouched. *)
let test_config_n_capped () =
  let t = Service.create () in
  let run line =
    let printed, _, _ = response t line in
    printed
  in
  let config n =
    Printf.sprintf
      {|{"cmd":"config","n":%d,"family":"uniform","eps":0.25,"cells":8,"seed":1}|}
      n
  in
  ignore (run (config 64) : string);
  ignore (run {|{"cmd":"observe","shard":"a","xs":[1,2,60]}|} : string);
  let stats = {|{"cmd":"stats"}|} in
  let stats_before = run stats in
  let acc = Service.merged t in
  let counts_before =
    Option.map (fun st -> Array.copy (Suffstat.counts st)) acc
  in
  let misses = (Service.cache_stats t).Structcache.misses in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "n=%d refused" n)
        (Service.rendered_error
           (Printf.sprintf "n must be at most %d" Service.max_n))
        (run (config n)))
    [ Service.max_n + 1; 1_000_000_000 ];
  Alcotest.(check int) "nothing built" misses
    (Service.cache_stats t).Structcache.misses;
  Alcotest.(check string) "stats unchanged" stats_before (run stats);
  Alcotest.(check (list (pair string int)))
    "shard totals unchanged" [ ("a", 3) ] (Service.shard_totals t);
  Alcotest.(check bool) "same accumulator, same counts" true
    (Service.merged t == acc
    && Option.map Suffstat.counts (Service.merged t) = counts_before);
  Alcotest.(check string) "previous config still serves"
    (Jsonl.to_string (observe_tree ~shard:"a" ~added:1 ~shard_total:4))
    (run {|{"cmd":"observe","shard":"a","xs":[63]}|})

(* --- replay: the determinism contract, fed by harness streams --- *)

let test_replay_identical () =
  let n = 1024 and eps = 0.25 in
  let dstar = Families.staircase ~n ~k:4 ~rng:(Randkit.Rng.create ~seed:1) in
  let part = part_of ~n ~cells:64 in
  let r = Randkit.Rng.create ~seed:7 in
  let alias = Alias.of_pmf dstar in
  let values = Array.init 30_000 (fun _ -> Alias.draw alias r) in
  Parkit.Pool.with_pool ~jobs:2 @@ fun pool ->
  List.iter
    (fun shards ->
      let rep = Refkit.Replay.replay ~pool ~part ~dstar ~eps ~shards values in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards identical" shards)
        true rep.Refkit.Replay.identical;
      Alcotest.(check bool)
        (Printf.sprintf "%d shards z bit-equal" shards)
        true
        (Float.equal rep.Refkit.Replay.single_z rep.Refkit.Replay.fold_z
        && Float.equal rep.Refkit.Replay.single_z rep.Refkit.Replay.tree_z))
    [ 1; 2; 3; 8; 17 ]

let test_replay_matches_harness_trials () =
  (* Pin the service path to the harness path: for each harness trial
     (its oracle's Poissonized counts), the sharded replay verdict
     must equal the verdict computed directly from that trial's counts —
     the service is a resharding of the harness, not a second opinion. *)
  let n = 256 and eps = 0.25 in
  let dstar = Families.staircase ~n ~k:4 ~rng:(Randkit.Rng.create ~seed:2) in
  let part = part_of ~n ~cells:32 in
  let m = 6_000. in
  let agreements =
    Parkit.Pool.with_pool ~jobs:2 @@ fun pool ->
    Harness.run_trials ~pool
      ~rng:(Randkit.Rng.create ~seed:13)
      ~trials:10 ~pmf:dstar
      (fun trial ->
        let counts = Array.copy (trial.Harness.oracle.Poissonize.poissonized m) in
        (* Expand the Poissonized counts back into a value stream so the
           replay exercises per-observation sharding. *)
        let stream =
          Array.concat
            (List.init n (fun x -> Array.make counts.(x) x))
        in
        let direct = Suffstat.create ~part in
        add_counts direct counts;
        let expected = Suffstat.verdict direct ~dstar:(Families.Dense dstar) ~eps in
        let rep = Refkit.Replay.replay ~pool ~part ~dstar ~eps ~shards:4 stream in
        rep.Refkit.Replay.identical
        && Verdict.equal rep.Refkit.Replay.single_verdict expected
        && Verdict.equal rep.Refkit.Replay.fold_verdict expected
        && Verdict.equal rep.Refkit.Replay.tree_verdict expected)
  in
  Alcotest.(check bool) "every trial agrees" true
    (Array.for_all (fun ok -> ok) agreements)

let test_replay_rejects_bad_args () =
  let part = part_of ~n:16 ~cells:4 in
  let dstar = Pmf.uniform 16 in
  let pool = Parkit.Pool.sequential in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) name true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [
      ( "empty corpus",
        fun () -> Refkit.Replay.replay ~pool ~part ~dstar ~eps:0.25 ~shards:2 [||] );
      ( "zero shards",
        fun () -> Refkit.Replay.replay ~pool ~part ~dstar ~eps:0.25 ~shards:0 [| 1 |] );
    ]

let test_family_of_spec () =
  List.iter
    (fun spec ->
      match Service.family_of_spec ~n:128 ~seed:1 spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" spec e)
    [
      "uniform"; "staircase:4"; "khist:8"; "zipf:1.1"; "geometric:0.9";
      "comb:5"; "bimodal"; "spiked:3"; "monotone:1.5"; "paninski:0.1";
    ];
  List.iter
    (fun spec ->
      match Service.family_of_spec ~n:128 ~seed:1 spec with
      | Ok _ -> Alcotest.failf "%s accepted" spec
      | Error _ -> ())
    [
      "nonsense"; "staircase"; "staircase:x"; "zipf";
      (* constructor refusals: c·ε ≥ 1, k < 1 *)
      "paninski:0.2"; "staircase:0";
    ]

(* --- Scan: the zero-allocation wire fast path --- *)

let scan ws line = Scan.scan_sub ws line ~pos:0 ~len:(String.length line)
let scan_payload ws =
  Array.sub (Scan.buffer ws) (Scan.hit_off ws) (Scan.hit_len ws)

let test_scan_canonical () =
  let ws = Scan.create () in
  if scan ws {|{"cmd":"observe","shard":"a","xs":[0,12,-3,999999999999999]}|}
  then begin
    Alcotest.(check bool) "observe kind" true (Scan.hit_kind ws = Scan.Observe);
    Alcotest.(check string) "shard" "a" (Scan.hit_shard ws);
    Alcotest.(check (array int))
      "payload"
      [| 0; 12; -3; 999_999_999_999_999 |]
      (scan_payload ws)
  end
  else Alcotest.fail "canonical observe declined";
  if scan ws {|{"cmd":"counts","shard":"s-1","counts":[]}|} then begin
    Alcotest.(check bool) "counts kind" true (Scan.hit_kind ws = Scan.Counts);
    Alcotest.(check int) "empty payload" 0 (Scan.hit_len ws)
  end
  else Alcotest.fail "canonical counts declined";
  (* a repeated id is the interned string, and a window decodes as the
     substring would *)
  let first = Scan.hit_shard ws in
  let framed = {|xx{"cmd":"counts","shard":"s-1","counts":[5]}yy|} in
  Alcotest.(check bool) "window hit" true
    (Scan.scan_sub ws framed ~pos:2 ~len:(String.length framed - 4));
  Alcotest.(check bool) "repeated id interned" true (Scan.hit_shard ws == first);
  Alcotest.(check (array int)) "window payload" [| 5 |] (scan_payload ws);
  Alcotest.(check int) "arena accumulates across scans" 5 (Scan.length ws);
  Scan.clear ws;
  Alcotest.(check int) "clear resets the arena" 0 (Scan.length ws);
  (* arena growth beyond the initial 4096-int capacity keeps the data *)
  let big = Array.init 9_000 (fun i -> i) in
  let line =
    Printf.sprintf {|{"cmd":"observe","shard":"g","xs":[%s]}|}
      (String.concat "," (Array.to_list (Array.map string_of_int big)))
  in
  if scan ws line then
    Alcotest.(check (array int)) "grown arena" big (scan_payload ws)
  else Alcotest.fail "long canonical observe declined"

let test_scan_fallback () =
  let ws = Scan.create () in
  List.iter
    (fun line ->
      if scan ws line then Alcotest.failf "claimed: %s" line;
      Alcotest.(check int)
        (Printf.sprintf "arena untouched after %s" line)
        0 (Scan.length ws))
    [
      {|{"cmd":"verdict"}|} (* other command: strict parser's business *);
      {|{"cmd": "observe","shard":"a","xs":[1]}|} (* whitespace *);
      {|{"cmd":"observe","shard":"a","xs":[1, 2]}|} (* whitespace in array *);
      {|{"cmd":"observe","xs":[1],"shard":"a"}|} (* field order *);
      {|{"cmd":"observe","shard":"a","xs":[1.5]}|} (* float *);
      {|{"cmd":"observe","shard":"a","xs":[1e2]}|} (* exponent *);
      {|{"cmd":"observe","shard":"a","xs":[01]}|} (* leading zero *);
      {|{"cmd":"observe","shard":"a","xs":[1234567890123456]}|} (* 16 digits *);
      {|{"cmd":"observe","shard":"a\n","xs":[1]}|} (* escape in shard *);
      {|{"cmd":"observe","shard":"a","xs":[1],"z":0}|} (* extra field *);
      {|{"cmd":"observe","shard":"a","xs":[1]} |} (* trailing byte *);
      {|{"cmd":"observe","shard":"a","xs":[1,]}|} (* dangling comma *);
      {|{"cmd":"observe","shard":"a","xs":[--1]}|} (* double sign *);
      {|{"cmd":"observe","shard":"a","xs":[1,2|} (* truncated mid-payload *);
      Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[1]}|}
        (String.make (Scan.max_shard_bytes + 1) 'x') (* over-long id *);
    ]

(* Differential fuzz: on any line, a fast-path claim must decode to
   exactly what the strict parser decodes — same command, shard and
   payload — and the canonical producer form must always be claimed
   (coverage: the hot path really is hot). *)
let prop_scan_matches_strict =
  QCheck.Test.make ~name:"Scan claim = strict parse (differential fuzz)"
    ~count:300
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let len = Randkit.Rng.int r 9 in
      let xs =
        Array.init len (fun _ -> Randkit.Rng.int r 2_000_001 - 1_000_000)
      in
      let shard = Printf.sprintf "s%d" (Randkit.Rng.int r 100) in
      let observe = Randkit.Rng.int r 2 = 0 in
      let body = String.concat "," (Array.to_list (Array.map string_of_int xs)) in
      let canonical =
        Printf.sprintf {|{"cmd":"%s","shard":"%s","%s":[%s]}|}
          (if observe then "observe" else "counts")
          shard
          (if observe then "xs" else "counts")
          body
      in
      let line =
        match Randkit.Rng.int r 4 with
        | 0 | 1 -> canonical
        | 2 ->
            (* strict-valid but non-canonical: a stray space *)
            let at = Randkit.Rng.int r (String.length canonical - 1) + 1 in
            String.sub canonical 0 at ^ " "
            ^ String.sub canonical at (String.length canonical - at)
        | _ ->
            (* arbitrary corruption: flip one byte *)
            let at = Randkit.Rng.int r (String.length canonical) in
            String.mapi
              (fun i c -> if i = at then Char.chr (Randkit.Rng.int r 128) else c)
              canonical
      in
      let ws = Scan.create () in
      if not (scan ws line) then
        (* declining is always safe, but the canonical form must hit *)
        not (String.equal line canonical)
      else
        let payload = scan_payload ws in
        match Wire.request_of_line line with
        | Ok (Wire.Observe { shard = s; xs = strict }) ->
            Scan.hit_kind ws = Scan.Observe
            && String.equal s (Scan.hit_shard ws)
            && strict = payload
        | Ok (Wire.Counts { shard = s; counts = strict }) ->
            Scan.hit_kind ws = Scan.Counts
            && String.equal s (Scan.hit_shard ws)
            && strict = payload
        | Ok _ | Error _ -> false)

(* Structured fuzz for the codec itself: any value the printer can emit
   must re-parse to the same single line. *)
let rec gen_jsonl r depth =
  match Randkit.Rng.int r (if depth = 0 then 4 else 6) with
  | 0 -> Jsonl.Null
  | 1 -> Jsonl.Bool (Randkit.Rng.int r 2 = 0)
  | 2 ->
      (* dyadic rationals round-trip exactly through the printer *)
      Jsonl.Num (float_of_int (Randkit.Rng.int r 2_000_001 - 1_000_000) /. 8.)
  | 3 ->
      Jsonl.Str
        (String.init (Randkit.Rng.int r 12) (fun _ ->
             Char.chr (Randkit.Rng.int r 128)))
  | 4 ->
      Jsonl.List
        (List.init (Randkit.Rng.int r 4) (fun _ -> gen_jsonl r (depth - 1)))
  | _ ->
      Jsonl.Obj
        (List.init (Randkit.Rng.int r 4) (fun i ->
             (Printf.sprintf "k%d" i, gen_jsonl r (depth - 1))))

let prop_jsonl_fuzz_roundtrip =
  QCheck.Test.make ~name:"Jsonl print/parse round-trip (fuzz)" ~count:300
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let v = gen_jsonl r 3 in
      let s = Jsonl.to_string v in
      (not (String.contains s '\n'))
      &&
      match Jsonl.parse s with
      | Error _ -> false
      | Ok v' -> String.equal s (Jsonl.to_string v'))

(* --- batched serve engine --- *)

let serve_in_memory ?(batch = 1) ?(t = Service.create ()) lines =
  let idx = ref 0 in
  let read_line ~block:_ =
    if !idx < Array.length lines then begin
      let l = lines.(!idx) in
      incr idx;
      Some l
    end
    else None
  in
  let out = Buffer.create 4096 in
  let stats =
    Service.serve t ~batch ~read_line
      ~write:(fun b -> Buffer.add_buffer out b)
  in
  (Buffer.contents out, stats)

(* Random protocol scripts: canonical and whitespace-y ingest lines
   (in- and out-of-domain values, so error paths are exercised),
   reconfigs, verdicts, garbage, blanks, the odd quit.  Serving any of
   them batched must be byte-identical to the line-at-a-time oracle —
   the same contract E21 gates, here on adversarial scripts rather than
   throughput-shaped ones. *)
let random_script r =
  let n = 64 + Randkit.Rng.int r 192 in
  let config ~seed =
    Printf.sprintf {|{"cmd":"config","n":%d,"family":"uniform","eps":0.25,"seed":%d}|}
      n seed
  in
  let steps = 30 + Randkit.Rng.int r 50 in
  let lines = ref [] in
  for _ = 1 to steps do
    let line =
      match Randkit.Rng.int r 12 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
          let len = Randkit.Rng.int r 7 in
          let xs =
            List.init len (fun _ ->
                string_of_int (Randkit.Rng.int r (n + 8) - 4))
          in
          Printf.sprintf {|{"cmd":"observe","shard":"s%d","xs":[%s]}|}
            (Randkit.Rng.int r 4)
            (String.concat "," xs)
      | 6 ->
          let counts =
            List.init n (fun _ -> string_of_int (Randkit.Rng.int r 3))
          in
          Printf.sprintf {|{"cmd":"counts","shard":"s%d","counts":[%s]}|}
            (Randkit.Rng.int r 4)
            (String.concat "," counts)
      | 7 -> {|{"cmd":"verdict"}|}
      | 8 -> "  \t " (* blank: skipped without a response *)
      | 9 -> {|{"cmd":"observe","shard":"s0","xs":[ 1, 2 ]}|} (* strict fallback *)
      | 10 ->
          if Randkit.Rng.int r 8 = 0 then {|{"cmd":"quit"}|}
          else config ~seed:(Randkit.Rng.int r 3) (* cache hits/misses *)
      | _ -> "not json"
    in
    lines := line :: !lines
  done;
  Array.of_list (config ~seed:0 :: List.rev !lines)

let prop_serve_batched_identical =
  QCheck.Test.make
    ~name:"batched parallel serve transcript = unbatched strict serve"
    ~count:40
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let script = random_script r in
      let ref_out, _ = Refkit.Strict_serve.transcript script in
      List.for_all
        (fun batch ->
          let out, _ = serve_in_memory ~batch script in
          String.equal out ref_out)
        [ 1; 7; 16; 64 ])

let test_serve_blank_and_quit () =
  (* Blank lines are skipped without a response; everything after a quit
     in the same batch is dropped unanswered, exactly as a sequential
     loop would never have read it. *)
  let script =
    [|
      {|{"cmd":"config","n":16,"family":"uniform","eps":0.25,"seed":1}|};
      "";
      " \t ";
      {|{"cmd":"observe","shard":"a","xs":[1,2]}|};
      {|{"cmd":"quit"}|};
      {|{"cmd":"observe","shard":"a","xs":[3]}|};
      {|{"cmd":"verdict"}|};
    |]
  in
  let out, stats = serve_in_memory ~batch:64 script in
  Alcotest.(check int) "answered up to quit" 3 stats.Service.requests;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "three response lines" 3 (List.length lines);
  let ref_out, ref_requests = Refkit.Strict_serve.transcript script in
  Alcotest.(check string) "batched = line-at-a-time oracle" ref_out out;
  Alcotest.(check int) "same request count" ref_requests
    stats.Service.requests;
  Alcotest.(check bool) "fast path was used" true (stats.Service.fast_hits > 0);
  List.iter
    (fun batch ->
      Alcotest.(check bool)
        (Printf.sprintf "batch %d rejected" batch)
        true
        (try
           ignore (serve_in_memory ~batch script);
           false
         with Invalid_argument _ -> true))
    [ 0; Service.Batch.max_batch + 1 ]

(* One renderer per response kind: in one batch, a canonical ingest
   line (the Scan fast path) and its non-canonical twin (the strict
   parser) give byte-equal responses, and both equal the tree built
   here from the wire spec — string escaping and integer formatting
   included. *)
let test_rendered_responses () =
  let counts sep =
    String.concat sep
      (List.init 64 (fun i ->
           if i = 0 then "1234560" else if i < 8 then "1" else "0"))
  in
  let twins =
    [
      ( "observe",
        {|{"cmd":"observe","shard":"s0","xs":[1,2,63]}|},
        {|{"shard": "s0", "xs": [1, 2, 63], "cmd": "observe"}|},
        observe_tree ~shard:"s0" ~added:3 ~shard_total:3 );
      ( "counts",
        {|{"cmd":"counts","shard":"s0","counts":[|} ^ counts "," ^ "]}",
        {|{"counts": [|} ^ counts ", " ^ {|], "cmd": "counts", "shard": "s0"}|},
        counts_tree ~shard:"s0" ~shard_total:1_234_567 );
      ( "ingest error",
        {|{"cmd":"observe","shard":"s1","xs":[5,64]}|},
        {|{"cmd": "observe", "shard": "s1", "xs": [5, 64]}|},
        error_tree "Suffstat.observe: outside domain" );
    ]
  in
  (* Scan declines escapes, so these take the strict parser alone. *)
  let strict_only =
    [
      ( {|{"cmd":"observe","shard":"s \"quoted\"\tend","xs":[0]}|},
        observe_tree ~shard:"s \"quoted\"\tend" ~added:1 ~shard_total:1 );
      ( {|{"cmd":"observe","shard":"s0","xs":[1.5]}|},
        error_tree {|bad value for field "xs"|} );
    ]
  in
  (* A reset after each line, so each twin meets the same state. *)
  let reset = {|{"cmd":"reset"}|} in
  let script =
    {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"seed":1}|}
    :: List.concat_map
         (fun (_, fast, twin, _) -> [ fast; reset; twin; reset ])
         twins
    @ List.map fst strict_only
  in
  let out, stats = serve_in_memory ~batch:64 (Array.of_list script) in
  Alcotest.(check int) "one batch" 1 stats.Service.batches;
  Alcotest.(check int)
    "canonical lines on the fast path" (List.length twins)
    stats.Service.fast_hits;
  let responses = Array.of_list (String.split_on_char '\n' out) in
  List.iteri
    (fun i (label, _, _, tree) ->
      let fast = responses.(1 + (4 * i)) and twin = responses.(3 + (4 * i)) in
      Alcotest.(check string) (label ^ ": twins byte-equal") fast twin;
      Alcotest.(check string)
        (label ^ ": the tree's bytes")
        (Jsonl.to_string tree) fast)
    twins;
  List.iteri
    (fun i (line, tree) ->
      Alcotest.(check string) line (Jsonl.to_string tree)
        responses.(1 + (4 * List.length twins) + i))
    strict_only

(* The allocation gate: once ids are interned, shards registered and
   the accumulator built, staging and executing a 64-line batch of
   canonical ingest lines allocates nothing — scan, slots, ingest and
   rendering alike.  Lines are pushed as the reactor pushes them: spans
   of one read buffer.  [hot/alloc] cannot see boxing at call
   boundaries, so the gate runs the code. *)
let test_batch_allocates_nothing () =
  let gate label line =
    let t = Service.create () in
    ignore
      (response t
         {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"seed":1}|}
        : string * Jsonl.t * bool);
    let ex = Service.Batch.create ~batch:64 t in
    let lines = List.init 64 line in
    let raw = String.concat "\n" lines in
    let len = Array.of_list (List.map String.length lines) in
    let pos = Array.make 64 0 in
    for i = 1 to 63 do
      pos.(i) <- pos.(i - 1) + len.(i - 1) + 1
    done;
    let out = Buffer.create 65536 in
    let batch () =
      Buffer.clear out;
      for i = 0 to 63 do
        Service.Batch.push_sub ex raw ~pos:pos.(i) ~len:len.(i)
      done;
      Service.Batch.execute ex ~out
    in
    ignore (batch () : bool);
    ignore (batch () : bool);
    let go, { Refkit.Alloc.minor; _ } = Refkit.Alloc.measure batch in
    Alcotest.(check bool) (label ^ ": served") true go;
    Alcotest.(check int)
      (label ^ ": every line fast")
      (3 * 64) (Service.Batch.stats ex).Service.fast_hits;
    Alcotest.(check (float 0.)) (label ^ ": minor words") 0. minor
  in
  let ints k f = String.concat "," (List.init k (fun j -> string_of_int (f j))) in
  gate "observe" (fun i ->
      Printf.sprintf {|{"cmd":"observe","shard":"s%d","xs":[%s]}|} (i mod 16)
        (ints 16 (fun j -> (i + j) mod 64)));
  gate "counts" (fun i ->
      Printf.sprintf {|{"cmd":"counts","shard":"c%d","counts":[%s]}|} (i mod 8)
        (ints 64 (fun j -> i * j mod 3)))

(* The set-up gate: a config that misses the structure cache builds its
   hypothesis in one pass — O(cells) minor words (spec parsing, the
   family's and the service's partitions, the levels, the cache entry).
   In the major heap a dense family costs the pmf's one n-float array,
   and a piecewise family nothing O(n): its cells and levels are the
   whole hypothesis.  A boxed float per element (an [Array.map] or
   [Array.init] over floats, a closure per element) costs 2n minor
   words; a copying constructor, a second n-array of major words; an
   expanded piecewise family, one n-array.  Each family is measured on
   a fresh service, so the config is a miss. *)
let test_configure_miss_allocates_one_array () =
  let n = 1 lsl 16 and cells = 64 in
  List.iter
    (fun (family, major_bound, what) ->
      let t = Service.create () in
      let r, { Refkit.Alloc.minor; direct_major = major; _ } =
        Refkit.Alloc.measure (fun () ->
            Service.configure t ~n ~family ~eps:0.25 ~cells:(Some cells)
              ~seed:3)
      in
      Alcotest.(check bool) (family ^ ": configured") true (Result.is_ok r);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words <= 64 per cell" family minor)
        true
        (minor <= float_of_int (64 * cells));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f direct major words <= %s" family major what)
        true
        (major <= float_of_int major_bound))
    [
      ("uniform", n / 8, "n/8");
      ("staircase:8", n / 8, "n/8");
      ("khist:8", n / 8, "n/8");
      ("comb:8", n / 8, "n/8");
      ("zipf:1.2", n + 1 + 256, "one n-array");
      ("monotone:1.5", n + 1 + 256, "one n-array");
    ]

(* A warm verdict against a piecewise hypothesis allocates its per-cell
   output and a few records, nothing per run or per element: the
   statistic reads each level once per run, unboxed.  A level read per
   element through a cross-module call boxes a float per element in
   builds without cross-module inlining (~2n words). *)
let test_pieces_verdict_allocates_per_cell () =
  let n = 1 lsl 16 and cells = 64 in
  let t = Service.create () in
  ignore
    (Result.get_ok
       (Service.configure t ~n ~family:"staircase:8" ~eps:0.25
          ~cells:(Some cells) ~seed:1)
      : Service.config);
  ignore
    (Result.get_ok
       (Service.observe t ~shard:"a" (Array.init 4096 (fun i -> i * 37 mod n)))
      : int);
  let verdict () =
    match Service.verdict_info t with
    | Ok v -> v.Service.z
    | Error e -> Alcotest.fail e
  in
  ignore (verdict () : float);
  ignore (verdict () : float);
  let z, { Refkit.Alloc.minor; _ } = Refkit.Alloc.measure verdict in
  Alcotest.(check bool) "a statistic" true (Float.is_finite z);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= 2 * cells + 64" minor)
    true
    (minor <= float_of_int ((2 * cells) + 64))

(* Shard interning against the line-at-a-time oracle: more distinct ids
   than the intern table holds (so it is emptied and refilled), ids that
   share prefixes and lengths (so probes collide), ids at and one past
   [Scan.max_shard_bytes], round-robin and repeated traffic, and the
   same ids through the strict parser.  Every transcript is byte-equal
   to [Refkit.Strict_serve]'s, and a too-long id gets the same error on
   both paths. *)
let test_shard_interning_differential () =
  let cap = Scan.max_shard_bytes in
  let ids =
    Array.concat
      [
        Array.init 600 (Printf.sprintf "id%d");
        Array.init 40 (fun i -> String.make (i + 1) 'a');
        [|
          String.make cap 'x';
          String.make (cap - 1) 'x' ^ "y";
          String.make (cap + 1) 'x';
        |];
      ]
  in
  let r = Randkit.Rng.create ~seed:17 in
  let line id =
    let xs =
      List.init (1 + Randkit.Rng.int r 4) (fun _ ->
          string_of_int (Randkit.Rng.int r 64))
    in
    (* one line in ten has a space, so the strict parser takes it *)
    Printf.sprintf {|{"cmd":"observe",%s"shard":"%s","xs":[%s]}|}
      (if Randkit.Rng.int r 10 = 0 then " " else "")
      id (String.concat "," xs)
  in
  let count = Array.length ids in
  let round_robin = List.init (3 * count) (fun i -> line ids.(i mod count)) in
  let hot = List.init 400 (fun _ -> line ids.(Randkit.Rng.int r 8)) in
  let config = {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"seed":1}|} in
  let script =
    Array.of_list
      ((config :: round_robin)
      @ hot @ [ {|{"cmd":"stats"}|}; {|{"cmd":"verdict"}|} ])
  in
  let ref_out, _ = Refkit.Strict_serve.transcript script in
  List.iter
    (fun batch ->
      let out, stats = serve_in_memory ~batch script in
      Alcotest.(check string)
        (Printf.sprintf "batch %d = oracle" batch)
        ref_out out;
      Alcotest.(check bool) "fast path claimed most lines" true
        (stats.Service.fast_hits > Array.length script / 2))
    [ 1; 7; 64 ];
  let too_long =
    Service.rendered_error (Printf.sprintf "shard id longer than %d bytes" cap)
  in
  let responses = String.split_on_char '\n' ref_out in
  Alcotest.(check bool) "over-long id refused" true
    (List.mem too_long responses);
  let at_cap =
    Printf.sprintf {|{"ok":true,"cmd":"observe","shard":"%s"|}
      (String.make cap 'x')
  in
  Alcotest.(check bool) "ids at the cap served" true
    (List.exists (String.starts_with ~prefix:at_cap) responses)

(* The shard-id bound: an ingest naming an id past [Scan.max_shard_bytes]
   gets one wire error on either decoder and leaves the shards and the
   accumulator as they were. *)
let test_shard_id_capped () =
  let long = String.make (Scan.max_shard_bytes + 1) 's' in
  List.iter
    (fun (label, line) ->
      let t = Service.create () in
      let run line =
        let printed, _, _ = response t line in
        printed
      in
      ignore
        (run {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"seed":1}|}
          : string);
      ignore (run {|{"cmd":"observe","shard":"a","xs":[1,2]}|} : string);
      let out, _ =
        serve_in_memory ~batch:64 ~t [| line; {|{"cmd":"stats"}|} |]
      in
      Alcotest.(check string)
        (label ^ ": refused")
        (Service.rendered_error
           (Printf.sprintf "shard id longer than %d bytes"
              Scan.max_shard_bytes))
        (List.hd (String.split_on_char '\n' out));
      Alcotest.(check (list (pair string int)))
        (label ^ ": shards unchanged") [ ("a", 2) ] (Service.shard_totals t))
    [
      ("fast", Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[3]}|} long);
      ("strict", Printf.sprintf {|{"cmd":"observe", "shard":"%s","xs":[3]}|} long);
      ("counts", Printf.sprintf {|{"cmd":"counts","shard":"%s","counts":[]}|} long);
    ]

(* --- structure cache --- *)

(* Seventeen distinct keys against the 16 entries. *)
let test_structcache_lru () =
  let c = Structcache.create () in
  let entry =
    { Structcache.dstar = Families.Dense (Pmf.uniform 4); part = part_of ~n:4 ~cells:2 }
  in
  let get i =
    ignore
      (Structcache.find_or_build c ~key:(string_of_int i) (fun () -> Ok entry))
  in
  for i = 0 to 15 do
    get i (* 16 misses fill the cache *)
  done;
  get 0 (* hit: refreshes 0's recency, so 1 is the LRU *);
  get 16 (* miss: the 17th key evicts 1 *);
  get 1 (* miss again: 1 was evicted; evicts 2 *);
  get 0 (* hit: 0 survived both evictions *);
  let s = Structcache.stats c in
  Alcotest.(check int) "hits" 2 s.Structcache.hits;
  Alcotest.(check int) "misses" 18 s.Structcache.misses;
  Alcotest.(check int) "evictions" 2 s.Structcache.evictions;
  Alcotest.(check int) "size" 16 s.Structcache.size;
  Alcotest.(check int) "capacity" 16 s.Structcache.capacity;
  get 2;
  Alcotest.(check int) "2 was the one evicted" 19
    (Structcache.stats c).Structcache.misses;
  (match Structcache.find_or_build c ~key:"err" (fun () -> Error "boom") with
  | Error "boom" -> ()
  | Error e -> Alcotest.failf "wrong error: %s" e
  | Ok _ -> Alcotest.fail "error cached as success");
  let s = Structcache.stats c in
  Alcotest.(check int) "errors are never cached" 16 s.Structcache.size;
  Alcotest.(check int) "failed build is a miss" 20 s.Structcache.misses;
  (match Structcache.find_or_build c ~key:"err" (fun () -> Ok entry) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "retry after error failed")

(* The size bound: dense entries are charged their domain size, and least
   recently used ones go until the sum fits the 2^23 budget; the entry
   just built always stays, even alone past the budget.  For a dense
   entry the cache reads only the partition's domain size, so the
   entries share one tiny pmf and a one-cell partition: nothing O(n) is
   built. *)
let test_structcache_budget () =
  let c = Structcache.create () in
  let u = 1 lsl 20 (* the budget is 8u *) in
  let dstar = Families.Dense (Pmf.uniform 1) in
  let get key units =
    ignore
      (Structcache.find_or_build c ~key (fun () ->
           Ok { Structcache.dstar; part = part_of ~n:(units * u) ~cells:1 }))
  in
  get "a" 3;
  get "b" 3;
  get "a" 3 (* hit: "b" is now the LRU *);
  get "c" 2;
  Alcotest.(check int) "within budget: no eviction" 0
    (Structcache.stats c).Structcache.evictions;
  get "d" 1 (* 9u > 8u: "b" goes *);
  let s = Structcache.stats c in
  Alcotest.(check int) "LRU evicted" 1 s.Structcache.evictions;
  Alcotest.(check int) "three stay" 3 s.Structcache.size;
  get "a" 3;
  Alcotest.(check int) "a survived" 2 (Structcache.stats c).Structcache.hits;
  get "huge" 9;
  let s = Structcache.stats c in
  Alcotest.(check int) "an oversized entry stays alone" 1 s.Structcache.size;
  Alcotest.(check int) "the rest evicted" 4 s.Structcache.evictions

(* serve-verdict's working set — four hypotheses at n = 2^16 cycled —
   sits well inside the cache's budget of 2 * max_n and never
   evicts. *)
let test_service_cache_working_set () =
  let t = Service.create () in
  for i = 0 to 11 do
    match
      Service.configure t ~n:(1 lsl 16)
        ~family:(Printf.sprintf "khist:%d" (8 + (i mod 4)))
        ~eps:0.25 ~cells:None ~seed:1
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let s = Service.cache_stats t in
  Alcotest.(check int) "no evictions" 0 s.Structcache.evictions;
  Alcotest.(check int) "every repeat hits" 8 s.Structcache.hits

(* A piecewise entry is charged its pieces, not its domain: sixteen
   distinct staircase:8 hypotheses at the largest n stay cached, where
   charging n apiece would keep two. *)
let test_pieces_charged_by_pieces () =
  let t = Service.create () in
  for seed = 1 to 16 do
    match
      Service.configure t ~n:Service.max_n ~family:"staircase:8" ~eps:0.25
        ~cells:None ~seed
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let s = Service.cache_stats t in
  Alcotest.(check int) "no evictions" 0 s.Structcache.evictions;
  Alcotest.(check int) "all sixteen cached" 16 s.Structcache.size

(* A piecewise entry is charged its cells too: [configure] takes up to n
   cells, and the diagnostic partition then holds a record per cell.  In
   the cache, entries sharing one 2^20-cell partition weigh 2^20 + 8
   apiece, so seven fit the 2^23 budget and the rest are evicted as they
   come (charged their pieces alone, all sixteen would stay).  Through
   [configure], two staircase:8 configs at the largest n with n cells
   weigh 2^22 + 8 each, so the second evicts the first. *)
let test_pieces_charged_by_cells () =
  let c = Structcache.create () in
  let n = 1 lsl 20 in
  let part = part_of ~n ~cells:n in
  let dstar =
    Families.Pieces (Khist.make (part_of ~n ~cells:8) (Array.make 8 (1. /. float_of_int n)))
  in
  for i = 1 to 16 do
    ignore
      (Structcache.find_or_build c ~key:(string_of_int i) (fun () ->
           Ok { Structcache.dstar; part }))
  done;
  let s = Structcache.stats c in
  Alcotest.(check int) "cache: seven fit" 7 s.Structcache.size;
  Alcotest.(check int) "cache: nine evicted" 9 s.Structcache.evictions;
  let t = Service.create () in
  for seed = 1 to 2 do
    match
      Service.configure t ~n:Service.max_n ~family:"staircase:8" ~eps:0.25
        ~cells:(Some Service.max_n) ~seed
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  let s = Service.cache_stats t in
  Alcotest.(check int) "service: the first evicted" 1 s.Structcache.evictions;
  Alcotest.(check int) "service: only the newest cached" 1 s.Structcache.size

let test_structcache_fingerprint_distinct () =
  let fps =
    [
      Structcache.fingerprint ~n:128 ~family:"khist:8" ~seed:1 ~cells:16;
      Structcache.fingerprint ~n:256 ~family:"khist:8" ~seed:1 ~cells:16;
      Structcache.fingerprint ~n:128 ~family:"khist:9" ~seed:1 ~cells:16;
      Structcache.fingerprint ~n:128 ~family:"khist:8" ~seed:2 ~cells:16;
      Structcache.fingerprint ~n:128 ~family:"khist:8" ~seed:1 ~cells:32;
    ]
  in
  Alcotest.(check int) "all coordinates distinguish" (List.length fps)
    (List.length (List.sort_uniq String.compare fps))

let test_service_cache_stats_protocol () =
  let t = Service.create () in
  let config seed =
    Printf.sprintf {|{"cmd":"config","n":64,"family":"uniform","eps":0.25,"seed":%d}|}
      seed
  in
  List.iter
    (fun seed ->
      let _, resp, _ = response t (config seed) in
      Alcotest.(check bool) "config ok" true (is_ok resp))
    [ 1; 2; 1; 1 ];
  let s = Service.cache_stats t in
  Alcotest.(check int) "two distinct fingerprints" 2 s.Structcache.misses;
  Alcotest.(check int) "repeats hit" 2 s.Structcache.hits;
  let _, resp, _ = response t {|{"cmd":"cache_stats"}|} in
  Alcotest.(check bool) "cache_stats ok" true (is_ok resp);
  Alcotest.(check (option int)) "served hits" (Some 2)
    (Option.bind (Jsonl.member "hits" resp) Jsonl.to_int);
  Alcotest.(check (option int)) "served misses" (Some 2)
    (Option.bind (Jsonl.member "misses" resp) Jsonl.to_int)

(* The overflow regression at the daemon boundary: on both decoders a
   counts vector whose sum would wrap [max_int], or would push the
   accumulator's total past 2^53, gets the error and leaves [stats]
   exactly as it was.  Every entry has at most 15 digits, so the fast
   path claims the lines unless spaces inside the array send them to
   the strict decoder. *)
let test_counts_total_bound () =
  let n = 8192 in
  let big = 999_999_999_999_999 in
  let stats = {|{"cmd":"stats"}|} in
  let script sep =
    let counts_line f =
      Printf.sprintf {|{"cmd":"counts","shard":"a","counts":[%s]}|}
        (String.concat sep (List.init n (fun i -> string_of_int (f i))))
    in
    [|
      Printf.sprintf
        {|{"cmd":"config","n":%d,"family":"uniform","eps":0.25,"cells":8,"seed":1}|}
        n;
      {|{"cmd":"observe","shard":"a","xs":[1,2]}|};
      stats;
      counts_line (fun _ -> big) (* the sum wraps past max_int *);
      stats;
      counts_line (fun i -> if i < 9 then big else 0) (* just under 2^53 *);
      stats;
      counts_line (fun i -> if i = 0 then 10_000_000_000_000 else 0);
      stats;
    |]
  in
  let refused =
    Service.rendered_error "Suffstat.observe_counts: total would exceed 2^53"
  in
  List.iter
    (fun (label, batch, sep, counts_fast) ->
      let out, served = serve_in_memory ~batch (script sep) in
      let r = Array.of_list (String.split_on_char '\n' out) in
      Alcotest.(check string) (label ^ ": wrapping sum refused") refused r.(3);
      Alcotest.(check string) (label ^ ": stats unchanged") r.(2) r.(4);
      Alcotest.(check string)
        (label ^ ": under the bound accepted")
        (Jsonl.to_string
           (counts_tree ~shard:"a" ~shard_total:((9 * big) + 2)))
        r.(5);
      Alcotest.(check string) (label ^ ": past 2^53 refused") refused r.(7);
      Alcotest.(check string) (label ^ ": stats unchanged again") r.(6) r.(8);
      (* the observe line always takes the fast path *)
      Alcotest.(check int)
        (label ^ ": decoded by the intended path")
        (if counts_fast then 4 else 1)
        served.Service.fast_hits)
    [ ("strict", 1, ", ", false); ("fast path", 64, ",", true) ]

(* --- batched ingest: partial-prefix error semantics --- *)

let test_observe_sub_partial () =
  let part = part_of ~n:8 ~cells:2 in
  let st = Suffstat.create ~part in
  (try
     Suffstat.observe_all st [| 1; 2; 99; 3 |];
     Alcotest.fail "out-of-domain accepted"
   with Invalid_argument m ->
     Alcotest.(check string) "observe's own message"
       "Suffstat.observe: outside domain" m);
  (* the prefix before the bad element is fully ingested, the rest not —
     exactly what element-at-a-time observe leaves behind *)
  let by_element = Suffstat.create ~part in
  (try Array.iter (fun x -> Suffstat.observe by_element x) [| 1; 2; 99; 3 |]
   with Invalid_argument _ -> ());
  Alcotest.(check int) "prefix ingested" 2 (Suffstat.total st);
  Alcotest.(check bool) "state = element-at-a-time" true
    (Suffstat.equal st by_element);
  (* a clean batch after the failure still works: scratch was re-zeroed *)
  Suffstat.observe_all st [| 0; 7 |];
  Alcotest.(check int) "subsequent batch clean" 4 (Suffstat.total st);
  Alcotest.(check bool) "bad slice rejected" true
    (try
       Suffstat.observe_sub st [| 1 |] ~pos:1 ~len:1;
       false
     with Invalid_argument _ -> true)

(* --- shard storage across config and reset --- *)

let configure_ok t ?(n = 256) ?(cells = 16) family =
  match Service.configure t ~n ~family ~eps:0.25 ~cells:(Some cells) ~seed:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let observe_ok t shard xs =
  match Service.observe t ~shard xs with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* The accumulator outlives a config over the same partition, cleared
   in place; a new partition drops it; a refused config changes
   nothing. *)
let test_storage_outlives_config () =
  let t = Service.create () in
  let acc () = Option.get (Service.merged t) in
  configure_ok t "uniform";
  observe_ok t "a" [| 1; 2 |];
  observe_ok t "b" [| 3 |];
  let first = acc () in
  (* another hypothesis over the same n and cells: the storage stays *)
  configure_ok t "zipf:1.1";
  Alcotest.(check bool) "configure starts from no shards" true
    (Service.shard_totals t = [] && Option.is_none (Service.merged t));
  Alcotest.(check int) "cleared in place" 0 (Suffstat.total first);
  observe_ok t "x" [| 5 |];
  Alcotest.(check bool) "accumulator carried over" true (acc () == first);
  Alcotest.(check int) "old counts gone" 0 (Suffstat.counts first).(1);
  Alcotest.(check int) "holds only the new config" 1 (Suffstat.total first);
  ignore (response t {|{"cmd":"reset"}|});
  Alcotest.(check int) "reset clears in place" 0 (Suffstat.total first);
  let _, resp, _ = response t {|{"cmd":"verdict"}|} in
  Alcotest.(check bool) "no data after reset" false (is_ok resp);
  observe_ok t "a" [| 7 |];
  Alcotest.(check bool) "reset keeps the accumulator" true (acc () == first);
  (* a new partition drops the storage for the collector *)
  configure_ok t ~n:512 "uniform";
  observe_ok t "a" [| 300 |];
  let acc512 = acc () in
  Alcotest.(check bool) "new n: new accumulator" true (acc512 != first);
  Alcotest.(check int) "new n: new domain" 512
    (Array.length (Suffstat.counts acc512));
  configure_ok t ~n:512 ~cells:32 "uniform";
  observe_ok t "a" [| 300 |];
  Alcotest.(check bool) "new cells drop too" true (acc () != acc512);
  (* a refused config changes nothing *)
  let before = acc () in
  let _, resp, _ =
    response t {|{"cmd":"config","n":0,"family":"uniform","eps":0.25,"seed":1}|}
  in
  Alcotest.(check bool) "bad config refused" false (is_ok resp);
  Alcotest.(check bool) "refused config keeps the accumulator" true
    (acc () == before);
  Alcotest.(check (list (pair string int)))
    "and the shards" [ ("a", 1) ] (Service.shard_totals t)

(* --- reference model: one count vector per shard --- *)

(* The design the engine replaced, kept as an executable specification:
   every shard owns a [Suffstat], and a verdict folds them with
   [Suff_fold.reduce] in arrival order.  Requests are answered line at a
   time through the strict parser.  Building hypotheses (and the
   structure cache behind [cache_stats]) is delegated to a private
   [Service.t], which never ingests. *)
module Ref_engine = struct
  type t = {
    svc : Service.t;
    mutable config : Service.config option;
    mutable shards : (string * Suffstat.t) list;  (** arrival order *)
  }

  let create () = { svc = Service.create (); config = None; shards = [] }

  let merged t =
    match t.shards with
    | [] -> None
    | shards -> Some (Suff_fold.reduce (Array.of_list (List.map snd shards)))

  let shard_totals t =
    List.map (fun (name, st) -> (name, Suffstat.total st)) t.shards

  let num i = Jsonl.Num (float_of_int i)
  let not_configured = error_tree "not configured (send a config request first)"

  let ingest t shard add ok =
    match t.config with
    | None -> not_configured
    | Some config ->
        let known = List.assoc_opt shard t.shards in
        let st =
          match known with
          | Some st -> st
          | None -> Suffstat.create ~part:config.Service.part
        in
        let response, failed =
          match add st with
          | () -> (Wire.ok (ok (Suffstat.total st)), false)
          | exception Invalid_argument msg -> (error_tree msg, true)
        in
        (* A new name is kept only if the request succeeded or added a
           value: a rejected request leaves no empty shard behind. *)
        if Option.is_none known && ((not failed) || Suffstat.total st > 0) then
          t.shards <- t.shards @ [ (shard, st) ];
        response

  let verdict t =
    match (t.config, merged t) with
    | None, _ -> not_configured
    | Some _, None -> error_tree "no observations yet"
    | Some _, Some st when Suffstat.total st = 0 ->
        error_tree "no observations yet"
    | Some { Service.dstar; eps; _ }, Some st ->
        let stat = Suffstat.statistic st ~dstar ~eps in
        let threshold = Chi2stat.accept_threshold ~m:stat.Chi2stat.m ~eps in
        let verdict =
          if stat.Chi2stat.z <= threshold then Verdict.Accept
          else Verdict.Reject
        in
        Wire.ok
          [
            ("cmd", Jsonl.Str "verdict");
            ("verdict", Jsonl.Str (Verdict.to_string verdict));
            ("z", Jsonl.Num stat.Chi2stat.z);
            ("threshold", Jsonl.Num threshold);
            ("total", num (Suffstat.total st));
            ("shards", num (List.length t.shards));
          ]

  let handle t (req : Wire.request) =
    match req with
    | Wire.Config { n; family; eps; cells; seed } -> (
        match Service.configure t.svc ~n ~family ~eps ~cells ~seed with
        | Error msg -> error_tree msg
        | Ok c ->
            t.config <- Some c;
            t.shards <- [];
            Wire.ok
              [
                ("cmd", Jsonl.Str "config");
                ("n", num c.Service.n);
                ("family", Jsonl.Str c.Service.family);
                ("eps", Jsonl.Num c.Service.eps);
                ("cells", num c.Service.cells);
                ("seed", num c.Service.seed);
              ])
    | Wire.Observe { shard; xs } ->
        ingest t shard
          (fun st -> Suffstat.observe_all st xs)
          (fun total ->
            [
              ("cmd", Jsonl.Str "observe");
              ("shard", Jsonl.Str shard);
              ("added", num (Array.length xs));
              ("shard_total", num total);
            ])
    | Wire.Counts { shard; counts } ->
        ingest t shard
          (fun st -> add_counts st counts)
          (fun total ->
            [
              ("cmd", Jsonl.Str "counts");
              ("shard", Jsonl.Str shard);
              ("shard_total", num total);
            ])
    | Wire.Verdict -> verdict t
    | Wire.Stats ->
        let totals = shard_totals t in
        Wire.ok
          [
            ("cmd", Jsonl.Str "stats");
            ("configured", Jsonl.Bool (Option.is_some t.config));
            ( "shards",
              Jsonl.List
                (List.map
                   (fun (name, total) ->
                     Jsonl.Obj
                       [ ("name", Jsonl.Str name); ("total", num total) ])
                   totals) );
            ("total", num (List.fold_left (fun a (_, c) -> a + c) 0 totals));
          ]
    | Wire.Reset ->
        t.shards <- [];
        Wire.ok [ ("cmd", Jsonl.Str "reset") ]
    | Wire.Cache_stats ->
        let s = Service.cache_stats t.svc in
        Wire.ok
          [
            ("cmd", Jsonl.Str "cache_stats");
            ("size", num s.Structcache.size);
            ("capacity", num s.Structcache.capacity);
            ("hits", num s.Structcache.hits);
            ("misses", num s.Structcache.misses);
            ("evictions", num s.Structcache.evictions);
          ]
    | Wire.Quit -> Wire.ok [ ("cmd", Jsonl.Str "quit") ]

  (* One request line: [None] for a blank line, else the response and
     whether to go on. *)
  let line t l =
    if String.trim l = "" then None
    else
      match Wire.request_of_line l with
      | Error msg -> Some (error_tree msg, true)
      | Ok req -> Some (handle t req, req <> Wire.Quit)
end

(* Scripts over two domain sizes and two cell counts (so configs keep or
   drop the accumulator), three families, resets, refused configs,
   observes over a dozen shard names with out-of-domain values, counts
   vectors sized for either domain (so some are short) with the odd
   negative entry, verdicts and stats.  Some lines carry blanks and
   whitespace, so the strict parser takes them on the fast-path run. *)
let engine_script r =
  let ns = [| 64; 65 + Randkit.Rng.int r 64 |] in
  let config () =
    Printf.sprintf
      {|{"cmd":"config","n":%d,"family":"%s","eps":0.25,"cells":%d,"seed":%d}|}
      ns.(Randkit.Rng.int r 2)
      [| "uniform"; "staircase:2"; "zipf:1.1" |].(Randkit.Rng.int r 3)
      (if Randkit.Rng.int r 4 = 0 then 4 else 8)
      (Randkit.Rng.int r 2)
  in
  let shard () = Printf.sprintf "s%d" (Randkit.Rng.int r 12) in
  let steps = 40 + Randkit.Rng.int r 80 in
  let line () =
    match Randkit.Rng.int r 16 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        let xs =
          List.init (Randkit.Rng.int r 7) (fun _ ->
              string_of_int (Randkit.Rng.int r (ns.(1) + 4) - 2))
        in
        Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[%s]}|} (shard ())
          (String.concat "," xs)
    | 6 | 7 ->
        let negative = Randkit.Rng.int r 5 = 0 in
        let counts =
          List.init ns.(Randkit.Rng.int r 2) (fun _ ->
              if negative && Randkit.Rng.int r 16 = 0 then "-1"
              else string_of_int (Randkit.Rng.int r 3))
        in
        Printf.sprintf {|{"cmd":"counts","shard":"%s","counts":[%s]}|}
          (shard ()) (String.concat "," counts)
    | 8 | 9 -> {|{"cmd":"verdict"}|}
    | 10 -> {|{"cmd":"reset"}|}
    | 11 | 12 -> config ()
    | 13 -> {|{"cmd":"stats"}|}
    | 14 ->
        Printf.sprintf {| {"cmd":"observe","shard":"%s","xs":[ 0 ]}|}
          (shard ())
    | _ -> {|{"cmd":"config","n":0,"family":"uniform","eps":0.25,"seed":1}|}
  in
  Array.of_list (config () :: List.init steps (fun _ -> line ()))

(* The one-accumulator engine, fed through [Service.Batch] at several
   batch sizes, against the per-shard reference stepped line by line in
   lockstep: after every executed batch the transcripts so far are
   byte-equal, the accumulator is bitwise the reference's fold, the
   shard totals are the reference's, and they sum to the accumulator's
   total. *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"accumulator = per-shard reference" ~count:60
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let script = engine_script (Randkit.Rng.create ~seed) in
      List.for_all
        (fun batch ->
          let t = Service.create () and reference = Ref_engine.create () in
          let ex = Service.Batch.create ~batch t in
          let out = Buffer.create 4096 and ref_out = Buffer.create 4096 in
          let stopped = ref false and ok = ref true in
          let check () =
            let total =
              Option.fold ~none:0 ~some:Suffstat.total (Service.merged t)
            in
            ok :=
              !ok
              && String.equal (Buffer.contents out) (Buffer.contents ref_out)
              && (match (Service.merged t, Ref_engine.merged reference) with
                 | None, None -> true
                 | Some a, Some b -> Suffstat.equal a b
                 | _ -> false)
              && Service.shard_totals t = Ref_engine.shard_totals reference
              && List.fold_left (fun a (_, c) -> a + c) 0
                   (Service.shard_totals t)
                 = total
          in
          let execute () =
            if not (Service.Batch.execute ex ~out) then stopped := true;
            check ()
          in
          Array.iter
            (fun l ->
              if not !stopped then begin
                Service.Batch.push ex l;
                (match Ref_engine.line reference l with
                | None -> ()
                | Some (resp, continue) ->
                    Buffer.add_string ref_out (Jsonl.to_string resp);
                    Buffer.add_char ref_out '\n';
                    if not continue then stopped := true);
                if !stopped || not (Service.Batch.want_more ex) then execute ()
              end)
            script;
          if not !stopped then execute ();
          !ok)
        [ 1; 7; 64 ])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "suffstat",
        [
          qc prop_suffstat_split_exact;
          qc prop_suffstat_monoid_laws;
          Alcotest.test_case "observe_counts" `Quick test_suffstat_observe_counts;
          Alcotest.test_case "observe_counts validates first" `Quick
            test_suffstat_observe_counts_atomic;
          Alcotest.test_case "total bounded by 2^53" `Quick
            test_suffstat_total_bound;
          qc prop_suffstat_merge_into_matches_reduce;
          Alcotest.test_case "empty_like siblings independent" `Quick
            test_suffstat_siblings_independent;
          qc prop_suffstat_clear_is_fresh;
          Alcotest.test_case "fits" `Quick test_suffstat_fits;
          Alcotest.test_case "matches chi2stat" `Quick test_suffstat_matches_chi2;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "strict parse" `Quick test_jsonl_parse_strict;
          Alcotest.test_case "numbers" `Quick test_jsonl_numbers;
          qc prop_jsonl_fuzz_roundtrip;
        ] );
      ( "scan",
        [
          Alcotest.test_case "canonical lines hit" `Quick test_scan_canonical;
          Alcotest.test_case "everything else falls back" `Quick
            test_scan_fallback;
          qc prop_scan_matches_strict;
        ] );
      ( "serve",
        [
          qc prop_serve_batched_identical;
          Alcotest.test_case "blank lines and quit" `Quick
            test_serve_blank_and_quit;
          Alcotest.test_case "rendered responses" `Quick test_rendered_responses;
          Alcotest.test_case "partial batch ingest" `Quick
            test_observe_sub_partial;
          Alcotest.test_case "batches allocate nothing" `Quick
            test_batch_allocates_nothing;
          Alcotest.test_case "a config miss allocates one array" `Quick
            test_configure_miss_allocates_one_array;
          Alcotest.test_case "a piecewise verdict allocates per cell" `Quick
            test_pieces_verdict_allocates_per_cell;
          Alcotest.test_case "shard interning = strict serve" `Quick
            test_shard_interning_differential;
        ] );
      ( "structcache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_structcache_lru;
          Alcotest.test_case "domain-size budget" `Quick test_structcache_budget;
          Alcotest.test_case "working set never evicts" `Quick
            test_service_cache_working_set;
          Alcotest.test_case "pieces are charged as pieces" `Quick
            test_pieces_charged_by_pieces;
          Alcotest.test_case "pieces are charged their cells too" `Quick
            test_pieces_charged_by_cells;
          Alcotest.test_case "fingerprint coordinates" `Quick
            test_structcache_fingerprint_distinct;
          Alcotest.test_case "cache_stats protocol" `Quick
            test_service_cache_stats_protocol;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "session" `Quick test_service_protocol;
          Alcotest.test_case "verdict = suffstat" `Quick
            test_service_verdict_matches_suffstat;
          qc prop_served_pieces_match_dense;
          Alcotest.test_case "family specs" `Quick test_family_of_spec;
          Alcotest.test_case "merged in place" `Quick
            test_service_merged_in_place;
          Alcotest.test_case "rejected counts leave no partial state" `Quick
            test_counts_negative_leaves_no_partial_state;
          Alcotest.test_case "counts total bounded by 2^53" `Quick
            test_counts_total_bound;
          Alcotest.test_case "config n capped" `Quick test_config_n_capped;
          Alcotest.test_case "shard names capped" `Quick
            test_shard_names_capped;
          Alcotest.test_case "shard ids capped" `Quick test_shard_id_capped;
        ] );
      ( "storage",
        [
          Alcotest.test_case "outlives config and reset" `Quick
            test_storage_outlives_config;
          qc prop_engine_matches_reference;
        ] );
      ( "replay",
        [
          Alcotest.test_case "identical across topologies" `Quick
            test_replay_identical;
          Alcotest.test_case "matches harness trials" `Quick
            test_replay_matches_harness_trials;
          Alcotest.test_case "bad args" `Quick test_replay_rejects_bad_args;
        ] );
    ]
