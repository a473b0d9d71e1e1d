(* netio: the socket transport's determinism contract, driven without
   threads.  Every reactor test hands socketpair ends to [add_connection]
   and interleaves [Netio.step] with adversarially chunked client I/O
   from the same thread, so schedules are reproducible; expectations are
   never hand-written transcripts but the output of [Service.serve] (the
   in-process engine) on the same request stream — the byte-identity
   contract E22 gates at scale. *)

(* The tests' view of [Reader.next_span]: the line as a string. *)
type line = Line of string | Pending | Eof | Too_long

let next r =
  match Netio.Reader.next_span r with
  | `Span (pos, len) -> Line (Bytes.sub_string (Netio.Reader.contents r) pos len)
  | `Pending -> Pending
  | `Eof -> Eof
  | `Too_long -> Too_long

let line_pp fmt = function
  | Line l -> Format.fprintf fmt "Line %S" l
  | Pending -> Format.fprintf fmt "Pending"
  | Eof -> Format.fprintf fmt "Eof"
  | Too_long -> Format.fprintf fmt "Too_long"

let result_t = Alcotest.testable line_pp ( = )

let nb_socketpair () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  (a, b)

let write_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "short write in test setup" (String.length s) n

let refill_data r ~expect =
  match Netio.Reader.refill r with
  | `Data k -> Alcotest.(check int) "refill byte count" expect k
  | `Eof -> Alcotest.fail "refill: unexpected Eof"
  | `Would_block -> Alcotest.fail "refill: unexpected Would_block"

(* Drink the socket dry into the reader's buffer. *)
let pump r =
  let rec go () =
    match Netio.Reader.refill r with
    | `Data _ -> go ()
    | `Would_block -> ()
    | `Eof -> Alcotest.fail "pump: unexpected Eof"
  in
  go ()

(* --- Reader ---------------------------------------------------------- *)

let test_reader_partial_lines () =
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create rd in
  Alcotest.check result_t "empty buffer" Pending (next r);
  write_all wr "hel";
  refill_data r ~expect:3;
  Alcotest.check result_t "no newline yet" Pending (next r);
  write_all wr "lo\nwor";
  refill_data r ~expect:6;
  Alcotest.check result_t "first line" (Line "hello") (next r);
  Alcotest.check result_t "second still partial" Pending (next r);
  (match Netio.Reader.refill r with
  | `Would_block -> ()
  | `Data _ | `Eof -> Alcotest.fail "expected Would_block on drained socket");
  write_all wr "ld\n";
  refill_data r ~expect:3;
  Alcotest.check result_t "completed across three reads"
    (Line "world") (next r);
  Unix.close wr;
  (match Netio.Reader.refill r with
  | `Eof -> ()
  | `Data _ | `Would_block -> Alcotest.fail "expected Eof");
  Alcotest.check result_t "eof" Eof (next r);
  Unix.close rd

let test_reader_multi_lines_and_eof_midline () =
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create rd in
  write_all wr "a\nbb\nccc\nd";
  refill_data r ~expect:10;
  Alcotest.check result_t "1/3" (Line "a") (next r);
  Alcotest.check result_t "2/3" (Line "bb") (next r);
  Alcotest.check result_t "3/3" (Line "ccc") (next r);
  Alcotest.check result_t "tail incomplete" Pending (next r);
  Unix.close wr;
  (match Netio.Reader.refill r with
  | `Eof -> ()
  | `Data _ | `Would_block -> Alcotest.fail "expected Eof");
  Alcotest.check result_t "unterminated final line, like input_line"
    (Line "d") (next r);
  Alcotest.check result_t "then eof" Eof (next r);
  Alcotest.check result_t "eof is sticky" Eof (next r);
  Unix.close rd

(* The buffer starts at 64 KiB.  A 60 000-byte line ends just before
   that boundary and an 80 000-byte one straddles it, fed in 7 000-byte
   writes with lines popped as they complete, the way the reactor
   consumes them: refills cross the boundary, compaction moves the
   second line's head to the front, and growth doubles the buffer under
   it. *)
let test_reader_buffer_growth () =
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create rd in
  let first = String.make 60_000 'a' and second = String.make 80_000 'b' in
  let stream = first ^ "\n" ^ second ^ "\nafter\n" in
  let got = ref [] in
  let rec pop () =
    match next r with
    | Line l ->
        got := l :: !got;
        pop ()
    | _ -> ()
  in
  let chunk = 7_000 in
  let rec feed pos =
    if pos < String.length stream then begin
      let len = min chunk (String.length stream - pos) in
      write_all wr (String.sub stream pos len);
      pump r;
      pop ();
      feed (pos + len)
    end
  in
  feed 0;
  Alcotest.(check (list int)) "line lengths" [ 60_000; 80_000; 5 ]
    (List.rev_map String.length !got);
  Alcotest.(check bool) "lines intact across refills, compaction and growth"
    true
    (List.rev !got = [ first; second; "after" ]);
  Alcotest.check result_t "dry" Pending (next r);
  Unix.close wr;
  Unix.close rd

let test_reader_too_long () =
  (* terminated line over the bound *)
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~max_line_bytes:8 rd in
  write_all wr "123456789\nok\n";
  pump r;
  Alcotest.check result_t "9 bytes > 8" Too_long (next r);
  Alcotest.check result_t "poisoned for good" Too_long (next r);
  Unix.close wr;
  Unix.close rd;
  (* exactly the bound passes *)
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~max_line_bytes:8 rd in
  write_all wr "12345678\n";
  pump r;
  Alcotest.check result_t "exactly max_line_bytes is fine"
    (Line "12345678") (next r);
  Unix.close wr;
  Unix.close rd;
  (* an unterminated line overflows without ever seeing a newline *)
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~max_line_bytes:8 rd in
  write_all wr "0123456789";
  pump r;
  Alcotest.check result_t "unterminated overflow" Too_long (next r);
  Unix.close wr;
  Unix.close rd

(* --- listen addresses ------------------------------------------------ *)

let test_addr_of_string () =
  let ok s expect =
    match Netio.addr_of_string s with
    | Ok a -> Alcotest.(check string) s expect (Netio.pp_addr a)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  let bad s =
    match Netio.addr_of_string s with
    | Ok a -> Alcotest.failf "%s accepted as %s" s (Netio.pp_addr a)
    | Error _ -> ()
  in
  ok "8080" "0.0.0.0:8080";
  ok ":8080" "0.0.0.0:8080";
  ok "127.0.0.1:9" "127.0.0.1:9";
  ok "*:7" "*:7";
  ok "0" "0.0.0.0:0";
  bad "";
  bad "nope";
  bad "1.2.3.4:notaport";
  bad "1.2.3.4:70000";
  bad ":-1";
  Alcotest.(check string)
    "unix path prints itself" "/tmp/h.sock"
    (Netio.pp_addr (Netio.Unix_path "/tmp/h.sock"))

(* --- reactor harness ------------------------------------------------- *)

let observe_line ~shard xs =
  Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[%s]}|} shard
    (String.concat "," (List.map string_of_int xs))

let configure svc =
  match
    Service.configure svc ~n:512 ~family:"staircase:4" ~eps:0.25 ~cells:None
      ~seed:5
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* The expectation oracle: what [Service.serve] answers on this request
   stream (any batch — E21 pins batch-independence). *)
let reference_transcript ?(batch = 8) script =
  let svc = Service.create () in
  configure svc;
  let arr = Array.of_list script in
  let idx = ref 0 in
  let read_line ~block:_ =
    if !idx < Array.length arr then begin
      let l = arr.(!idx) in
      incr idx;
      Some l
    end
    else None
  in
  let out = Buffer.create 4096 in
  let write b = Buffer.add_buffer out b in
  let (_ : Service.serve_stats) =
    Service.serve svc ~batch ~read_line ~write
  in
  (Buffer.contents out, svc)

let read_avail tmp buf fd =
  let rec go () =
    match Unix.read fd tmp 0 (Bytes.length tmp) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf tmp 0 k;
        go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

let find_shard svc name = List.assoc_opt name (Service.shard_totals svc)

(* Per-client request stream: observe bursts over a few private shards,
   one whitespace-prefixed line (strict-parser fallback), one garbage
   line (wire error), one blank line (skipped without a response). *)
let client_script i =
  let r = Randkit.Rng.create ~seed:(1000 + i) in
  let lines = ref [] in
  for j = 0 to 19 do
    let len = 1 + Randkit.Rng.int r 8 in
    let xs = List.init len (fun _ -> Randkit.Rng.int r 512) in
    lines :=
      observe_line ~shard:(Printf.sprintf "c%d.s%d" i (j mod 3)) xs :: !lines
  done;
  let spice =
    [
      Printf.sprintf {|  {"cmd":"observe","shard":"c%d.w","xs":[%d]}|} i i;
      "definitely not json";
      "";
    ]
  in
  List.rev !lines @ spice
  @ [ observe_line ~shard:(Printf.sprintf "c%d.s0" i) [ i; i + 1 ] ]

let test_multi_client_determinism () =
  let clients = 3 in
  let shared = Service.create () in
  configure shared;
  let reactor =
    Netio.create_reactor ~batch:5 ~service:shared
      ~listeners:[] ()
  in
  let scripts = Array.init clients client_script in
  let payloads =
    Array.map
      (fun ls -> String.concat "" (List.map (fun l -> l ^ "\n") ls))
      scripts
  in
  let pairs =
    Array.init clients (fun _ ->
        Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Array.iter (fun (sfd, _) -> Netio.add_connection reactor sfd) pairs;
  Array.iter (fun (_, cfd) -> Unix.set_nonblock cfd) pairs;
  let transcripts = Array.init clients (fun _ -> Buffer.create 4096) in
  let tmp = Bytes.create 4096 in
  let drain_all () =
    Array.iteri (fun i (_, cfd) -> read_avail tmp transcripts.(i) cfd) pairs
  in
  (* adversarial interleaving: round-robin the clients, trickling
     byte-odd chunk sizes so lines split across reads constantly *)
  let sent = Array.make clients 0 in
  let sizes = [| 1; 3; 2; 7; 1; 11; 5; 64; 2; 23 |] in
  let tick = ref 0 in
  let unfinished () =
    let u = ref false in
    Array.iteri
      (fun i p -> if sent.(i) < String.length p then u := true)
      payloads;
    !u
  in
  while unfinished () do
    Array.iteri
      (fun i (_, cfd) ->
        let len = String.length payloads.(i) in
        if sent.(i) < len then begin
          let chunk =
            min sizes.((!tick + (3 * i)) mod Array.length sizes) (len - sent.(i))
          in
          match Unix.write_substring cfd payloads.(i) sent.(i) chunk with
          | k -> sent.(i) <- sent.(i) + k
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
        end)
      pairs;
    Netio.step reactor ~timeout:0.0;
    drain_all ();
    incr tick
  done;
  Array.iter (fun (_, cfd) -> Unix.shutdown cfd Unix.SHUTDOWN_SEND) pairs;
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 10_000 do
    Netio.step reactor ~timeout:0.01;
    drain_all ();
    incr guard
  done;
  Alcotest.(check int) "all connections closed" 0 (Netio.active reactor);
  drain_all ();
  (* per-client byte identity against [Service.serve] *)
  Array.iteri
    (fun i script ->
      let expect, _ = reference_transcript ~batch:9 script in
      Alcotest.(check string)
        (Printf.sprintf "client %d transcript" i)
        expect
        (Buffer.contents transcripts.(i)))
    scripts;
  (* final engine state = one process replaying the merged arrival order
     (shards are client-private, so client-major replay is one such
     order; counts add exactly, so any order agrees bitwise) *)
  let _, ref_svc =
    reference_transcript ~batch:3 (List.concat (Array.to_list scripts))
  in
  let norm svc = List.sort compare (Service.shard_totals svc) in
  Alcotest.(check (list (pair string int)))
    "shard totals" (norm ref_svc) (norm shared);
  (match (Service.merged shared, Service.merged ref_svc) with
  | Some a, Some b ->
      Alcotest.(check bool) "merged suffstat bit-equal" true (Suffstat.equal a b)
  | _ -> Alcotest.fail "missing merged state");
  let z svc =
    match Service.verdict_info svc with
    | Ok v -> v.Service.z
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool)
    "verdict statistic bit-equal" true
    (Float.equal (z shared) (z ref_svc));
  let st = Netio.stats reactor in
  Alcotest.(check int) "accepted" clients st.Netio.accepted;
  Alcotest.(check int) "no write drops" 0 st.Netio.write_drops;
  Array.iter
    (fun (_, cfd) -> try Unix.close cfd with Unix.Unix_error _ -> ())
    pairs

let test_quit_mid_batch () =
  let shared = Service.create () in
  configure shared;
  let reactor =
    Netio.create_reactor ~batch:8 ~service:shared
      ~listeners:[] ()
  in
  let script =
    [
      observe_line ~shard:"q" [ 1; 2; 3 ];
      observe_line ~shard:"q" [ 4; 5 ];
      {|{"cmd":"quit"}|};
      observe_line ~shard:"q" [ 6; 7; 8; 9 ];
      observe_line ~shard:"tail" [ 1 ];
    ]
  in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") script) in
  let sfd, cfd = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Netio.add_connection reactor sfd;
  Unix.set_nonblock cfd;
  (* everything lands in one batch: quit at index 2, two staged observes
     behind it *)
  write_all cfd payload;
  let buf = Buffer.create 1024 and tmp = Bytes.create 4096 in
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 1000 do
    Netio.step reactor ~timeout:0.01;
    read_avail tmp buf cfd;
    incr guard
  done;
  Alcotest.(check int) "quit closes the connection" 0 (Netio.active reactor);
  read_avail tmp buf cfd;
  let expect, _ = reference_transcript ~batch:8 script in
  Alcotest.(check string) "responses stop at quit" expect (Buffer.contents buf);
  Alcotest.(check (option int))
    "post-quit observes dropped" (Some 5) (find_shard shared "q");
  Alcotest.(check bool)
    "shard after quit never created" true
    (Option.is_none (find_shard shared "tail"));
  Unix.close cfd

(* Stdio as a connection: a pipe pair left blocking, as the daemon's
   inherited stdin/stdout are.  The reactor reads only once select says
   there is something to read, so a step on an idle pipe returns.  The
   script quits with a line behind it: the transcript is the
   reference's, and closing the connection closes both fds — the
   consumer reads EOF and the producer gets EPIPE. *)
let test_pipe_pair () =
  let shared = Service.create () in
  configure shared;
  let reactor =
    Netio.create_reactor ~batch:4 ~service:shared ~listeners:[] ()
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  Netio.add_pipe reactor ~input:in_r ~output:out_w;
  Netio.step reactor ~timeout:0.0;
  Alcotest.(check int) "an idle pipe stays open" 1 (Netio.active reactor);
  let script =
    List.init 10 (fun i -> observe_line ~shard:"p" [ i; i + 1 ])
    @ [ {|{"cmd":"quit"}|}; observe_line ~shard:"after" [ 1 ] ]
  in
  write_all in_w (String.concat "" (List.map (fun l -> l ^ "\n") script));
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 1000 do
    Netio.step reactor ~timeout:0.01;
    incr guard
  done;
  Alcotest.(check int) "quit closes the pipe pair" 0 (Netio.active reactor);
  Unix.set_nonblock out_r;
  let buf = Buffer.create 1024 and tmp = Bytes.create 4096 in
  read_avail tmp buf out_r;
  let expect, _ = reference_transcript ~batch:4 script in
  Alcotest.(check string) "responses stop at quit" expect (Buffer.contents buf);
  Alcotest.(check int) "output closed: the consumer reads EOF" 0
    (Unix.read out_r tmp 0 1);
  (match Unix.write_substring in_w "x\n" 0 2 with
  | _ -> Alcotest.fail "input still open after the connection closed"
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  Alcotest.(check bool)
    "line after quit never parsed" true
    (Option.is_none (find_shard shared "after"));
  Unix.close in_w;
  Unix.close out_r

let test_overlong_line_closes () =
  let shared = Service.create () in
  configure shared;
  let reactor =
    Netio.create_reactor ~batch:4
      ~max_line_bytes:64 ~service:shared ~listeners:[] ()
  in
  let payload =
    observe_line ~shard:"ok" [ 7 ]
    ^ "\n" ^ String.make 300 'x' ^ "\n"
    ^ observe_line ~shard:"never" [ 1 ]
    ^ "\n"
  in
  let sfd, cfd = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Netio.add_connection reactor sfd;
  Unix.set_nonblock cfd;
  write_all cfd payload;
  let buf = Buffer.create 1024 and tmp = Bytes.create 4096 in
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 1000 do
    Netio.step reactor ~timeout:0.01;
    read_avail tmp buf cfd;
    incr guard
  done;
  Alcotest.(check int) "overlong line closes" 0 (Netio.active reactor);
  read_avail tmp buf cfd;
  let expect =
    {|{"ok":true,"cmd":"observe","shard":"ok","added":1,"shard_total":1}|}
    ^ "\n" ^ Netio.overlong_error 64 ^ "\n"
  in
  Alcotest.(check string)
    "good line answered, then one wire error" expect (Buffer.contents buf);
  let st = Netio.stats reactor in
  Alcotest.(check int) "overlong counted" 1 st.Netio.overlong;
  Alcotest.(check bool)
    "line after the overflow never parsed" true
    (Option.is_none (find_shard shared "never"));
  Unix.close cfd

let test_backpressure_bounded_queue () =
  let shared = Service.create () in
  configure shared;
  let max_pending = 512 in
  let reactor =
    Netio.create_reactor ~batch:4
      ~max_pending_bytes:max_pending ~service:shared ~listeners:[] ()
  in
  let script = List.init 400 (fun k -> observe_line ~shard:"bp" [ k mod 512 ]) in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") script) in
  let sfd, cfd = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* shrink the kernel's help so the reactor's own queue is what absorbs
     the imbalance (best-effort; the peak bound below holds regardless) *)
  (try Unix.setsockopt_int sfd Unix.SO_SNDBUF 1 with Unix.Unix_error _ -> ());
  Netio.add_connection reactor sfd;
  Unix.set_nonblock cfd;
  let sent = ref 0 in
  let len = String.length payload in
  let guard = ref 0 in
  while !sent < len && !guard < 100_000 do
    (match Unix.write_substring cfd payload !sent (len - !sent) with
    | k -> sent := !sent + k
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ());
    Netio.step reactor ~timeout:0.0;
    incr guard
  done;
  Alcotest.(check int) "payload fully written" len !sent;
  (* a client that goes silent: the reactor parks instead of buffering
     responses without bound *)
  for _ = 1 to 50 do
    Netio.step reactor ~timeout:0.0
  done;
  let st = Netio.stats reactor in
  Alcotest.(check bool)
    "backpressure engaged (queue reached the bound)" true
    (st.Netio.peak_pending >= max_pending);
  Alcotest.(check bool)
    "queue bounded by max_pending + one batch" true
    (st.Netio.peak_pending <= max_pending + 512);
  (* the client wakes up and drains: nothing lost, bytes identical *)
  let expect, _ = reference_transcript ~batch:4 script in
  let buf = Buffer.create (1 lsl 16) and tmp = Bytes.create 4096 in
  let guard = ref 0 in
  while Buffer.length buf < String.length expect && !guard < 100_000 do
    Netio.step reactor ~timeout:0.0;
    read_avail tmp buf cfd;
    incr guard
  done;
  Alcotest.(check string)
    "transcript identical through the stall" expect (Buffer.contents buf);
  Unix.shutdown cfd Unix.SHUTDOWN_SEND;
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 10_000 do
    Netio.step reactor ~timeout:0.01;
    read_avail tmp buf cfd;
    incr guard
  done;
  Alcotest.(check int) "closed after drain" 0 (Netio.active reactor);
  Unix.close cfd

(* The premise of [Netio.nursery_words]: once configured and warm, the
   reactor allocates only short-lived transport words per [select]
   round and per line, and almost none of them survive a minor
   collection, so the daemon's small nursery cannot turn into GC churn.
   Run under that nursery (restored afterwards) on a socketpair, with
   canonical 16-value observe lines over 16 shards; the client's reads
   land in one reused buffer so the test keeps nothing alive either. *)
let test_reactor_fits_nursery () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = Netio.nursery_words };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  let svc = Service.create () in
  configure svc;
  let reactor = Netio.create_reactor ~service:svc ~listeners:[] () in
  let sfd, cfd = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Netio.add_connection reactor sfd;
  Unix.set_nonblock cfd;
  let line i =
    observe_line ~shard:(Printf.sprintf "s%d" (i mod 16))
      (List.init 16 (fun j -> ((31 * i) + j) mod 512))
    ^ "\n"
  in
  let one = line 0 and many = String.concat "" (List.init 64 line) in
  let sink = Bytes.create 65536 in
  let rec discard () =
    match Unix.read cfd sink 0 (Bytes.length sink) with
    | 0 -> ()
    | _ -> discard ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  let lines = ref 0 in
  (* one reactor round over [payload]'s [k] lines; the words it
     allocated *)
  let round payload k =
    ignore (Unix.write_substring cfd payload 0 (String.length payload) : int);
    lines := !lines + k;
    let (), { Refkit.Alloc.minor; _ } =
      Refkit.Alloc.measure (fun () -> Netio.step reactor ~timeout:0.0)
    in
    discard ();
    minor
  in
  ignore (round many 64 : float);
  let worst payload k =
    let m = ref 0. in
    for _ = 1 to 8 do
      m := Float.max !m (round payload k)
    done;
    !m
  in
  let w_one = worst one 1 in
  Alcotest.(check bool)
    (Printf.sprintf "one-line round: %.0f minor words <= 64" w_one)
    true (w_one <= 64.);
  let w_many = worst many 64 in
  Alcotest.(check bool)
    (Printf.sprintf "64-line round: %.1f minor words per line <= 8"
       (w_many /. 64.))
    true
    (w_many <= 8. *. 64.);
  let rounds = 256 in
  (* [round] takes its own reading, and readings do not nest *)
  let (), { Refkit.Alloc.promoted; _ } =
    Refkit.Alloc.measure (fun () ->
        for _ = 1 to rounds do
          ignore (Unix.write_substring cfd many 0 (String.length many) : int);
          Netio.step reactor ~timeout:0.0;
          discard ()
        done;
        Gc.minor ())
  in
  lines := !lines + (64 * rounds);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words promoted over %d lines <= 1 per 16" promoted
       (64 * rounds))
    true
    (promoted <= float_of_int (64 * rounds / 16));
  let served =
    List.fold_left (fun acc (_, total) -> acc + total) 0
      (Service.shard_totals svc)
  in
  Alcotest.(check int) "every line ingested" (16 * !lines) served;
  Unix.close cfd

let test_unix_listener_capacity () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "histotestd-test-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let lfd = Netio.listener (Netio.Unix_path path) in
  let shared = Service.create () in
  let reactor =
    Netio.create_reactor ~max_conns:1
      ~service:shared ~listeners:[ lfd ] ()
  in
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.set_nonblock fd;
    fd
  in
  (* both connects succeed immediately (kernel backlog); only one may be
     admitted *)
  let c1 = connect () in
  let c2 = connect () in
  let guard = ref 0 in
  while Netio.accepted reactor < 1 && !guard < 1000 do
    Netio.step reactor ~timeout:0.01;
    incr guard
  done;
  Alcotest.(check int) "first client admitted" 1 (Netio.accepted reactor);
  for _ = 1 to 10 do
    Netio.step reactor ~timeout:0.0
  done;
  Alcotest.(check int)
    "second client queued, not admitted" 1 (Netio.accepted reactor);
  let quit_and_read fd label =
    let line = "{\"cmd\":\"quit\"}\n" in
    write_all fd line;
    let buf = Buffer.create 256 and tmp = Bytes.create 1024 in
    let eof = ref false in
    let guard = ref 0 in
    while (not !eof) && !guard < 10_000 do
      Netio.step reactor ~timeout:0.01;
      (match Unix.read fd tmp 0 (Bytes.length tmp) with
      | 0 -> eof := true
      | k -> Buffer.add_subbytes buf tmp 0 k
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ());
      incr guard
    done;
    Alcotest.(check bool) (label ^ ": got eof") true !eof;
    let expect, _ = reference_transcript [ {|{"cmd":"quit"}|} ] in
    Alcotest.(check string) (label ^ ": transcript") expect (Buffer.contents buf);
    Unix.close fd
  in
  quit_and_read c1 "first client";
  let guard = ref 0 in
  while Netio.accepted reactor < 2 && !guard < 1000 do
    Netio.step reactor ~timeout:0.01;
    incr guard
  done;
  Alcotest.(check int)
    "second client admitted once the slot frees" 2 (Netio.accepted reactor);
  quit_and_read c2 "second client";
  let st = Netio.stats reactor in
  Alcotest.(check int) "both closed" 2 st.Netio.closed;
  Unix.close lfd;
  try Sys.remove path with Sys_error _ -> ()

(* Idle and slow-loris clients against [max_conns] (README: the excess
   waits in the kernel backlog until a slot frees).  Four slots: two
   connections that never send, one that trickles a request a byte per
   round without its newline, and one that keeps working.  A fifth
   client connects and sends its request at once.  The reactor must
   keep answering the worker while the others sit there, leave the
   fifth queued (its request unread, no response), answer the slow line
   once its newline arrives, and admit and answer the fifth as soon as
   the worker quits.  Idle connections hold their slots until they
   close: there is no idle timeout, so [max_conns] idle clients lock
   everyone else out — the documented admission behaviour, pinned here
   so a change to it is deliberate. *)
let test_idle_and_slow_clients_at_capacity () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "histotestd-loris-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let lfd = Netio.listener (Netio.Unix_path path) in
  let shared = Service.create () in
  configure shared;
  let reactor =
    Netio.create_reactor ~batch:4 ~max_conns:4 ~service:shared
      ~listeners:[ lfd ] ()
  in
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.set_nonblock fd;
    fd
  in
  let steps k =
    for _ = 1 to k do
      Netio.step reactor ~timeout:0.0
    done
  in
  let admit fd expect =
    let guard = ref 0 in
    while Netio.accepted reactor < expect && !guard < 1000 do
      Netio.step reactor ~timeout:0.01;
      incr guard
    done;
    Alcotest.(check int) "admitted in connect order" expect
      (Netio.accepted reactor);
    fd
  in
  let idle1 = admit (connect ()) 1 in
  let idle2 = admit (connect ()) 2 in
  let loris = admit (connect ()) 3 in
  let worker = admit (connect ()) 4 in
  let extra = connect () in
  let extra_script = [ observe_line ~shard:"extra" [ 1; 2; 3 ] ] in
  write_all extra (List.hd extra_script ^ "\n");
  let slow_script = [ observe_line ~shard:"slow" [ 5; 6 ] ] in
  let slow = List.hd slow_script in
  let tmp = Bytes.create 4096 in
  let bufs = Array.init 5 (fun _ -> Buffer.create 1024) in
  let fds = [| idle1; idle2; loris; worker; extra |] in
  let read_all () = Array.iteri (fun i fd -> read_avail tmp bufs.(i) fd) fds in
  (* the worker sends one line per round while the loris drips *)
  let worker_script = client_script 7 in
  let sent = ref 0 in
  List.iteri
    (fun i line ->
      write_all worker (line ^ "\n");
      if i < String.length slow then
        write_all loris (String.sub slow i 1);
      sent := i + 1;
      steps 3;
      read_all ())
    worker_script;
  Alcotest.(check bool) "the slow line outlasted the worker's script" true
    (!sent < String.length slow);
  let expect_worker, _ = reference_transcript worker_script in
  Alcotest.(check string) "worker served throughout" expect_worker
    (Buffer.contents bufs.(3));
  Alcotest.(check int) "fifth client still queued" 4 (Netio.accepted reactor);
  Alcotest.(check int) "all slots held" 4 (Netio.active reactor);
  Alcotest.(check string) "queued client's request unread" ""
    (Buffer.contents bufs.(4));
  Alcotest.(check string) "partial line unanswered" ""
    (Buffer.contents bufs.(2));
  Alcotest.(check bool) "partial line not ingested" true
    (Option.is_none (find_shard shared "slow"));
  (* the loris finishes its line: it is answered like any other *)
  write_all loris (String.sub slow !sent (String.length slow - !sent) ^ "\n");
  steps 5;
  read_all ();
  let expect_slow, _ = reference_transcript slow_script in
  Alcotest.(check string) "slow line answered once complete" expect_slow
    (Buffer.contents bufs.(2));
  (* the worker quits: its slot goes to the queued client *)
  write_all worker "{\"cmd\":\"quit\"}\n";
  let guard = ref 0 in
  while
    (Buffer.length bufs.(4) = 0 || Netio.accepted reactor < 5) && !guard < 1000
  do
    Netio.step reactor ~timeout:0.01;
    read_all ();
    incr guard
  done;
  Alcotest.(check int) "queued client admitted once a slot frees" 5
    (Netio.accepted reactor);
  let expect_extra, _ = reference_transcript extra_script in
  Alcotest.(check string) "queued client's request answered" expect_extra
    (Buffer.contents bufs.(4));
  Alcotest.(check string) "idle clients got nothing" ""
    (Buffer.contents bufs.(0) ^ Buffer.contents bufs.(1));
  (* everyone leaves; the reactor closes every connection *)
  Array.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
    [| idle1; idle2; loris; extra |];
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 1000 do
    Netio.step reactor ~timeout:0.01;
    read_all ();
    incr guard
  done;
  Alcotest.(check int) "all closed" 0 (Netio.active reactor);
  Alcotest.(check int) "no write drops" 0 (Netio.stats reactor).Netio.write_drops;
  Array.iter Unix.close fds;
  Unix.close lfd;
  try Sys.remove path with Sys_error _ -> ()

(* --- daemon boundary: hostile scripts ---------------------------------

   Random, mostly malformed request streams through the in-process
   engine, [Service.serve] at a random batch size (with non-blocking
   reads that cut batches short at random), and through the reactor the
   daemon runs, fed through a socketpair in random write chunks.  Each
   must answer byte for byte what the line-at-a-time oracle answers,
   let no exception out, and keep Σ shard totals equal to the accumulator's
   total (with no more than [max_shards] names) after every batch.
   Every case derives from one drawn seed. *)

let hostile_script r =
  let n = 16 + Randkit.Rng.int r 240 in
  let pick a = a.(Randkit.Rng.int r (Array.length a)) in
  let config n =
    Printf.sprintf
      {|{"cmd":"config","n":%d,"family":"%s","eps":0.25,"seed":%d}|} n
      (pick [| "uniform"; "staircase:2"; "zipf:1.1" |])
      (Randkit.Rng.int r 3)
  in
  let shard () = Printf.sprintf "s%d" (Randkit.Rng.int r 6) in
  let value () = string_of_int (Randkit.Rng.int r (n + 8) - 4) in
  let observe xs =
    Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[%s]}|} (shard ())
      (String.concat "," xs)
  in
  let line () =
    match Randkit.Rng.int r 20 with
    | 0 | 1 | 2 | 3 | 4 ->
        observe (List.init (Randkit.Rng.int r 6) (fun _ -> value ()))
    | 5 -> pick [| ""; " \t "; "\t" |]
    | 6 ->
        (* non-integer payloads, among valid values *)
        observe
          [
            value ();
            pick
              [| "1.5"; "\"7\""; "true"; "null"; "1e3";
                 "99999999999999999999"; "-" |];
            value ();
          ]
    | 7 ->
        Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[%s]}|}
          (String.make (Scan.max_shard_bytes + 1 + Randkit.Rng.int r 3) 'x')
          (value ())
    | 8 ->
        let len = if Randkit.Rng.bool r then n else Randkit.Rng.int r (n + 2) in
        Printf.sprintf {|{"cmd":"counts","shard":"%s","counts":[%s]}|}
          (shard ())
          (String.concat ","
             (List.init len (fun _ ->
                  if Randkit.Rng.int r 32 = 0 then "-1"
                  else string_of_int (Randkit.Rng.int r 3))))
    | 9 -> config (Service.max_n + 1 + Randkit.Rng.int r 4)
    | 10 -> config (if Randkit.Rng.bool r then n else 0)
    | 11 | 12 -> {|{"cmd":"verdict"}|}
    | 13 ->
        pick
          [|
            {|{"cmd":"stats"}|}; {|{"cmd":"cache_stats"}|}; {|{"cmd":"reset"}|};
          |]
    | 14 -> {| {"cmd":"observe","shard":"s0","xs":[ 1 , 2 ]}|}
    | 15 ->
        pick [| "not json"; "{"; {|{"cmd":"nope"}|}; {|{"cmd":"observe"}|} |]
    | _ -> observe [ value () ]
  in
  let head = List.init (20 + Randkit.Rng.int r 60) (fun _ -> line ()) in
  (* One script in four names more shards than a config may hold. *)
  let flood =
    if Randkit.Rng.int r 4 = 0 then
      List.init (Service.max_shards + 2) (fun i ->
          Printf.sprintf {|{"cmd":"observe","shard":"m%d","xs":[0]}|} i)
    else []
  in
  (* Half the scripts quit somewhere in the tail, with lines behind the
     quit that must go unanswered. *)
  let quit_at = if Randkit.Rng.bool r then Randkit.Rng.int r 10 else -1 in
  let tail =
    List.init (10 + Randkit.Rng.int r 20) (fun i ->
        if i = quit_at then {|{"cmd":"quit"}|} else line ())
  in
  Array.of_list ((config n :: head) @ flood @ tail)

(* Σ shard totals = the accumulator's total, within the shard cap. *)
let totals_consistent svc =
  let totals = Service.shard_totals svc in
  List.length totals <= Service.max_shards
  && List.fold_left (fun a (_, c) -> a + c) 0 totals
     = Option.fold ~none:0 ~some:Suffstat.total (Service.merged svc)

let serve_hostile r script =
  let svc = Service.create () in
  let batch = 1 + Randkit.Rng.int r 64 in
  let idx = ref 0 and ok = ref true in
  let read_line ~block =
    if !idx >= Array.length script || ((not block) && Randkit.Rng.int r 8 = 0)
    then None
    else begin
      let l = script.(!idx) in
      incr idx;
      Some l
    end
  in
  let out = Buffer.create 4096 in
  let write b =
    Buffer.add_buffer out b;
    ok := !ok && totals_consistent svc
  in
  let (_ : Service.serve_stats) = Service.serve svc ~batch ~read_line ~write in
  (Buffer.contents out, !ok)

let reactor_hostile r script =
  let svc = Service.create () in
  let reactor =
    Netio.create_reactor ~batch:(1 + Randkit.Rng.int r 64) ~service:svc
      ~listeners:[] ()
  in
  let sfd, cfd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Netio.add_connection reactor sfd;
  Unix.set_nonblock cfd;
  let payload =
    String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") script))
  in
  let buf = Buffer.create 4096 and tmp = Bytes.create 4096 in
  let ok = ref true in
  let step () =
    Netio.step reactor ~timeout:0.0;
    read_avail tmp buf cfd;
    ok := !ok && totals_consistent svc
  in
  let sent = ref 0 and writing = ref true in
  while !writing && !sent < String.length payload do
    let chunk =
      min (1 + Randkit.Rng.int r 300) (String.length payload - !sent)
    in
    (match Unix.write_substring cfd payload !sent chunk with
    | k -> sent := !sent + k
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* the reactor closed the connection after a quit *)
        writing := false);
    step ()
  done;
  (try Unix.shutdown cfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let guard = ref 0 in
  while Netio.active reactor > 0 && !guard < 10_000 do
    Netio.step reactor ~timeout:0.01;
    read_avail tmp buf cfd;
    ok := !ok && totals_consistent svc;
    incr guard
  done;
  read_avail tmp buf cfd;
  Unix.close cfd;
  (Buffer.contents buf, !ok && Netio.active reactor = 0)

let prop_hostile name run =
  QCheck.Test.make ~name ~count:30 (QCheck.int_range 0 1_000_000) (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let script = hostile_script r in
      let expect, _ = Refkit.Strict_serve.transcript script in
      let got, consistent = run r script in
      consistent && String.equal expect got)

let prop_hostile_serve =
  prop_hostile "hostile scripts: stdio serve = strict serve" serve_hostile

let prop_hostile_reactor =
  prop_hostile "hostile scripts: socket reactor = strict serve" reactor_hostile

let () =
  Alcotest.run "netio"
    [
      ( "reader",
        [
          Alcotest.test_case "partial lines" `Quick test_reader_partial_lines;
          Alcotest.test_case "multiple lines per read, EOF mid-line" `Quick
            test_reader_multi_lines_and_eof_midline;
          Alcotest.test_case "buffer growth" `Quick test_reader_buffer_growth;
          Alcotest.test_case "line length bound" `Quick test_reader_too_long;
        ] );
      ( "addr",
        [ Alcotest.test_case "addr_of_string" `Quick test_addr_of_string ] );
      ( "reactor",
        [
          Alcotest.test_case "multi-client determinism" `Quick
            test_multi_client_determinism;
          Alcotest.test_case "quit mid-batch" `Quick test_quit_mid_batch;
          Alcotest.test_case "pipe pair" `Quick test_pipe_pair;
          Alcotest.test_case "overlong line" `Quick test_overlong_line_closes;
          Alcotest.test_case "backpressure" `Quick
            test_backpressure_bounded_queue;
          Alcotest.test_case "allocation fits the daemon's nursery" `Quick
            test_reactor_fits_nursery;
          Alcotest.test_case "max-conns admission" `Quick
            test_unix_listener_capacity;
          Alcotest.test_case "idle and slow-loris clients at max-conns"
            `Quick test_idle_and_slow_clients_at_capacity;
        ] );
      ( "boundary",
        [
          QCheck_alcotest.to_alcotest prop_hostile_serve;
          QCheck_alcotest.to_alcotest prop_hostile_reactor;
        ] );
    ]
