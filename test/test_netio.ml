(* netio: the socket transport's determinism contract, driven without
   threads.  Every reactor test hands socketpair ends to [add_connection]
   and interleaves [Netio.step] with adversarially chunked client I/O
   from the same thread, so schedules are reproducible; expectations are
   never hand-written transcripts but the output of [Service.serve] (the
   stdio loop) on the same request stream — the byte-identity contract
   E22 gates at scale. *)

let result_pp fmt = function
  | Netio.Reader.Line l -> Format.fprintf fmt "Line %S" l
  | Netio.Reader.Pending -> Format.fprintf fmt "Pending"
  | Netio.Reader.Eof -> Format.fprintf fmt "Eof"
  | Netio.Reader.Too_long -> Format.fprintf fmt "Too_long"

let result_eq a b =
  match (a, b) with
  | Netio.Reader.Line x, Netio.Reader.Line y -> String.equal x y
  | Netio.Reader.Pending, Netio.Reader.Pending
  | Netio.Reader.Eof, Netio.Reader.Eof
  | Netio.Reader.Too_long, Netio.Reader.Too_long ->
      true
  | _ -> false

let result_t = Alcotest.testable result_pp result_eq

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
  let r = Netio.Reader.create ~initial_bytes:16 rd in
  Alcotest.check result_t "empty buffer" Netio.Reader.Pending
    (Netio.Reader.next r);
  write_all wr "hel";
  refill_data r ~expect:3;
  Alcotest.check result_t "no newline yet" Netio.Reader.Pending
    (Netio.Reader.next r);
  write_all wr "lo\nwor";
  refill_data r ~expect:6;
  Alcotest.check result_t "first line" (Netio.Reader.Line "hello")
    (Netio.Reader.next r);
  Alcotest.check result_t "second still partial" Netio.Reader.Pending
    (Netio.Reader.next r);
  (match Netio.Reader.refill r with
  | `Would_block -> ()
  | `Data _ | `Eof -> Alcotest.fail "expected Would_block on drained socket");
  write_all wr "ld\n";
  refill_data r ~expect:3;
  Alcotest.check result_t "completed across three reads"
    (Netio.Reader.Line "world") (Netio.Reader.next r);
  Unix.close wr;
  (match Netio.Reader.refill r with
  | `Eof -> ()
  | `Data _ | `Would_block -> Alcotest.fail "expected Eof");
  Alcotest.check result_t "eof" Netio.Reader.Eof (Netio.Reader.next r);
  Unix.close rd

let test_reader_multi_lines_and_eof_midline () =
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create rd in
  write_all wr "a\nbb\nccc\nd";
  refill_data r ~expect:10;
  Alcotest.check result_t "1/3" (Netio.Reader.Line "a") (Netio.Reader.next r);
  Alcotest.check result_t "2/3" (Netio.Reader.Line "bb") (Netio.Reader.next r);
  Alcotest.check result_t "3/3" (Netio.Reader.Line "ccc") (Netio.Reader.next r);
  Alcotest.check result_t "tail incomplete" Netio.Reader.Pending
    (Netio.Reader.next r);
  Alcotest.(check int) "tail buffered" 1 (Netio.Reader.buffered r);
  Unix.close wr;
  (match Netio.Reader.refill r with
  | `Eof -> ()
  | `Data _ | `Would_block -> Alcotest.fail "expected Eof");
  Alcotest.check result_t "unterminated final line, like input_line"
    (Netio.Reader.Line "d") (Netio.Reader.next r);
  Alcotest.check result_t "then eof" Netio.Reader.Eof (Netio.Reader.next r);
  Alcotest.check result_t "eof is sticky" Netio.Reader.Eof
    (Netio.Reader.next r);
  Unix.close rd

let test_reader_buffer_growth () =
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~initial_bytes:8 rd in
  let long = String.make 1000 'q' in
  write_all wr (long ^ "\nafter\n");
  pump r;
  Alcotest.check result_t "long line through a tiny initial buffer"
    (Netio.Reader.Line long) (Netio.Reader.next r);
  Alcotest.check result_t "next line intact after growth"
    (Netio.Reader.Line "after") (Netio.Reader.next r);
  Alcotest.check result_t "dry" Netio.Reader.Pending (Netio.Reader.next r);
  Unix.close wr;
  Unix.close rd

let test_reader_too_long () =
  (* terminated line over the bound *)
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~max_line_bytes:8 rd in
  write_all wr "123456789\nok\n";
  pump r;
  Alcotest.check result_t "9 bytes > 8" Netio.Reader.Too_long
    (Netio.Reader.next r);
  Alcotest.check result_t "poisoned for good" Netio.Reader.Too_long
    (Netio.Reader.next r);
  Unix.close wr;
  Unix.close rd;
  (* exactly the bound passes *)
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~max_line_bytes:8 rd in
  write_all wr "12345678\n";
  pump r;
  Alcotest.check result_t "exactly max_line_bytes is fine"
    (Netio.Reader.Line "12345678") (Netio.Reader.next r);
  Unix.close wr;
  Unix.close rd;
  (* an unterminated line overflows without ever seeing a newline *)
  let rd, wr = nb_socketpair () in
  let r = Netio.Reader.create ~max_line_bytes:8 rd in
  write_all wr "0123456789";
  pump r;
  Alcotest.check result_t "unterminated overflow" Netio.Reader.Too_long
    (Netio.Reader.next r);
  Unix.close wr;
  Unix.close rd

let test_reader_blocking_pipe () =
  let prd, pwr = Unix.pipe ~cloexec:true () in
  let r = Netio.Reader.create prd in
  write_all pwr "hello\nwo";
  Alcotest.check result_t "blocking read" (Netio.Reader.Line "hello")
    (Netio.Reader.next_line r ~block:true);
  Alcotest.check result_t "partial tail, nothing ready" Netio.Reader.Pending
    (Netio.Reader.next_line r ~block:false);
  write_all pwr "rld\n";
  Alcotest.check result_t "non-blocking pickup" (Netio.Reader.Line "world")
    (Netio.Reader.next_line r ~block:false);
  Unix.close pwr;
  Alcotest.check result_t "eof" Netio.Reader.Eof
    (Netio.Reader.next_line r ~block:true);
  Unix.close prd

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

(* The expectation oracle: what stdio serve answers on this request
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
  (* per-client byte identity against the stdio loop *)
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
    Service.rendered_observe_ok ~shard:"ok" ~added:1 ~shard_total:1
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
          Alcotest.test_case "blocking stdio mode" `Quick
            test_reader_blocking_pipe;
        ] );
      ( "addr",
        [ Alcotest.test_case "addr_of_string" `Quick test_addr_of_string ] );
      ( "reactor",
        [
          Alcotest.test_case "multi-client determinism" `Quick
            test_multi_client_determinism;
          Alcotest.test_case "quit mid-batch" `Quick test_quit_mid_batch;
          Alcotest.test_case "overlong line" `Quick test_overlong_line_closes;
          Alcotest.test_case "backpressure" `Quick
            test_backpressure_bounded_queue;
          Alcotest.test_case "max-conns admission" `Quick
            test_unix_listener_capacity;
        ] );
    ]
