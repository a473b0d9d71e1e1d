(* Event-driven transport for histotestd.

   A single-threaded reactor over [Unix.select] on listening TCP /
   Unix-domain sockets and on the daemon's own stdin/stdout, with
   per-connection state machines feeding the one shared deterministic
   engine.  Stdio is one more connection: [add_pipe] adopts a read fd
   and a write fd, so the daemon has one serve loop in every mode.

   Shape of the loop (see DESIGN.md "A reactor for many clients"):

   - [Reader]: the buffered line reader — refills only when select says
     the fd is readable, a scan watermark so a slow-trickling client
     costs O(bytes) rather than O(bytes^2) in newline rescans, and a
     hard line-length bound ([max_line_bytes]) so an unterminated line
     gets a wire error and a close instead of an OOM.
   - [Outbuf]: a per-connection outbound byte queue with an explicit
     head, written only when the output is writable.  Slow clients never
     stall the reactor: socket writes are non-blocking, and once a
     connection's queue passes [max_pending_bytes] the reactor simply
     stops reading from it (backpressure) until the client drains.
     Pipes keep the mode they were handed (stdin/stdout are shared with
     the parent's pipeline), so their writes block.
   - Each connection owns a pooled {!Service.Batch} executor — the
     Scan fast path, allocation-free ingest, and direct response
     rendering — so every connection's response stream is byte-identical
     to [Service.serve] on the same request stream (the contract E22
     gates).
   - The engine ([Service.t]) is shared: shards accumulate across
     clients, per-connection request order is preserved, and because
     verdicts are functions of exact merged counts, any
     interleaving of clients that preserves per-connection order yields
     the same final state as a single process replaying the merged
     arrival order.

   Determinism note: the reactor serializes everything — there is one
   thread, and batches from different connections never interleave
   within a batch.  The only nondeterminism is the arrival interleaving
   itself, which the OS provides; everything downstream of arrival order
   is deterministic. *)

(* --- buffered line reader ------------------------------------------- *)

module Reader = struct
  type t = {
    mutable fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable pos : int; (* next unread byte *)
    mutable len : int; (* valid bytes in buf *)
    mutable scanned : int; (* newline search resumes here; pos <= scanned <= len *)
    mutable eof : bool;
    mutable overflow : bool;
    max_line_bytes : int;
  }

  let default_max_line_bytes = 1 lsl 20

  let create ?(max_line_bytes = default_max_line_bytes) fd =
    if max_line_bytes < 1 then
      invalid_arg "Netio.Reader.create: max_line_bytes < 1";
    {
      fd;
      buf = Bytes.create 65536;
      pos = 0;
      len = 0;
      scanned = 0;
      eof = false;
      overflow = false;
      max_line_bytes;
    }

  let reset r fd =
    r.fd <- fd;
    r.pos <- 0;
    r.len <- 0;
    r.scanned <- 0;
    r.eof <- false;
    r.overflow <- false

  let make_room r =
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
      r.len <- r.len - r.pos;
      r.scanned <- r.scanned - r.pos;
      r.pos <- 0
    end;
    if r.len = Bytes.length r.buf then begin
      (* a line longer than the buffer: grow (bounded — [next_span] flags the
         line Too_long once it passes max_line_bytes, so the buffer never
         doubles past ~2x the bound) *)
      let nb = Bytes.create (2 * Bytes.length r.buf) in
      Bytes.blit r.buf 0 nb 0 r.len;
      r.buf <- nb
    end

  (* One read(2); the reactor calls it only once select reports the fd
     readable, so it does not block on a blocking one either. *)
  let refill r =
    if r.eof then `Eof
    else begin
      make_room r;
      match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
      | 0 ->
          r.eof <- true;
          `Eof
      | k ->
          r.len <- r.len + k;
          `Data k
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          `Would_block
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          r.eof <- true;
          `Eof
    end

  (* The scan inner loop, on every byte a client sends: find the next
     newline at or after [i]. *)
  let[@histolint.hot] scan_newline buf i len =
    let i = ref i in
    while !i < len && Char.code (Bytes.unsafe_get buf !i) <> 10 do
      incr i
    done;
    !i

  (* Pop one complete buffered line as a (pos, len) span into the
     reader's own buffer — the zero-copy variant the reactor's hot loop
     consumes through [Service.Batch.push_sub].  The span indexes
     [contents r] and is valid only until the next [refill] or [reset]
     (either may move the buffer); the batch executor copies what it
     keeps, so nothing outlives the span. *)
  let next_span r =
    if r.overflow then `Too_long
    else begin
      let i = scan_newline r.buf r.scanned r.len in
      r.scanned <- i;
      if i < r.len then
        if i - r.pos > r.max_line_bytes then begin
          r.overflow <- true;
          `Too_long
        end
        else begin
          let pos = r.pos in
          r.pos <- i + 1;
          r.scanned <- r.pos;
          `Span (pos, i - pos)
        end
      else if r.len - r.pos > r.max_line_bytes then begin
        r.overflow <- true;
        `Too_long
      end
      else if r.eof then
        if r.pos < r.len then begin
          (* final line without a trailing newline, like input_line *)
          let pos = r.pos in
          r.pos <- r.len;
          r.scanned <- r.len;
          `Span (pos, r.len - pos)
        end
        else `Eof
      else `Pending
    end

  let contents r = r.buf
end

let nursery_words = 32768

(* --- outbound byte queue -------------------------------------------- *)

module Outbuf = struct
  type t = { mutable buf : Bytes.t; mutable head : int; mutable len : int }

  let create n = { buf = Bytes.create (max 16 n); head = 0; len = 0 }
  let length t = t.len

  let clear t =
    t.head <- 0;
    t.len <- 0

  let reserve t extra =
    let cap = Bytes.length t.buf in
    if t.head + t.len + extra > cap then
      if t.len + extra <= cap then begin
        (* compact: the consumed prefix is free space *)
        Bytes.blit t.buf t.head t.buf 0 t.len;
        t.head <- 0
      end
      else begin
        let ncap = ref (2 * cap) in
        while t.len + extra > !ncap do
          ncap := 2 * !ncap
        done;
        let nb = Bytes.create !ncap in
        Bytes.blit t.buf t.head nb 0 t.len;
        t.buf <- nb;
        t.head <- 0
      end

  let append_buffer t b =
    let k = Buffer.length b in
    if k > 0 then begin
      reserve t k;
      Buffer.blit b 0 t.buf (t.head + t.len) k;
      t.len <- t.len + k
    end

  let append_string t s =
    let k = String.length s in
    if k > 0 then begin
      reserve t k;
      Bytes.blit_string s 0 t.buf (t.head + t.len) k;
      t.len <- t.len + k
    end

  (* Write as much as the socket takes right now.  [`Closed] when the
     peer is gone (EPIPE/ECONNRESET) — the caller drops the connection. *)
  let flush t fd =
    if t.len = 0 then `Ok
    else
      match Unix.write fd t.buf t.head t.len with
      | k ->
          t.head <- t.head + k;
          t.len <- t.len - k;
          if t.len = 0 then t.head <- 0;
          `Ok
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          `Ok
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          `Closed
end

(* --- listeners ------------------------------------------------------ *)

type listen_addr = Tcp of string * int | Unix_path of string

let addr_of_string s =
  match String.rindex_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some p when p >= 0 && p < 65536 -> Ok (Tcp ("", p))
      | _ -> Error (Printf.sprintf "bad listen address %S (want HOST:PORT)" s))
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port in listen address %S" s))

let pp_addr = function
  | Tcp (host, port) ->
      Printf.sprintf "%s:%d" (if host = "" then "0.0.0.0" else host) port
  | Unix_path path -> path

let listener addr =
  match addr with
  | Tcp (host, port) ->
      let inet =
        if String.equal host "" || String.equal host "*" then
          Unix.inet_addr_any
        else
          match Unix.inet_addr_of_string host with
          | a -> a
          | exception Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                  failwith (Printf.sprintf "cannot resolve host %S" host)
              | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd
  | Unix_path path ->
      (* a stale socket file from a previous run would make bind fail;
         anything else at that path is not ours to delete *)
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> invalid_arg "Netio.bound_port: not a TCP listener"

(* --- the reactor ---------------------------------------------------- *)

type conn = {
  mutable input : Unix.file_descr;
  mutable output : Unix.file_descr; (* [input] again on a socket *)
  reader : Reader.t;
  exec : Service.Batch.exec;
  out : Outbuf.t;
  mutable draining : bool;
      (* true once no further requests will be read (EOF, quit, overlong
         line): flush [out], then close *)
  mutable dead : bool;
}

type stats = {
  accepted : int;
  active : int;
  closed : int;
  overlong : int;
  write_drops : int;
  peak_pending : int;
  engine : Service.serve_stats;
}

let stats_add (a : Service.serve_stats) (b : Service.serve_stats) =
  {
    Service.requests = a.Service.requests + b.Service.requests;
    values = a.Service.values + b.Service.values;
    fast_hits = a.Service.fast_hits + b.Service.fast_hits;
    strict_parses = a.Service.strict_parses + b.Service.strict_parses;
    batches = a.Service.batches + b.Service.batches;
  }

let zero_stats =
  {
    Service.requests = 0;
    values = 0;
    fast_hits = 0;
    strict_parses = 0;
    batches = 0;
  }

type t = {
  service : Service.t;
  batch : int;
  max_conns : int;
  max_line_bytes : int;
  max_pending_bytes : int;
  listeners : Unix.file_descr list;
  scratch : Buffer.t;
  mutable conns : conn list; (* accept order *)
  mutable free : conn list; (* parked records: reader/exec/out reused *)
  mutable accepted : int;
  mutable closed : int;
  mutable overlong : int;
  mutable write_drops : int;
  mutable peak_pending : int;
  mutable retired : Service.serve_stats;
}

let overlong_error max_line_bytes =
  Service.rendered_error
    (Printf.sprintf "line exceeds max-line-bytes (%d); closing connection"
       max_line_bytes)

let create_reactor ?(batch = 64) ?(max_conns = 64)
    ?(max_line_bytes = Reader.default_max_line_bytes)
    ?(max_pending_bytes = 1 lsl 23) ~service ~listeners () =
  if batch < 1 then invalid_arg "Netio.create_reactor: batch < 1";
  if batch > Service.Batch.max_batch then
    invalid_arg "Netio.create_reactor: batch > Service.Batch.max_batch";
  if max_conns < 1 then invalid_arg "Netio.create_reactor: max_conns < 1";
  if max_line_bytes < 1 then
    invalid_arg "Netio.create_reactor: max_line_bytes < 1";
  if max_pending_bytes < 1 then
    invalid_arg "Netio.create_reactor: max_pending_bytes < 1";
  (* a client closing mid-write must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  {
    service;
    batch;
    max_conns;
    max_line_bytes;
    max_pending_bytes;
    listeners;
    scratch = Buffer.create 65536;
    conns = [];
    free = [];
    accepted = 0;
    closed = 0;
    overlong = 0;
    write_drops = 0;
    peak_pending = 0;
    retired = zero_stats;
  }

let active t = List.length t.conns
let accepted t = t.accepted

let stats t =
  {
    accepted = t.accepted;
    active = List.length t.conns;
    closed = t.closed;
    overlong = t.overlong;
    write_drops = t.write_drops;
    peak_pending = t.peak_pending;
    engine =
      List.fold_left
        (fun acc c -> stats_add acc (Service.Batch.stats c.exec))
        t.retired t.conns;
  }

(* [input] and [output] keep their mode: the caller sets it. *)
let add_pipe t ~input ~output =
  let conn =
    match t.free with
    | c :: rest ->
        t.free <- rest;
        c.input <- input;
        c.output <- output;
        Reader.reset c.reader input;
        Outbuf.clear c.out;
        c.draining <- false;
        c.dead <- false;
        c
    | [] ->
        {
          input;
          output;
          reader = Reader.create ~max_line_bytes:t.max_line_bytes input;
          exec = Service.Batch.create ~batch:t.batch t.service;
          out = Outbuf.create 65536;
          draining = false;
          dead = false;
        }
  in
  t.conns <- t.conns @ [ conn ];
  t.accepted <- t.accepted + 1

let add_connection t fd =
  Unix.set_nonblock fd;
  add_pipe t ~input:fd ~output:fd

let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    (try Unix.close conn.input with Unix.Unix_error _ -> ());
    if conn.output != conn.input then (
      try Unix.close conn.output with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    t.closed <- t.closed + 1;
    t.retired <- stats_add t.retired (Service.Batch.stats conn.exec);
    Service.Batch.clear conn.exec;
    Service.Batch.reset_stats conn.exec;
    conn.draining <- false;
    t.free <- conn :: t.free
  end

(* Execute every complete line buffered on [conn], batch by batch, until
   the reader runs dry (Pending), the stream ends, or backpressure says
   stop ([out] past the bound).  Responses accumulate in [conn.out]. *)
let drain t conn =
  let again = ref (not conn.draining) in
  while !again do
    again := false;
    let ex = conn.exec in
    let fate = ref `Dry in
    let filling = ref true in
    (* [unsafe_to_string] is sound here: [push_sub] only reads the
       window within the call and retains nothing, and the buffer is
       not refilled while the batch fills. *)
    let raw = Bytes.unsafe_to_string (Reader.contents conn.reader) in
    while !filling && Service.Batch.want_more ex do
      match Reader.next_span conn.reader with
      | `Span (pos, len) -> Service.Batch.push_sub ex raw ~pos ~len
      | `Pending -> filling := false
      | `Eof ->
          filling := false;
          fate := `Eof
      | `Too_long ->
          filling := false;
          fate := `Overflow
    done;
    let batch_full = !filling in
    let quit = ref false in
    if Service.Batch.count ex > 0 then begin
      Buffer.clear t.scratch;
      if not (Service.Batch.execute ex ~out:t.scratch) then quit := true;
      Outbuf.append_buffer conn.out t.scratch;
      if Outbuf.length conn.out > t.peak_pending then
        t.peak_pending <- Outbuf.length conn.out
    end;
    if !quit then conn.draining <- true
    else
      match !fate with
      | `Eof -> conn.draining <- true
      | `Overflow ->
          t.overlong <- t.overlong + 1;
          Outbuf.append_string conn.out (overlong_error t.max_line_bytes);
          Outbuf.append_string conn.out "\n";
          if Outbuf.length conn.out > t.peak_pending then
            t.peak_pending <- Outbuf.length conn.out;
          conn.draining <- true
      | `Dry ->
          (* keep going only if this round filled a whole batch (more
             lines may be buffered) and the client is keeping up *)
          if batch_full && Outbuf.length conn.out < t.max_pending_bytes then
            again := true
  done

let flush_conn t conn =
  if not conn.dead then begin
    (match Outbuf.flush conn.out conn.output with
    | `Ok -> ()
    | `Closed ->
        t.write_drops <- t.write_drops + 1;
        close_conn t conn);
    if (not conn.dead) && conn.draining && Outbuf.length conn.out = 0 then
      close_conn t conn
  end

let rec accept_loop t lfd =
  if List.length t.conns < t.max_conns then
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        (* latency over throughput on the response path; a no-op (and an
           error) on Unix-domain sockets *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        add_connection t fd;
        accept_loop t lfd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
        accept_loop t lfd

let step t ~timeout =
  let snapshot = t.conns in
  let room = List.length snapshot < t.max_conns in
  let rfds =
    (if room then t.listeners else [])
    @ List.filter_map
        (fun c ->
          if
            (not c.dead) && (not c.draining)
            && Outbuf.length c.out < t.max_pending_bytes
          then Some c.input
          else None)
        snapshot
  in
  let wfds =
    List.filter_map
      (fun c ->
        if (not c.dead) && Outbuf.length c.out > 0 then Some c.output
        else None)
      snapshot
  in
  match Unix.select rfds wfds [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      (* 1. writes first: free outbound space before generating more *)
      List.iter
        (fun c ->
          if (not c.dead) && List.mem c.output writable then flush_conn t c)
        snapshot;
      (* 2. accept new connections *)
      List.iter
        (fun lfd -> if List.mem lfd readable then accept_loop t lfd)
        t.listeners;
      (* 3. one read per readable connection *)
      List.iter
        (fun c ->
          if (not c.dead) && (not c.draining) && List.mem c.input readable then
            ignore (Reader.refill c.reader))
        snapshot;
      (* 4. execute buffered lines everywhere, then flush opportunistically
         (the socket is usually writable; anything left waits for the
         writable set) — fresh accepts included so their first batch is
         not delayed a tick *)
      List.iter
        (fun c ->
          if not c.dead then begin
            if
              (not c.draining)
              && Outbuf.length c.out < t.max_pending_bytes
            then drain t c;
            flush_conn t c
          end)
        t.conns
