(* The load generator: one thread, one select loop over at most two
   Unix-domain connections to the daemon.  Each connection has an
   outbound byte queue (written only as far as the socket takes it) and
   an inbound line splitter that hands every response line, with the
   time its read returned, to the connection's current handler. *)

type conn = {
  fd : Unix.file_descr;
  mutable obuf : Bytes.t;
  mutable ohead : int;
  mutable olen : int;
  mutable ibuf : Bytes.t;
  mutable ilen : int;
  mutable on_line : int -> Bytes.t -> int -> int -> unit;
      (** [on_line t buf pos len]: one response, read at time [t] *)
  mutable dead : bool;
  mutable sent : int;  (** request lines queued *)
  mutable answered : int;  (** response lines received *)
}

(* Requests and failures over the whole run: ok:false responses,
   requests never answered, dropped connections. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }
let fail () = tally.failed <- tally.failed + 1

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.set_nonblock fd;
  {
    fd;
    obuf = Bytes.create 65536;
    ohead = 0;
    olen = 0;
    ibuf = Bytes.create 65536;
    ilen = 0;
    on_line = (fun _ _ _ _ -> ());
    dead = false;
    sent = 0;
    answered = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let reserve c extra =
  let cap = Bytes.length c.obuf in
  if c.ohead + c.olen + extra > cap then
    if c.olen + extra <= cap then begin
      Bytes.blit c.obuf c.ohead c.obuf 0 c.olen;
      c.ohead <- 0
    end
    else begin
      let nb = Bytes.create (max (2 * cap) (c.olen + extra)) in
      Bytes.blit c.obuf c.ohead nb 0 c.olen;
      c.obuf <- nb;
      c.ohead <- 0
    end

(* Queue one request line (the newline is added here). *)
let send c line =
  let k = String.length line in
  reserve c (k + 1);
  let at = c.ohead + c.olen in
  Bytes.blit_string line 0 c.obuf at k;
  Bytes.set c.obuf (at + k) '\n';
  c.olen <- c.olen + k + 1;
  c.sent <- c.sent + 1;
  tally.attempted <- tally.attempted + 1

let flush c =
  if c.olen > 0 && not c.dead then
    match Unix.write c.fd c.obuf c.ohead c.olen with
    | k ->
        c.ohead <- c.ohead + k;
        c.olen <- c.olen - k;
        if c.olen = 0 then c.ohead <- 0
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        c.dead <- true

let receive c t =
  if c.ilen = Bytes.length c.ibuf then begin
    let nb = Bytes.create (2 * Bytes.length c.ibuf) in
    Bytes.blit c.ibuf 0 nb 0 c.ilen;
    c.ibuf <- nb
  end;
  match Unix.read c.fd c.ibuf c.ilen (Bytes.length c.ibuf - c.ilen) with
  | 0 -> c.dead <- true
  | k ->
      let stop = c.ilen + k in
      let buf = c.ibuf in
      let start = ref 0 in
      for i = c.ilen to stop - 1 do
        if Char.equal (Bytes.unsafe_get buf i) '\n' then begin
          c.answered <- c.answered + 1;
          c.on_line t buf !start (i - !start);
          start := i + 1
        end
      done;
      if !start > 0 then Bytes.blit buf !start buf 0 (stop - !start);
      c.ilen <- stop - !start
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.dead <- true

(* One round: write what the sockets take, wait at most [timeout] seconds
   for responses, read every readable connection once. *)
let pump conns ~timeout =
  List.iter flush conns;
  let live = List.filter (fun c -> not c.dead) conns in
  let rfds = List.map (fun c -> c.fd) live in
  let wfds = List.filter_map (fun c -> if c.olen > 0 then Some c.fd else None) live in
  match Unix.select rfds wfds [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      let t = Clock.now () in
      List.iter (fun c -> if List.mem c.fd readable then receive c t) live

let has_prefix buf pos len p =
  let k = String.length p in
  len >= k
  &&
  let rec go i =
    i = k || (Char.equal (Bytes.unsafe_get buf (pos + i)) p.[i] && go (i + 1))
  in
  go 0

let is_ok buf pos len = has_prefix buf pos len {|{"ok":true|}

(* Pump until every request sent on [conns] is answered; whatever is
   still unanswered after [limit] seconds, and every connection that
   dropped, counts as failed.  Returns false on any such loss. *)
let drain ?(limit = 60.) conns =
  let deadline = Clock.now () + int_of_float (limit *. 1e9) in
  let pending () =
    List.exists (fun c -> (not c.dead) && c.answered < c.sent) conns
  in
  while pending () && Clock.now () < deadline do
    pump conns ~timeout:0.05
  done;
  List.fold_left
    (fun ok c ->
      let lost = c.sent - c.answered in
      if lost > 0 then tally.failed <- tally.failed + lost;
      ok && lost = 0 && not c.dead)
    true conns

(* One request, one response: the response line as a string. *)
let call c line =
  let got = ref None in
  c.on_line <- (fun _ buf pos len -> got := Some (Bytes.sub_string buf pos len));
  send c line;
  let deadline = Clock.now () + 60_000_000_000 in
  while Option.is_none !got && (not c.dead) && Clock.now () < deadline do
    pump [ c ] ~timeout:0.05
  done;
  match !got with
  | Some r -> r
  | None ->
      fail ();
      failwith ("no response to " ^ line)

(* A connection's cyclic supply of pre-rendered observe lines. *)
type flow = {
  conn : conn;
  pool : Gen.pool;
  mutable next : int;
  mutable values : int;  (** values sent *)
}

let flow conn pool = { conn; pool; next = 0; values = 0 }

let send_next f =
  send f.conn f.pool.Gen.lines.(f.next);
  f.values <- f.values + f.pool.Gen.per_line;
  f.next <- (f.next + 1) mod Array.length f.pool.Gen.lines

(* Closed-loop rates are counted in windows of this many ns. *)
let window = 100_000_000

(* Closed loop until [until] (ns): [inflight] requests outstanding per
   flow, each response answered by the next request; [others] are pumped
   alongside (their handlers drive themselves).  Returns the values
   acknowledged in each whole [window] since the start; the requests in
   flight at [until] are drained afterwards (checked, not counted). *)
let closed_loop ?(others = []) flows ~inflight ~until =
  let start = Clock.now () in
  let windows = Array.make (((until - start) / window) + 1) 0 in
  List.iter
    (fun f ->
      f.conn.on_line <-
        (fun t buf pos len ->
          if not (is_ok buf pos len) then fail ();
          if t < until then begin
            let w = (t - start) / window in
            windows.(w) <- windows.(w) + f.pool.Gen.per_line;
            send_next f
          end);
      for _ = 1 to inflight do
        send_next f
      done)
    flows;
  let conns = List.map (fun f -> f.conn) flows @ others in
  let now = ref start in
  while !now < until do
    pump conns ~timeout:(Float.min 0.05 (Clock.seconds (until - !now)));
    now := Clock.now ()
  done;
  Array.sub windows 0 ((until - start) / window)

let per_second count = float_of_int count /. Clock.seconds window

(* The rate over the whole phase: every stall, a collection or a slow
   reconfigure included. *)
let mean_rate windows =
  per_second (Array.fold_left ( + ) 0 windows) /. float_of_int (Array.length windows)

(* The 90th-percentile window: what the daemon sustains when it has the
   machine to itself, a diagnostic beside [mean_rate]. *)
let p90_rate windows =
  let s = Array.copy windows in
  Array.sort Int.compare s;
  per_second (Quantile.percentile s 0.9)

(* An open loop's samples, accumulated over the segments it runs in. *)
type open_result = {
  latency : Quantile.Ivec.t;  (** ns from each request's scheduled send time *)
  lateness : Quantile.Ivec.t;  (** ns each request was queued after its time *)
  mutable scheduled : int;
}

let open_result () =
  { latency = Quantile.Ivec.create (); lateness = Quantile.Ivec.create (); scheduled = 0 }

(* Open loop from [start] to [until] (ns) at [rate] lines/s over all
   flows, into [acc]: flow [c] sends its [i]-th line at
   start + (i + c/flows)/rate_c, whatever the daemon is doing.  Latency
   runs from the scheduled time, so a stall is charged to every request
   it delays; the generator busy polls when the next send is under 1 ms
   away and records how late it queued each line.  Requests still in
   flight at [until] are timed when a later [drain] reads their
   responses. *)
let open_loop acc flows ~rate ~start ~until =
  let k = List.length flows in
  let interval = float_of_int k *. 1e9 /. rate in
  let flows =
    List.mapi
      (fun c f ->
        let offset = float_of_int c /. float_of_int k in
        let due i = start + int_of_float ((float_of_int i +. offset) *. interval) in
        (f, due, ref 0, ref 0))
      flows
  in
  List.iter
    (fun (f, due, _, recv) ->
      f.conn.on_line <-
        (fun t buf pos len ->
          let j = !recv in
          incr recv;
          if is_ok buf pos len then Quantile.Ivec.push acc.latency (t - due j)
          else begin
            fail ();
            Quantile.Ivec.push acc.latency Quantile.failed
          end))
    flows;
  let conns = List.map (fun (f, _, _, _) -> f.conn) flows in
  let now = ref (Clock.now ()) in
  while !now < until do
    let next_due = ref max_int in
    List.iter
      (fun (f, due, next, _) ->
        while due !next <= !now do
          send_next f;
          Quantile.Ivec.push acc.lateness (!now - due !next);
          incr next
        done;
        next_due := min !next_due (due !next))
      flows;
    let wait = !next_due - Clock.now () in
    let timeout =
      if wait > 1_000_000 then Clock.seconds (min (wait - 500_000) (until - !now))
      else 0.
    in
    pump conns ~timeout:(Float.max 0. timeout);
    now := Clock.now ()
  done;
  List.iter (fun (_, _, next, _) -> acc.scheduled <- acc.scheduled + !next) flows
