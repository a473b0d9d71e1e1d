(* A monitor-style work-sharing pool: one mutex, two conditions, and an
   index counter workers race on.  Workers claim *chunks* of contiguous
   indices per mutex round-trip ([default_grain]: ~total/(4*jobs)), so a
   batch of short tasks — a harness run of many cheap trials — costs
   O(jobs) lock handoffs instead of O(total).
   Results still land in submission order and a [jobs = 1] pool is exactly
   a sequential loop. *)

type state = {
  mutex : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  mutable body : int -> unit;
  mutable next : int;  (* next unclaimed index of the current batch *)
  mutable total : int;
  mutable chunk : int;  (* indices claimed per lock round-trip *)
  mutable completed : int;
  mutable generation : int;  (* bumped per batch so workers join it once *)
  mutable busy : bool;
  mutable exn : (exn * Printexc.raw_backtrace) option;
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
}

type t = { jobs : int; state : state option }

let default_grain ~jobs ~total =
  if jobs <= 1 then max 1 total else max 1 (total / (4 * jobs))

(* True while this domain is executing a pool task: nested [map]/[init]
   calls fall back to a sequential loop instead of corrupting the batch
   state (or deadlocking) of the pool they are already inside. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Claim-and-run loop.  Called (and returns) with [st.mutex] held.  A
   raising body records the first exception and cancels the batch's
   unclaimed indices; every claimed index still counts toward
   [completed] (the rest of a chunk that raised mid-way is skipped but
   counted), so the batch always drains. *)
let drain st =
  let rec loop () =
    if st.next < st.total then begin
      let lo = st.next in
      let hi = min st.total (lo + st.chunk) in
      st.next <- hi;
      let body = st.body in
      Mutex.unlock st.mutex;
      (match
         for i = lo to hi - 1 do
           body i
         done
       with
      | () -> Mutex.lock st.mutex
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock st.mutex;
          if Option.is_none st.exn then st.exn <- Some (e, bt);
          st.completed <- st.completed + (st.total - st.next);
          st.next <- st.total);
      st.completed <- st.completed + (hi - lo);
      if st.completed >= st.total then Condition.broadcast st.work_done;
      loop ()
    end
  in
  loop ()

let worker st () =
  Domain.DLS.set in_task true;
  let seen = ref 0 in
  Mutex.lock st.mutex;
  while not st.shutdown do
    if st.busy && st.generation <> !seen then begin
      seen := st.generation;
      drain st
    end
    else Condition.wait st.work_available st.mutex
  done;
  Mutex.unlock st.mutex

let nop_body _ = ()

(* The runtime's hard limit on domains alive at once, the submitting
   domain included: [Max_domains] in caml/domain.h. *)
let max_jobs = if Sys.word_size = 64 then 128 else 16

let stop st =
  Mutex.lock st.mutex;
  st.shutdown <- true;
  Condition.broadcast st.work_available;
  Mutex.unlock st.mutex;
  List.iter Domain.join st.domains

let create ~jobs =
  if jobs <= 0 then invalid_arg "Pool.with_pool: jobs must be positive";
  if jobs > max_jobs then
    invalid_arg "Pool.with_pool: jobs above the runtime's domain limit";
  if jobs = 1 then { jobs = 1; state = None }
  else begin
    let st =
      {
        mutex = Mutex.create ();
        work_available = Condition.create ();
        work_done = Condition.create ();
        body = nop_body;
        next = 0;
        total = 0;
        chunk = 1;
        completed = 0;
        generation = 0;
        busy = false;
        exn = None;
        shutdown = false;
        domains = [];
      }
    in
    (* A spawn fails when domains outside this pool leave too few under
       the limit; the workers already started are then stopped and
       joined before the failure goes on. *)
    for _ = 1 to jobs - 1 do
      match Domain.spawn (worker st) with
      | d -> st.domains <- d :: st.domains
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          stop st;
          Printexc.raise_with_backtrace e bt
    done;
    { jobs; state = Some st }
  end

let sequential = { jobs = 1; state = None }

let shutdown t = Option.iter stop t.state

(* Run one batch.  The submitting domain participates in the claim loop,
   so a [with_pool ~jobs] pool applies [jobs] domains to the batch.  If the
   pool is already mid-batch (a submission from another domain), degrade
   to a sequential loop rather than interleave two batches. *)
let run st ~total ~chunk body =
  Mutex.lock st.mutex;
  if st.busy then begin
    Mutex.unlock st.mutex;
    for i = 0 to total - 1 do
      body i
    done
  end
  else begin
    st.busy <- true;
    st.body <- body;
    st.next <- 0;
    st.total <- total;
    st.chunk <- max 1 chunk;
    st.completed <- 0;
    st.exn <- None;
    st.generation <- st.generation + 1;
    Condition.broadcast st.work_available;
    Domain.DLS.set in_task true;
    drain st;
    Domain.DLS.set in_task false;
    while st.completed < st.total do
      Condition.wait st.work_done st.mutex
    done;
    st.busy <- false;
    st.body <- nop_body;
    let e = st.exn in
    st.exn <- None;
    Mutex.unlock st.mutex;
    match e with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let map t f arr =
  let n = Array.length arr in
  match t.state with
  | None -> Array.map f arr
  | Some _ when n <= 1 || Domain.DLS.get in_task -> Array.map f arr
  | Some st ->
      let results = Array.make n None in
      run st ~total:n ~chunk:(default_grain ~jobs:t.jobs ~total:n) (fun i ->
          results.(i) <- Some (f arr.(i)));
      Array.map (function Some v -> v | None -> assert false) results

let init t n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  map t f (Array.init n Fun.id)

let default_jobs () = Domain.recommended_domain_count ()

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
