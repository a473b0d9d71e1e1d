(* Two-heap weighted-median maintenance.

   Invariant: every value in [lower] is <= every value in [upper], and the
   total weight of [lower] is at least half the grand total but would drop
   below half without its maximum.  The maximum of [lower] is then a weighted
   median, and the optimal L1 cost
     min_v  sum_i w_i * |v_i - v|
   is available from the maintained weight and weight*value totals of the
   two sides in O(1). *)

type t = {
  lower : float Numkit.Heap.t; (* max-heap of (value, weight) *)
  upper : float Numkit.Heap.t; (* min-heap of (value, weight) *)
  mutable w_lower : float;
  mutable w_upper : float;
  mutable s_lower : float; (* sum of w*v on the lower side *)
  mutable s_upper : float;
}

let create () =
  {
    lower = Numkit.Heap.create ~max_heap:true ();
    upper = Numkit.Heap.create ();
    w_lower = 0.;
    w_upper = 0.;
    s_lower = 0.;
    s_upper = 0.;
  }

let total_weight t = t.w_lower +. t.w_upper

let rebalance t =
  (* Shift boundary elements until the lower side holds a weighted median. *)
  let continue = ref true in
  while !continue do
    let total = total_weight t in
    if t.w_lower < total /. 2. then begin
      match Numkit.Heap.pop t.upper with
      | None -> continue := false
      | Some (v, w) ->
          Numkit.Heap.push t.lower ~priority:v w;
          t.w_upper <- t.w_upper -. w;
          t.s_upper <- t.s_upper -. (w *. v);
          t.w_lower <- t.w_lower +. w;
          t.s_lower <- t.s_lower +. (w *. v)
    end
    else begin
      match Numkit.Heap.peek t.lower with
      | None -> continue := false
      | Some (v, w) ->
          if t.w_lower -. w >= total /. 2. then begin
            ignore (Numkit.Heap.pop t.lower);
            t.w_lower <- t.w_lower -. w;
            t.s_lower <- t.s_lower -. (w *. v);
            Numkit.Heap.push t.upper ~priority:v w;
            t.w_upper <- t.w_upper +. w;
            t.s_upper <- t.s_upper +. (w *. v)
          end
          else continue := false
    end
  done

let add t ~value ~weight =
  if weight < 0. then invalid_arg "Wmedian.add: negative weight";
  if weight > 0. then begin
    let goes_lower =
      match Numkit.Heap.peek t.lower with None -> true | Some (v, _) -> value <= v
    in
    if goes_lower then begin
      Numkit.Heap.push t.lower ~priority:value weight;
      t.w_lower <- t.w_lower +. weight;
      t.s_lower <- t.s_lower +. (weight *. value)
    end
    else begin
      Numkit.Heap.push t.upper ~priority:value weight;
      t.w_upper <- t.w_upper +. weight;
      t.s_upper <- t.s_upper +. (weight *. value)
    end;
    rebalance t
  end

let median t =
  match Numkit.Heap.peek t.lower with
  | Some (v, _) -> v
  | None -> ( match Numkit.Heap.peek t.upper with Some (v, _) -> v | None -> nan)

let cost t =
  if Float.equal (total_weight t) 0. then 0.
  else begin
    let m = median t in
    (* lower side: sum w*(m - v); upper side: sum w*(v - m). *)
    ((m *. t.w_lower) -. t.s_lower) +. (t.s_upper -. (m *. t.w_upper))
  end
