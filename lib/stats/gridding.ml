type spec = { lo : float; hi : float; cells : int }

let make ~lo ~hi ~cells =
  if not (Float.is_finite lo && Float.is_finite hi) || lo >= hi then
    invalid_arg "Gridding.make: need finite lo < hi";
  if cells <= 0 then invalid_arg "Gridding.make: cells must be positive";
  { lo; hi; cells }

let cells t = t.cells

let cell_of t x =
  if Float.is_nan x then invalid_arg "Gridding.cell_of: nan";
  let frac = (x -. t.lo) /. (t.hi -. t.lo) in
  let i = int_of_float (floor (frac *. float_of_int t.cells)) in
  (* Clamp: mass outside [lo, hi) piles up on the boundary cells, which is
     the honest discretization of a truncated view. *)
  max 0 (min (t.cells - 1) i)

let cell_bounds t i =
  if i < 0 || i >= t.cells then invalid_arg "Gridding.cell_bounds: bad index";
  let w = (t.hi -. t.lo) /. float_of_int t.cells in
  (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))

(* Midpoint-rule points per cell. *)
let resolution = 16

let pmf_of_density t density =
  let w =
    Array.init t.cells (fun i ->
        let a, b = cell_bounds t i in
        let step = (b -. a) /. float_of_int resolution in
        (* Midpoint rule per sub-step. *)
        let acc = Numkit.Kahan.create () in
        for s = 0 to resolution - 1 do
          let x = a +. ((float_of_int s +. 0.5) *. step) in
          let d = density x in
          if not (Float.is_finite d) || d < 0. then
            invalid_arg "Gridding.pmf_of_density: bad density value";
          Numkit.Kahan.add acc (d *. step)
        done;
        Numkit.Kahan.total acc)
  in
  Pmf.of_weights w

let oracle_of_sampler t rng sample =
  let draw_one () = cell_of t (sample rng) in
  let counts m =
    let out = Array.make t.cells 0 in
    for _ = 1 to m do
      let i = draw_one () in
      out.(i) <- out.(i) + 1
    done;
    out
  in
  {
    Poissonize.n = t.cells;
    exact = counts;
    poissonized =
      (fun mean -> counts (Randkit.Sampler.poisson rng ~mean));
    stream = (fun m -> Array.init m (fun _ -> draw_one ()));
  }
