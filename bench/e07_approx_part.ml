(* E7 — Proposition 3.4: the ApproxPart guarantees, measured.

   Over repeated runs on a mixed workload (skewed mass + genuine heavy
   atoms), we check each clause:
   (i)   every element with D(i) >= 1/b is isolated as a singleton;
   (ii)  light intervals (D(I) < 1/(2b)) are few and only appear adjacent
         to heavy singletons or at the domain's right end;
   (iii) every other interval has D(I) in [1/(2b), 2/b];
   plus K against the 2b+2 bound of the paper (our greedy realization's
   bound is ~4b). *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E7 (Prop 3.4: ApproxPart guarantees)"
    ~claim:
      "From O(b log b) samples: heavy elements isolated, all but a few \
       cells hold Theta(1/b) mass, K = O(b).";
  let n = 4096 in
  let runs = if mode.Exp_common.quick then 30 else 100 in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  (* Workload: Zipf body + 3 heavy atoms of mass 0.05 each. *)
  let pmf =
    Families.mixture
      [
        (0.85, Families.zipf ~n ~s:1.05);
        (0.15, Families.spiked ~n ~spikes:3 ~spike_mass:1.0 ~rng);
      ]
  in
  List.iter
    (fun b ->
      let fb = float_of_int b in
      let heavy_truth =
        List.filter (fun i -> Pmf.get pmf i >= 1. /. fb) (Pmf.support pmf)
      in
      (* Per run: are the heavy elements isolated, and how many cells are
         light, in the band, and in all. *)
      let outs =
        Exp_common.run_trials ~mode ~rng ~trials:runs ~pmf (fun trial ->
            let res = Histotest.Approx_part.run trial.Harness.oracle ~b in
            let part = res.Histotest.Approx_part.partition in
            (* (i) every truly heavy element is a singleton cell. *)
            let all_isolated =
              List.for_all
                (fun i ->
                  Interval.is_singleton
                    (Partition.cell part (Partition.find part i)))
                heavy_truth
            in
            (* (ii)+(iii) cell-mass accounting. *)
            let light = ref 0 and in_band = ref 0 in
            Partition.iteri
              (fun _ cell ->
                let mass = Pmf.mass_on pmf cell in
                if Interval.is_singleton cell && mass >= 1. /. fb then ()
                else if mass < 0.5 /. fb then incr light
                else if mass <= 2. /. fb then incr in_band)
              part;
            (all_isolated, !light, !in_band, Partition.cell_count part))
      in
      let isolated = Exp_common.count (fun (ok, _, _, _) -> ok) outs in
      let mean f = Numkit.Summary.mean_of (Array.map f outs) in
      Exp_common.row
        "b=%4d: heavy isolated %d/%d runs; light cells %.1f avg; %.0f%% of \
         cells in [1/2b, 2/b]; K avg %.0f (2b+2 = %d)@."
        b isolated runs
        (mean (fun (_, light, _, _) -> float_of_int light))
        (100. *. mean (fun (_, _, in_band, total) ->
                     float_of_int in_band /. float_of_int total))
        (mean (fun (_, _, _, total) -> float_of_int total))
        ((2 * b) + 2))
    [ 40; 80; 160 ];
  Exp_common.row
    "@.Expected shape: heavy isolation in ~9/10+ of runs, a handful of@.";
  Exp_common.row
    "light cells (each adjacent to a heavy singleton), most cells in the@.";
  Exp_common.row "band, K within a small constant of 2b+2.@."
