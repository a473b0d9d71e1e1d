(* E11 — Section 1.1's use-case: model selection by doubling search finds
   the smallest adequate bin count within a factor 2.

   For staircases with known k* (well-separated levels, so H_{k*-1} is
   genuinely far), the doubling search must return k_hat in [k*, 2k*]
   (or just below k* when the instance happens to be eps-close to fewer
   pieces — we report the exact distances so this is visible). *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E11 (S1.1: model selection)"
    ~claim:
      "Doubling search over tester calls returns a bin count within a \
       factor 2 of the smallest adequate one.";
  let n = 1024 in
  let eps = 0.15 in
  let runs = if mode.Exp_common.quick then 3 else 10 in
  Exp_common.row "%5s | %14s | %14s | %6s | %12s@." "k*" "tv(D,H_{k*-1})"
    "tv(D,H_{k*/2})" "k_hat" "samples";
  Exp_common.hline ();
  List.iter
    (fun k_star ->
      (* Alternating high/low staircase with ratio 5:1 — every merge of
         adjacent pieces costs Theta(1/k) in TV. *)
      let d =
        Pmf.of_weights
          (Array.init n (fun i ->
               if i / (n / k_star) mod 2 = 0 then 5. else 1.))
      in
      let d_prev = Closest.tv_to_hk d ~k:(k_star - 1) in
      let d_half = Closest.tv_to_hk d ~k:(max 1 (k_star / 2)) in
      let tree = Split_tree.of_pmf d in
      for r = 1 to runs do
        let rng = Randkit.Rng.create ~seed:(mode.Exp_common.seed + (100 * r)) in
        let result =
          Histotest.Model_select.run
            ~make_oracle:(fun () ->
              Poissonize.counts_of_tree (Randkit.Rng.split rng) tree)
            ~k_max:128 ~eps ()
        in
        let k_hat =
          match result.Histotest.Model_select.k_hat with
          | Some k -> string_of_int k
          | None -> "none"
        in
        Exp_common.row "%5d | %14.3f | %14.3f | %6s | %12d@." k_star d_prev
          d_half k_hat result.Histotest.Model_select.samples_used
      done)
    [ 4; 8 ];
  Exp_common.row
    "@.Expected shape: k_hat in [k*, 2k*] whenever tv(D, H_{k*-1}) > eps@.";
  Exp_common.row
    "(the doubling grid can land on k* exactly or overshoot by < 2x).@."
