
let l2_run ?(config = Config.default) oracle ~dstar ~eps =
  (* l2-flavoured identity tester: the statistic
       T = sum_i ((N_i - m D*(i))^2 - N_i)
     satisfies E[T] = m^2 ||D - D*||_2^2 under Poissonized counts; far in
     TV implies ||D - D*||_2^2 >= 4 eps^2 / n.  This is the style of test
     the pre-ADK15 works (ILR12, CDGR16) build on, which is why it also
     serves as the verification stage of those baselines. *)
  if eps <= 0. || eps > 1. then invalid_arg "Identity.l2_run: eps outside (0, 1]";
  let n = Pmf.size dstar in
  if oracle.Poissonize.n <> n then
    invalid_arg "Identity.l2_run: oracle/hypothesis domain mismatch";
  let m = Config.test_samples config ~n ~eps in
  let fm = float_of_int m in
  let counts = oracle.Poissonize.poissonized fm in
  let ds = Pmf.unsafe_array dstar in
  let acc = Numkit.Kahan.create () in
  for i = 0 to n - 1 do
    let d = float_of_int counts.(i) -. (fm *. ds.(i)) in
    Numkit.Kahan.add acc ((d *. d) -. float_of_int counts.(i))
  done;
  let t = Numkit.Kahan.total acc in
  (* Threshold halfway (geometrically) into the far-case mean. *)
  let far_mean = fm *. fm *. 4. *. eps *. eps /. float_of_int n in
  let threshold = far_mean /. 4. in
  let verdict = if t <= threshold then Verdict.Accept else Verdict.Reject in
  (verdict, t, threshold, m)
