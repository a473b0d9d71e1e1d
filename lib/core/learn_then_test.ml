let budget ?(config = Config.default) ~n ~k ~eps () =
  (* sqrt(k n)/eps^3 * log n: the CDGR16 bound this baseline realizes. *)
  let fn = float_of_int n and fk = float_of_int k in
  let c = Float.max 4. (config.Config.c_test /. 10.) in
  int_of_float
    (ceil (c *. sqrt (fk *. fn) *. log fn /. ((eps ** 3.) *. log 2.)))

let learn_budget ~k ~eps = Learn.budget ~k ~eps

let test ?(config = Config.default) oracle ~k ~eps =
  if k < 1 then invalid_arg "Learn_then_test.test: k must be at least 1";
  if eps <= 0. || eps > 1. then
    invalid_arg "Learn_then_test.test: eps outside (0, 1]";
  (* Stage 1 - agnostic TV learning of a candidate k-histogram.  If D is
     in H_k this lands TV-close to D; if D is far the hypothesis cannot be
     close, and stage 2 sees it. *)
  let learned = Learn.run oracle ~k ~eps in
  let dstar = Khist.to_pmf learned.Learn.hypothesis in
  (* Stage 2 - verify with an l2-style identity test at eps/2 (the learned
     hypothesis is eps/10-ish close in the completeness case, so the test
     tolerance must sit between learning error and eps). *)
  let verdict, _, _, _ =
    Identity.l2_run ~config oracle ~dstar ~eps:(eps /. 2.)
  in
  verdict
