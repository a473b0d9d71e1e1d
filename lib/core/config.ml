type t = {
  c_test : float;
  z_threshold_div : float;
  test_eps_frac : float;
  c_part_b : float;
  c_part_samples : float;
  c_learner : float;
  learner_eps_div : float;
  check_eps_div : float;
  sieve_alpha_div : float;
  sieve_stop_mult : float;
  sieve_keep_frac : float;
  sieve_stage1_mult : float;
  sieve_budget_factor : float;
  sieve_extra_rounds : int;
  sieve_delta_mult : float;
  sieve_reps_cap : int;
}

let paper =
  {
    (* m >= 20000 sqrt(n)/eps^2 (Prop. 3.3). *)
    c_test = 20000.;
    (* Accept iff Z <= m eps^2 / 10 (between m eps^2/500 and m eps^2/5). *)
    z_threshold_div = 10.;
    (* Final test at eps' = 13 eps / 30 (Algorithm 1, step 1 / 13). *)
    test_eps_frac = 13. /. 30.;
    (* b = 20 k log k / eps (step 1); O(b log b) samples (Prop. 3.4). *)
    c_part_b = 20.;
    c_part_samples = 1.;
    (* Learner accuracy eps/60 (step 4); O(l/eps_learn^2) samples. *)
    c_learner = 10.;
    learner_eps_div = 60.;
    (* Checking tolerance eps/60 (step 10). *)
    check_eps_div = 60.;
    (* Section 3.2.1 scenario: statistics at scale alpha, unit U = m alpha^2;
       stage-1 per-cell cut 10U, stage-2 stop when Z < 10U, removal until
       the residual is below 2U.  With z_threshold_div = 10, stop_mult = 100
       makes the stop threshold exactly 10U. *)
    sieve_alpha_div = 1.;
    sieve_stop_mult = 100.;
    sieve_keep_frac = 0.2;
    sieve_stage1_mult = 1.;
    (* O(log k) rounds each removing at most k' cells: budget k log k. *)
    sieve_budget_factor = 2.;
    sieve_extra_rounds = 1;
    (* delta = 1/(10 (k+1)) per test for the union bound. *)
    sieve_delta_mult = 10.;
    sieve_reps_cap = max_int;
  }

(* The paper's constants are proof artifacts; at laptop-scale n they put
   every statistical regime out of numerical reach.  This profile keeps all
   structural choices (the sqrt(n)/eps^2 scaling, the log k schedule, the
   k log k removal budget, the threshold ratios) and re-balances leading
   constants so the three separations that make Algorithm 1 work hold with
   4-sigma-ish margins at n ~ 2^10..2^18:

   - final threshold vs Poisson noise floor:  m eps'^2/6 >= 4 sqrt(2n)
     as soon as m = 60 sqrt(n)/eps'^2;
   - final threshold vs learner bias:  E chi^2 after learning is about
     eps_learn^2 / c_learner = eps^2/288, ~6x below eps'^2/6 = eps^2/32;
   - sieve stop threshold vs its own noise floor: the sieve redraws at
     scale alpha = eps'/3, i.e. with 9x the final budget, so its stop
     threshold (half the final one in chi^2 units) clears noise too.

   Experiments E1/E2 validate the profile end to end. *)
let default =
  {
    c_test = 60.;
    z_threshold_div = 6.;
    test_eps_frac = 13. /. 30.;
    c_part_b = 20.;
    c_part_samples = 4.;
    c_learner = 2.;
    learner_eps_div = 12.;
    check_eps_div = 8.;
    sieve_alpha_div = 3.;
    sieve_stop_mult = 0.5;
    sieve_keep_frac = 0.5;
    sieve_stage1_mult = 1.;
    sieve_budget_factor = 2.;
    sieve_extra_rounds = 2;
    sieve_delta_mult = 10.;
    sieve_reps_cap = 3;
  }

let scale_budget t factor =
  if factor <= 0. then invalid_arg "Config.scale_budget: factor <= 0";
  {
    t with
    c_test = t.c_test *. factor;
    c_learner = t.c_learner *. factor;
    c_part_samples = t.c_part_samples *. factor;
  }

let log2i x =
  if x <= 1 then 1 else int_of_float (ceil (log (float_of_int x) /. log 2.))

let test_samples t ~n ~eps =
  int_of_float (ceil (t.c_test *. sqrt (float_of_int n) /. (eps *. eps)))

let part_b t ~k ~eps =
  let logk = float_of_int (log2i k) in
  int_of_float (ceil (t.c_part_b *. float_of_int k *. logk /. eps))

let part_samples t ~b =
  let b' = float_of_int (max b 2) in
  int_of_float (ceil (t.c_part_samples *. b' *. (log b' /. log 2.)))

let learner_samples t ~cells ~eps =
  let eps' = eps /. t.learner_eps_div in
  int_of_float (ceil (t.c_learner *. float_of_int cells /. (eps' *. eps')))

let sieve_alpha t ~eps = eps *. t.test_eps_frac /. t.sieve_alpha_div
let sieve_rounds t ~k = log2i (k + 1) + t.sieve_extra_rounds

let sieve_budget t ~k =
  int_of_float
    (ceil (t.sieve_budget_factor *. float_of_int (k * log2i (k + 1))))

let sieve_reps t ~k =
  let delta = 1. /. (t.sieve_delta_mult *. float_of_int (k + 1)) in
  min t.sieve_reps_cap (Amplify.repetitions_for ~delta)

let sieve_stop_threshold t ~m ~eps =
  let eps' = eps *. t.test_eps_frac in
  t.sieve_stop_mult *. m *. eps' *. eps' /. t.z_threshold_div
