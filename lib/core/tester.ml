type t = {
  name : string;
  budget : n:int -> k:int -> eps:float -> int;
  run : Poissonize.oracle -> k:int -> eps:float -> Verdict.t;
}

let algorithm1 ?(config = Config.default) () =
  {
    name = "algorithm1";
    budget = (fun ~n ~k ~eps -> Hist_tester.plan ~config ~n ~k ~eps ());
    run = (fun oracle ~k ~eps -> Hist_tester.test ~config oracle ~k ~eps);
  }

let ilr12 = { name = "ilr12"; budget = Ilr12.budget; run = Ilr12.test }

let cdgr16 ?(config = Config.default) () =
  {
    name = "cdgr16";
    budget =
      (fun ~n ~k ~eps ->
        Learn_then_test.budget ~config ~n ~k ~eps ()
        + Learn_then_test.learn_budget ~k ~eps);
    run = (fun oracle ~k ~eps -> Learn_then_test.test ~config oracle ~k ~eps);
  }

let uniformity ?(config = Config.default) () =
  {
    name = "uniformity";
    budget = (fun ~n ~k:_ ~eps -> Uniformity.budget ~config ~n ~eps ());
    run =
      (fun oracle ~k:_ ~eps ->
        (Uniformity.run ~config oracle ~eps).Uniformity.verdict);
  }

let all ?config () =
  [ algorithm1 ?config (); ilr12; cdgr16 ?config () ]
