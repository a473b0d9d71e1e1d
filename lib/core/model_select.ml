type result = {
  k_hat : int option;
  probes : (int * Verdict.t) list;
  samples_used : int;
}

(* Majority-vote count per probe. *)
let boost = 3

let run ?(config = Config.default) ~make_oracle ~k_max ~eps () =
  if k_max < 1 then invalid_arg "Model_select.run: k_max < 1";
  let probes = ref [] in
  let samples = ref 0 in
  let accepts k =
    (* Each probe is an amplified tester call on fresh samples, so the
       doubling search's union bound over O(log k∗) probes goes through. *)
    let verdict =
      Amplify.majority_vote ~trials:boost (fun _ ->
          let oracle = make_oracle () in
          let report = Hist_tester.run ~config oracle ~k ~eps in
          samples := !samples + report.Hist_tester.samples_used;
          report.Hist_tester.verdict)
    in
    probes := (k, verdict) :: !probes;
    Verdict.equal verdict Verdict.Accept
  in
  let k_hat = Numkit.Search.doubling_first_true ~start:1 ~limit:k_max accepts in
  { k_hat; probes = List.rev !probes; samples_used = !samples }
