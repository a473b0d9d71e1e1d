type oracle = {
  n : int;
  exact : int -> int array;
  poissonized : float -> int array;
  stream : int -> int array;
}

(* [stream] stays honest: conditioned on its counts, an iid sample
   sequence is an exchangeable uniform permutation of the multiset, so
   expanding the count vector and shuffling reproduces the exact joint
   law of m iid draws. *)

let expand_counts counts out =
  let j = ref 0 in
  Array.iteri
    (fun i c ->
      for _ = 1 to c do
        out.(!j) <- i;
        incr j
      done)
    counts

let counts_of_tree rng tree =
  let n = Split_tree.size tree in
  let stream m =
    if m < 0 then invalid_arg "Poissonize.counts_of_tree: negative sample count";
    let counts = Split_tree.draw_counts tree rng m in
    let out = Array.make m 0 in
    expand_counts counts out;
    Randkit.Sampler.shuffle_in_place rng out;
    out
  in
  {
    n;
    exact = (fun m -> Split_tree.draw_counts tree rng m);
    poissonized =
      (fun mean ->
        (* Identical Poissonization: the total N ~ Poisson(mean) is drawn
           once at the root, then split — per-element counts are the same
           independent Poisson(mean * D(i)) variables as on the stream
           path. *)
        let m' = Randkit.Sampler.poisson rng ~mean in
        Split_tree.draw_counts tree rng m');
    stream;
  }

let counts_of_tree_ws ws rng tree =
  let n = Split_tree.size tree in
  let counts_for m =
    let counts = Workspace.counts ws n in
    Split_tree.draw_counts_into tree rng ~counts m;
    counts
  in
  {
    n;
    exact = counts_for;
    poissonized =
      (fun mean -> counts_for (Randkit.Sampler.poisson rng ~mean));
    stream =
      (fun m ->
        if m < 0 then
          invalid_arg "Poissonize.counts_of_tree_ws: negative sample count";
        let counts = counts_for m in
        let out = Workspace.samples ws m in
        expand_counts counts out;
        Randkit.Sampler.shuffle_in_place rng out;
        out);
  }
