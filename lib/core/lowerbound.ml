let paninski_instance ~n ~eps ?(c = 6.) ~rng () =
  Families.paninski ~n ~eps ~c ~rng

type supp_side = Small | Large

let supp_size_m ~k =
  (* A support of size s sprinkled over the domain needs at most 2s+1
     histogram pieces, so the small side (support <= 2m/3 + 1) lies in H_k
     for every permutation iff k >= 2(2m/3 + 1) + 1, i.e. m <= 3(k-3)/4.
     (The paper's Section 4.2 pairs m = 3(k-1)/2 with the support bound
     2m/3 + 1, which does not satisfy this; see DESIGN.md.) *)
  max 3 (3 * (k - 3) / 4)

let supp_size_instance ~side ~m ~n ~rng =
  if n < m then invalid_arg "Lowerbound.supp_size_instance: n < m";
  let support =
    match side with
    | Small -> max 1 ((2 * m / 3) + 1)
    | Large -> max 1 (7 * m / 8)
  in
  (* Uniform over [support] elements of [m]: every nonzero mass is
     1/support >= 1/m, meeting the SuppSize promise. *)
  let base = Pmf.uniform support in
  let embedded = Ops.embed base ~n in
  let sigma = Randkit.Sampler.permutation rng n in
  (Ops.permute embedded sigma, support)

let supp_size_pair ~k ~n ~rng =
  let m = supp_size_m ~k in
  let small, s_small = supp_size_instance ~side:Small ~m ~n ~rng in
  let large, s_large = supp_size_instance ~side:Large ~m ~n ~rng in
  ((small, s_small), (large, s_large), m)

let eps_embedded pmf ~eps ~eps1 =
  if eps > eps1 then
    invalid_arg "Lowerbound.eps_embedded: eps must be at most eps1";
  (* The closing trick of Section 4.2: scale the hard instance to mass
     eps/eps1 and park the rest on one fresh heavy element, diluting the
     distance from eps1 to eps while keeping the histogram structure. *)
  Ops.pad_with_heavy_point pmf ~weight:(1. -. (eps /. eps1))

let distance_eps1 = 1. /. 24.

let cover_of_support pmf =
  Cover.of_points ~n:(Pmf.size pmf) (Pmf.support pmf)
