type counts = { minor : float; promoted : float; direct_major : float }

let measure f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let x = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let promoted = promoted1 -. promoted0 in
  let direct_major = major1 -. major0 -. promoted in
  (x, { minor = minor1 -. minor0; promoted; direct_major })
