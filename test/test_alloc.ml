(* Refkit.Alloc.measure reads each kind of allocation with its own
   counter (minor, promoted, direct major), exactly, and adds no words
   of its own: the 0-word pins in the other suites rest on that.  A
   list still live at a [Gc.minor ()] that ends the thunk (1000 ints,
   3000 words) reads as promoted, not as direct major words. *)
let test_measure () =
  let open Refkit.Alloc in
  let reads name f want =
    let _, c = measure f in
    Alcotest.(check (list (float 0.))) name want
      [ c.minor; c.promoted; c.direct_major ]
  in
  reads "empty thunk" ignore [ 0.; 0.; 0. ];
  reads "100 young 10-int arrays"
    (fun () ->
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Array.make 10 0))
      done)
    [ 1100.; 0.; 0. ];
  reads "a 1000-float array"
    (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0.)))
    [ 0.; 0.; 1001. ];
  let _, c =
    measure (fun () ->
        let l = List.init 1000 Fun.id in
        Gc.minor ();
        l)
  in
  if c.promoted < 3000. || c.direct_major <> 0. then
    Alcotest.failf "%.0f promoted (want >= 3000), %.0f direct (want 0)"
      c.promoted c.direct_major

let () =
  Alcotest.run "alloc"
    [ ("measure", [ Alcotest.test_case "counters" `Quick test_measure ]) ]
