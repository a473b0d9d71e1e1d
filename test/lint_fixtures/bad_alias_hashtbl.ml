(* det/hashtbl-order through a module alias: [H.iter] is [Hashtbl.iter],
   and the alias must not hide it. *)

module H = Hashtbl

let visit (tbl : (string, int) Hashtbl.t) = H.iter (fun _ _ -> ()) tbl
