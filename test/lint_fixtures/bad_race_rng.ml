(* par/shared-mutable-capture through a generator draw: [Rng.bits53]
   advances the generator it is handed, so pool tasks drawing from one
   captured generator race on its state and break the pre-split stream
   discipline (each task should draw from its own split). *)

let noisy pool rng xs = Parkit.Pool.map pool (fun x -> x + Randkit.Rng.bits53 rng) xs
