let add_run t x count =
  for _ = 1 to count do
    Numkit.Kahan.add t x
  done
