(* The benchmark command over a protocol that loses one message: it
   must report the failure and exit with status 1. *)

let () =
  let module B =
    Perfbench.Bench.Make (Drop.Make (Jupiter_css.Pruned_protocol))
  in
  B.main ()
