(* perfbench: edit-to-converge latency and throughput of the production
   configuration on one workload; see perfbench/README.md. *)

let () =
  let module B = Perfbench.Bench.Make (Jupiter_css.Pruned_protocol) in
  B.main ()
