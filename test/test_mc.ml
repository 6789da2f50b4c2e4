(* Tests for the bounded model checker (lib/mc): the mechanized
   theorem gate.  Convergence (Thm 6.7) and the weak list
   specification (Thm 8.2) must hold on every bounded interleaving;
   the strong list specification must be refuted on the thm81 workload
   (Thm 8.1) with a shrunk witness; CSS and CSCW must be behaviourally
   equivalent on every schedule (Thm 7.1); and partial-order reduction
   must agree with naive enumeration while exploring strictly less. *)

open Rlist_mc
module Css_mc = Mc.Cs (Jupiter_css.Protocol)
module Cscw_mc = Mc.Cs (Jupiter_cscw.Protocol)
module Pruned_mc = Mc.Cs (Jupiter_css.Pruned_protocol)
module P2p_mc = Mc.P2p (Jupiter_css.Distributed_protocol)

let find_violation outcome spec =
  List.find_opt
    (fun v -> String.equal v.Explore.v_spec spec)
    outcome.Mc.violations

let check_clean name (outcome : _ Mc.outcome) =
  Alcotest.(check int)
    (name ^ ": no violations")
    0
    (List.length outcome.Mc.violations);
  Alcotest.(check bool)
    (name ^ ": not truncated")
    false outcome.Mc.stats.Explore.truncated

(* --- Thm 8.1: the strong spec is refuted, automatically ------------- *)

let test_thm81_strong_violation () =
  let outcome =
    Css_mc.check ~specs:[ Mc.Strong ] ~workload:Workload.thm81 ()
  in
  match find_violation outcome "strong" with
  | None -> Alcotest.fail "expected a strong-spec violation on thm81"
  | Some v ->
    (match v.Explore.v_result with
    | Rlist_spec.Check.Satisfied -> Alcotest.fail "violation holds a Satisfied"
    | Rlist_spec.Check.Violated _ -> ());
    (* The shrunk witness must still replay to a violation and be
       1-minimal: dropping any single event loses the violation. *)
    let replays schedule =
      let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
      let e =
        E.create ~initial:Workload.thm81.Workload.initial ~nclients:3 ()
      in
      match E.run e schedule with
      | exception Invalid_argument _ -> None
      | () -> Some (Rlist_spec.Strong_spec.check (E.trace e))
    in
    (match replays v.Explore.v_schedule with
    | Some (Rlist_spec.Check.Violated _) -> ()
    | _ -> Alcotest.fail "shrunk witness does not replay to a violation");
    let n = List.length v.Explore.v_schedule in
    List.iteri
      (fun i _ ->
        let candidate =
          List.filteri (fun j _ -> j <> i) v.Explore.v_schedule
        in
        match replays candidate with
        | Some (Rlist_spec.Check.Violated _) ->
          Alcotest.failf "witness not 1-minimal: event %d removable" (i + 1)
        | _ -> ())
      v.Explore.v_schedule;
    (* Thm 8.1 needs all three concurrent updates plus enough
       deliveries to realize the cycle: the witness stays small. *)
    Alcotest.(check bool)
      "witness has at least 3 events" true (n >= 3);
    Alcotest.(check bool)
      (Printf.sprintf "witness is small (%d events)" n)
      true (n <= 14)

(* Thm 6.7 / Thm 8.2 still hold on the very workload refuting the
   strong spec. *)
let test_thm81_conv_weak_hold () =
  check_clean "css thm81 conv+weak"
    (Css_mc.check
       ~specs:[ Mc.Convergence; Mc.Weak ]
       ~workload:Workload.thm81 ());
  check_clean "cscw thm81 conv+weak"
    (Cscw_mc.check
       ~specs:[ Mc.Convergence; Mc.Weak ]
       ~workload:Workload.thm81 ())

(* --- Bounded combinatorial workloads --------------------------------- *)

let test_combinatorial_2x2_clean () =
  let workload = Workload.combinatorial ~nclients:2 ~ops:2 in
  check_clean "css 2x2"
    (Css_mc.check ~specs:[ Mc.Convergence; Mc.Weak ] ~workload ());
  check_clean "cscw 2x2"
    (Cscw_mc.check ~specs:[ Mc.Convergence; Mc.Weak ] ~workload ())

(* --- Thm 7.1: CSS and CSCW behave identically ------------------------ *)

let test_equiv_css_cscw () =
  let equiv =
    ("equiv-cscw", Mc.behavior_of (module Jupiter_cscw.Protocol))
  in
  let workload = Workload.combinatorial ~nclients:2 ~ops:2 in
  check_clean "css~cscw 2x2" (Css_mc.check ~equiv ~specs:[] ~workload ());
  check_clean "css~cscw thm81"
    (Css_mc.check ~equiv ~specs:[] ~workload:Workload.thm81 ())

(* --- POR agrees with naive enumeration and explores less ------------- *)

let test_por_vs_naive () =
  (* Naive enumeration is only tractable at the smallest bound; the
     thm81 cross-check below covers a violating workload. *)
  let workload = Workload.combinatorial ~nclients:2 ~ops:1 in
  let specs = [ Mc.Convergence; Mc.Weak; Mc.Strong ] in
  let reduced = Css_mc.check ~por:true ~shrink:false ~specs ~workload () in
  let naive = Css_mc.check ~por:false ~shrink:false ~specs ~workload () in
  Alcotest.(check bool) "naive not truncated" false
    naive.Mc.stats.Explore.truncated;
  let verdicts outcome =
    List.sort String.compare
      (List.map (fun v -> v.Explore.v_spec) outcome.Mc.violations)
  in
  Alcotest.(check (list string))
    "identical verdicts" (verdicts naive) (verdicts reduced);
  Alcotest.(check bool)
    (Printf.sprintf "POR explores fewer configurations (%d < %d)"
       reduced.Mc.stats.Explore.states naive.Mc.stats.Explore.states)
    true
    (reduced.Mc.stats.Explore.states < naive.Mc.stats.Explore.states);
  Alcotest.(check bool)
    (Printf.sprintf "POR checks fewer interleavings (%d < %d)"
       reduced.Mc.stats.Explore.terminals naive.Mc.stats.Explore.terminals)
    true
    (reduced.Mc.stats.Explore.terminals
    < naive.Mc.stats.Explore.terminals);
  (* Something must actually have been pruned for the claim to mean
     anything. *)
  Alcotest.(check bool)
    "pruning counters are live" true
    (reduced.Mc.stats.Explore.pruned_state > 0
    || reduced.Mc.stats.Explore.pruned_sleep > 0)

let test_por_vs_naive_thm81 () =
  let specs = [ Mc.Strong ] in
  let reduced =
    Css_mc.check ~por:true ~shrink:false ~specs ~workload:Workload.thm81 ()
  in
  let naive =
    Css_mc.check ~por:false ~shrink:false ~specs ~workload:Workload.thm81 ()
  in
  Alcotest.(check bool) "naive finds it" true
    (find_violation naive "strong" <> None);
  Alcotest.(check bool) "reduced finds it" true
    (find_violation reduced "strong" <> None);
  Alcotest.(check bool) "reduced explores fewer" true
    (reduced.Mc.stats.Explore.states < naive.Mc.stats.Explore.states)

(* --- Peer-to-peer engine --------------------------------------------- *)

let test_p2p_clean () =
  let workload = Workload.combinatorial ~nclients:2 ~ops:1 in
  check_clean "css-p2p 2x1"
    (P2p_mc.check ~specs:[ Mc.Convergence; Mc.Weak ] ~workload ())

(* --- Workload catalog and clamping ----------------------------------- *)

let test_workload_catalog () =
  let catalog = Workload.catalog ~nclients:2 ~ops:2 () in
  Alcotest.(check int) "catalog includes thm81" 2 (List.length catalog);
  Alcotest.(check bool) "thm81 last" true
    (String.equal (List.nth catalog 1).Workload.wname "thm81");
  let only = Workload.catalog ~include_thm81:false ~nclients:2 ~ops:2 () in
  Alcotest.(check int) "catalog without thm81" 1 (List.length only);
  Alcotest.(check int) "thm81 updates" 3 (Workload.total_updates Workload.thm81)

let test_workload_clamp () =
  let open Rlist_model in
  let eq = Alcotest.testable Intent.pp ( = ) in
  Alcotest.check eq "insert clamped"
    (Intent.Insert ('a', 2))
    (Workload.clamp ~doc_length:2 (Intent.Insert ('a', 9)));
  Alcotest.check eq "delete clamped" (Intent.Delete 1)
    (Workload.clamp ~doc_length:2 (Intent.Delete 5));
  Alcotest.check eq "delete on empty becomes read" Intent.Read
    (Workload.clamp ~doc_length:0 (Intent.Delete 0));
  Alcotest.check eq "read unchanged" Intent.Read
    (Workload.clamp ~doc_length:0 Intent.Read)

(* --- Compaction races (continuous GC under the checker) -------------- *)

(* Every interleaving of the compaction-race workload, with a cycle
   forced after every single operation (every-ops=1): the rebase onto
   the acked-stable state races deliveries whose contexts straddle the
   stable frontier, and must stay invisible — convergence and the weak
   spec hold, and the behaviour matches plain CSS (which never
   compacts) on every terminal schedule.  A GC cycle fires as a
   function of the path, not of the reduced state, so the gate run is
   [~por:false]; the POR run cross-checks that the reduction does not
   change any verdict. *)
let test_compaction_race_clean () =
  let gc = { Rlist_gc.every_ops = 1; retain_keys = 2 } in
  let specs = [ Mc.Convergence; Mc.Weak ] in
  let equiv = ("equiv-css", Mc.behavior_of (module Jupiter_css.Protocol)) in
  (* Naive enumeration is only tractable on a two-client slice of the
     race (the generator streak vs the straddling delete); it is the
     gate, since a cycle fires as a function of the path and POR
     merges paths. *)
  let small =
    let open Rlist_model in
    {
      Workload.wname = "compaction-race-2";
      nclients = 2;
      initial = Document.of_string "x";
      scripts =
        [|
          [];
          [ Intent.Insert ('a', 0); Intent.Delete 1 ];
          [ Intent.Delete 0 ];
        |];
    }
  in
  let naive =
    Pruned_mc.check ~equiv ~gc ~por:false ~shrink:false ~specs
      ~workload:small ()
  in
  check_clean "pruned+gc race slice (naive)" naive;
  let reduced =
    Pruned_mc.check ~equiv ~gc ~por:true ~shrink:false ~specs ~workload:small
      ()
  in
  check_clean "pruned+gc race slice (por)" reduced;
  Alcotest.(check bool)
    (Printf.sprintf "POR explores fewer configurations (%d < %d)"
       reduced.Mc.stats.Explore.states naive.Mc.stats.Explore.states)
    true
    (reduced.Mc.stats.Explore.states < naive.Mc.stats.Explore.states);
  (* The full three-client race, reduced: still every verdict clean. *)
  let full =
    Pruned_mc.check ~equiv ~gc ~por:true ~shrink:false ~specs
      ~workload:Workload.compaction_race ()
  in
  check_clean "pruned+gc compaction race (por)" full

(* --- The shrinker in isolation --------------------------------------- *)

let test_shrink_minimal () =
  let still_fails l = List.mem 3 l && List.mem 7 l in
  let shrunk =
    Witness.shrink ~still_fails [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check (list int)) "1-minimal core" [ 3; 7 ] shrunk

let test_shrink_preserves_order () =
  let still_fails l = List.mem 9 l && List.mem 2 l in
  let shrunk = Witness.shrink ~still_fails [ 9; 1; 2; 3; 9; 2 ] in
  Alcotest.(check bool) "still fails" true (still_fails shrunk);
  Alcotest.(check int) "two events" 2 (List.length shrunk)

let () =
  Alcotest.run "mc"
    [
      ( "theorem gate",
        [
          Alcotest.test_case "thm81 strong violation found and shrunk" `Quick
            test_thm81_strong_violation;
          Alcotest.test_case "thm81 convergence and weak hold" `Quick
            test_thm81_conv_weak_hold;
          Alcotest.test_case "combinatorial 2x2 clean" `Quick
            test_combinatorial_2x2_clean;
          Alcotest.test_case "css equivalent to cscw (thm 7.1)" `Quick
            test_equiv_css_cscw;
        ] );
      ( "por",
        [
          Alcotest.test_case "por agrees with naive, explores less" `Quick
            test_por_vs_naive;
          Alcotest.test_case "por preserves the thm81 refutation" `Quick
            test_por_vs_naive_thm81;
        ] );
      ( "p2p",
        [ Alcotest.test_case "distributed css clean" `Quick test_p2p_clean ] );
      ( "gc",
        [
          Alcotest.test_case "compaction race clean, por agrees" `Quick
            test_compaction_race_clean;
        ] );
      ( "workload",
        [
          Alcotest.test_case "catalog" `Quick test_workload_catalog;
          Alcotest.test_case "clamp" `Quick test_workload_clamp;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "finds the 1-minimal core" `Quick
            test_shrink_minimal;
          Alcotest.test_case "keeps order" `Quick test_shrink_preserves_order;
        ] );
    ]
