(* Tests for the simulation substrate: schedules, the engine (FIFO
   channels, trace/behaviour recording, quiescence), determinism of the
   random driver, and the canonical figure schedules. *)

open Rlist_model
module E = Helpers.Css_run.E

let test_schedule_validate () =
  Alcotest.(check bool)
    "valid" true
    (Result.is_ok
       (Rlist_sim.Schedule.validate ~nclients:2
          [ Generate (1, Intent.Read); Deliver_to_server 2 ]));
  Alcotest.(check bool)
    "client out of range" true
    (Result.is_error
       (Rlist_sim.Schedule.validate ~nclients:2 [ Deliver_to_client 3 ]))

let test_schedule_update_count () =
  let s : Rlist_sim.Schedule.t =
    [
      Generate (1, Intent.Insert ('a', 0));
      Generate (1, Intent.Read);
      Generate (2, Intent.Delete 0);
      Deliver_to_server 1;
    ]
  in
  Alcotest.(check int) "reads don't count" 2
    (Rlist_sim.Schedule.update_count s)

let test_final_reads () =
  Alcotest.(check int)
    "one read per client" 3
    (List.length (Rlist_sim.Schedule.final_reads ~nclients:3))

let test_engine_bounds () =
  let t = E.create ~nclients:2 () in
  Alcotest.(check bool)
    "deliver from empty client channel rejected" true
    (try
       E.apply_event t (Deliver_to_server 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "deliver to client with empty queue rejected" true
    (try
       E.apply_event t (Deliver_to_client 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "unknown client rejected" true
    (try
       E.apply_event t (Generate (5, Intent.Read));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "out-of-bounds intent rejected" true
    (try
       E.apply_event t (Generate (1, Intent.Delete 0));
       false
     with Invalid_argument _ -> true)

let test_engine_fifo () =
  (* Two updates from the same client must reach the server in order;
     a reordering would make the second op's context unknown, which the
     CSS protocol rejects loudly.  Here we simply observe that in-order
     delivery works and produces the expected document. *)
  let t = E.create ~nclients:1 () in
  E.run t
    [
      Generate (1, Intent.Insert ('a', 0));
      Generate (1, Intent.Insert ('b', 1));
      Deliver_to_server 1;
      Deliver_to_server 1;
    ];
  Alcotest.(check string)
    "server in order" "ab"
    (Document.to_string (E.server_document t))

let test_engine_pending_and_quiesce () =
  let t = E.create ~nclients:2 () in
  E.run t [ Generate (1, Intent.Insert ('a', 0)) ];
  Alcotest.(check int) "one pending" 1 (E.pending_messages t);
  let delivered = E.quiesce t in
  Alcotest.(check int) "no pending after quiesce" 0 (E.pending_messages t);
  (* 1 client->server delivery plus a broadcast to both clients. *)
  Alcotest.(check int) "deliveries performed" 3 (List.length delivered);
  Alcotest.(check bool) "converged" true (E.converged t)

let test_engine_behavior_recorded () =
  let t = E.create ~nclients:2 () in
  E.run t [ Generate (1, Intent.Insert ('a', 0)) ];
  ignore (E.quiesce t);
  let behavior = E.behavior t in
  Alcotest.(check int) "one entry per event" 4 (List.length behavior);
  match behavior with
  | (Replica_id.Client 1, doc) :: _ ->
    Alcotest.(check string) "first entry is c1's do" "a"
      (Document.to_string doc)
  | _ -> Alcotest.fail "unexpected behaviour head"

let test_engine_trace_eids () =
  let t = E.create ~nclients:2 () in
  E.run t
    [
      Generate (1, Intent.Insert ('a', 0));
      Generate (2, Intent.Read);
      Generate (1, Intent.Insert ('b', 1));
    ];
  let trace = E.trace t in
  (match Rlist_spec.Trace.validate trace with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  Alcotest.(check int) "three do events" 3
    (List.length (Rlist_spec.Trace.events trace))

let test_run_random_deterministic () =
  let t1, s1 = Helpers.Css_run.random 42 in
  let t2, s2 = Helpers.Css_run.random 42 in
  Alcotest.(check int)
    "same schedule length" (List.length s1) (List.length s2);
  Alcotest.(check bool)
    "same events" true
    (List.for_all2 (fun a b -> a = b) s1 s2);
  Alcotest.check Helpers.document "same final document"
    (E.server_document t1) (E.server_document t2)

let test_run_random_quiesces () =
  let t, schedule = Helpers.Css_run.random 7 in
  Alcotest.(check int) "no pending messages" 0 (E.pending_messages t);
  Alcotest.(check bool) "converged" true (E.converged t);
  Alcotest.(check int)
    "requested number of updates"
    Rlist_sim.Schedule.default_params.updates
    (Rlist_sim.Schedule.update_count schedule)

let test_run_random_replayable () =
  (* The concrete schedule returned by run_random must replay to the
     same behaviour on a fresh engine. *)
  let t1, schedule = Helpers.Css_run.random 11 in
  let t2 = E.create ~nclients:4 () in
  E.run t2 schedule;
  let b1 = E.behavior t1 and b2 = E.behavior t2 in
  Alcotest.(check int) "same behaviour length" (List.length b1)
    (List.length b2);
  Alcotest.(check bool)
    "same behaviour" true
    (List.for_all2
       (fun (r1, d1) (r2, d2) -> Replica_id.equal r1 r2 && Document.equal d1 d2)
       b1 b2)

let test_schedule_text_roundtrip () =
  let _, schedule = Helpers.Css_run.random 21 in
  let text =
    Rlist_sim.Schedule_text.to_string ~nclients:4 schedule
  in
  match Rlist_sim.Schedule_text.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok file ->
    Alcotest.(check int) "clients" 4 file.nclients;
    Alcotest.(check int)
      "same length" (List.length schedule)
      (List.length file.events);
    Alcotest.(check bool)
      "same events" true
      (List.for_all2 (fun a b -> a = b) schedule file.events);
    (* and the replay produces the same behaviour *)
    let t1 = E.create ~nclients:4 () in
    E.run t1 schedule;
    let t2 = E.create ~initial:file.initial ~nclients:file.nclients () in
    E.run t2 file.events;
    Alcotest.check Helpers.document "same final document"
      (E.server_document t1) (E.server_document t2)

let test_schedule_text_initial () =
  let text =
    Rlist_sim.Schedule_text.to_string ~initial:(Document.of_string "abc")
      ~nclients:2
      [ Generate (1, Intent.Delete 1) ]
  in
  match Rlist_sim.Schedule_text.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok file ->
    Alcotest.(check string)
      "initial survives" "abc"
      (Document.to_string file.initial)

let test_schedule_text_errors () =
  let check_error what text =
    match Rlist_sim.Schedule_text.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  in
  check_error "missing clients" "gen 1 read\n";
  check_error "bad directive" "clients 2\nfrobnicate\n";
  check_error "bad position" "clients 2\ngen 1 ins x y\n";
  check_error "client out of range" "clients 2\ngen 3 read\n";
  check_error "bad client count" "clients zero\n"

(* --- rounds: generate, then quiesce ---------------------------------- *)

(* The soak driver's shape (lib/run/longrun): each round every client
   generates [window] updates, then [quiesce] drains.  Returns the
   realized schedule. *)
let run_rounds t ~rng ~rounds ~window =
  let intent =
    Rlist_workload.Workload.intent_generator Rlist_workload.Workload.Uniform
      ~nclients:(E.nclients t) ~rng
  in
  let performed = ref [] in
  for _ = 1 to rounds do
    for _ = 1 to window do
      for i = 1 to E.nclients t do
        let doc_length = Document.length (E.client_document t i) in
        let ev =
          Rlist_sim.Schedule.Generate (i, intent ~client:i ~doc_length)
        in
        E.apply_event t ev;
        performed := ev :: !performed
      done
    done;
    performed := List.rev_append (E.quiesce t) !performed
  done;
  List.rev !performed

let test_rounds_basics () =
  let t = E.create ~nclients:3 () in
  let rng = Random.State.make [| 31 |] in
  let schedule = run_rounds t ~rng ~rounds:5 ~window:2 in
  Alcotest.(check int) "quiesced" 0 (E.pending_messages t);
  Alcotest.(check bool) "converged" true (E.converged t);
  Alcotest.(check int)
    "every slot is an update" 30
    (Rlist_sim.Schedule.update_count schedule);
  match Rlist_spec.Trace.validate (E.trace t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace invalid: %s" e

let test_rounds_deterministic_and_replayable () =
  let run () =
    let t = E.create ~nclients:3 () in
    let rng = Random.State.make [| 77 |] in
    let schedule = run_rounds t ~rng ~rounds:6 ~window:3 in
    t, schedule
  in
  let t1, s1 = run () in
  let t2, s2 = run () in
  Alcotest.(check bool)
    "deterministic" true
    (List.length s1 = List.length s2 && List.for_all2 (fun a b -> a = b) s1 s2);
  Alcotest.check Helpers.document "same document" (E.server_document t1)
    (E.server_document t2);
  (* the realized schedule replays on CSCW with identical behaviour *)
  let cscw = Helpers.Cscw_run.E.create ~nclients:3 () in
  Helpers.Cscw_run.E.run cscw s1;
  Alcotest.check Helpers.doc_string "CSCW agrees under the round schedule"
    (E.server_document t1)
    (Helpers.Cscw_run.E.server_document cscw)

let test_rounds_fifo_preserved () =
  (* Bursts of twenty sends per client over a wire that drops,
     duplicates and reorders: the shim must hand them to the server in
     generation order, or the protocol would reject an out-of-order
     context loudly, so a clean converged run is the proof. *)
  let faults =
    { Rlist_net.Faults.none with drop = 0.2; duplicate = 0.2; reorder = 0.3 }
  in
  let net = Rlist_net.Transport.config ~faults ~seed:5 () in
  let t = E.create ~net ~nclients:2 () in
  let rng = Random.State.make [| 5 |] in
  ignore (run_rounds t ~rng ~rounds:3 ~window:20);
  Alcotest.(check bool) "converged under bursty sends" true (E.converged t)

let test_rounds_wide_window () =
  (* A window much wider than the client count: heavy concurrency,
     still convergent and weak-spec compliant. *)
  let t = E.create ~nclients:4 () in
  let rng = Random.State.make [| 99 |] in
  ignore (run_rounds t ~rng ~rounds:2 ~window:8);
  Alcotest.(check bool) "converged" true (E.converged t);
  Helpers.check_satisfied "weak" (Rlist_spec.Weak_spec.check (E.trace t))

let test_rounds_settle_acks () =
  (* On a fault-free shim wire every delivery is ready at once, so the
     delivery loop never stalls and never ticks; acks leave and arrive
     only on ticks.  [quiesce] must settle them, or the senders'
     retransmission buffers would grow for the whole run. *)
  let net =
    Rlist_net.Transport.config ~faults:Rlist_net.Faults.none ~seed:3 ()
  in
  let t = E.create ~net ~nclients:3 () in
  let rng = Random.State.make [| 3 |] in
  let rounds = 10 in
  ignore (run_rounds t ~rng ~rounds ~window:2);
  let stats = Rlist_net.Transport.stats net in
  Alcotest.(check bool)
    "at least one ack per round" true
    (stats.Rlist_net.Stats.acks_sent >= rounds);
  Alcotest.(check int) "no retransmissions" 0 stats.Rlist_net.Stats.retransmits

let test_figures_validate () =
  List.iter
    (fun (s : Rlist_sim.Figures.scenario) ->
      match Rlist_sim.Schedule.validate ~nclients:s.nclients s.schedule with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid schedule: %s" s.sname e)
    Rlist_sim.Figures.all

let test_figures_runnable () =
  (* Every figure schedule must run to quiescence under the CSS
     protocol (figure 8 runs too — only its *naive* interpretation
     diverges). *)
  List.iter
    (fun (s : Rlist_sim.Figures.scenario) ->
      let t = Helpers.Css_run.scenario s in
      Alcotest.(check int)
        (s.sname ^ " leaves no pending messages")
        0 (E.pending_messages t))
    Rlist_sim.Figures.all

let test_figures_find () =
  Alcotest.(check bool)
    "find figure7" true
    (Rlist_sim.Figures.find "figure7" <> None);
  Alcotest.(check bool)
    "find unknown" true
    (Rlist_sim.Figures.find "figure99" = None)

let () =
  Alcotest.run "sim"
    [
      ( "schedule",
        [
          Alcotest.test_case "validate" `Quick test_schedule_validate;
          Alcotest.test_case "update_count" `Quick test_schedule_update_count;
          Alcotest.test_case "final_reads" `Quick test_final_reads;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bounds checking" `Quick test_engine_bounds;
          Alcotest.test_case "FIFO channels" `Quick test_engine_fifo;
          Alcotest.test_case "pending and quiesce" `Quick
            test_engine_pending_and_quiesce;
          Alcotest.test_case "behaviour recording" `Quick
            test_engine_behavior_recorded;
          Alcotest.test_case "trace recording" `Quick test_engine_trace_eids;
        ] );
      ( "random driver",
        [
          Alcotest.test_case "deterministic" `Quick
            test_run_random_deterministic;
          Alcotest.test_case "quiesces and counts" `Quick
            test_run_random_quiesces;
          Alcotest.test_case "replayable" `Quick test_run_random_replayable;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "basics" `Quick test_rounds_basics;
          Alcotest.test_case "deterministic and replayable" `Quick
            test_rounds_deterministic_and_replayable;
          Alcotest.test_case "wide window" `Quick test_rounds_wide_window;
          Alcotest.test_case "bursty sends stay FIFO" `Quick
            test_rounds_fifo_preserved;
          Alcotest.test_case "quiesce settles acks" `Quick
            test_rounds_settle_acks;
        ] );
      ( "schedule text",
        [
          Alcotest.test_case "round trip" `Quick test_schedule_text_roundtrip;
          Alcotest.test_case "initial document" `Quick
            test_schedule_text_initial;
          Alcotest.test_case "parse errors" `Quick test_schedule_text_errors;
        ] );
      ( "figures",
        [
          Alcotest.test_case "schedules validate" `Quick test_figures_validate;
          Alcotest.test_case "schedules run" `Quick test_figures_runnable;
          Alcotest.test_case "lookup" `Quick test_figures_find;
        ] );
    ]
