(* Golden-schema test for the JSONL trace format.

   The trace format is a public artifact: `jupiter_sim report` (and
   any external tooling) consumes trace files written by earlier
   builds, so the rendering of every event variant is pinned to a
   checked-in golden file — any drift fails here and forces a
   deliberate decision — and every variant must survive an
   encode/decode round trip through [Event.of_jsonl]. *)

module Event = Rlist_obs.Event

(* One exemplar per constructor, plus the interesting edge cases:
   reads (no op id), batched ids (joined with '+'), every wire action,
   and a name that needs JSON escaping. *)
let exemplars : Event.t list =
  [
    Generate
      { replica = "c1"; op_id = Some "1.1"; intent = "ins"; queue = 1;
        tick = 0 };
    Generate
      { replica = "c2"; op_id = None; intent = "read"; queue = 0; tick = 7 };
    Send
      { src = "c1"; dst = "server"; op_id = Some "1.1"; bytes = 120;
        queue = 1; tick = 2 };
    Send
      { src = "server"; dst = "c2"; op_id = Some "1.1+2.1"; bytes = 230;
        queue = 2; tick = 5 };
    Deliver
      { replica = "server"; src = "c1"; op_id = Some "1.1"; transforms = 3;
        queue = 0; tick = 4 };
    Deliver
      { replica = "c2"; src = "server"; op_id = None; transforms = 0;
        queue = 1; tick = 6 };
    Transform { replica = "server"; count = 12 };
    Apply { replica = "c2"; op_id = Some "1.1"; doc_len = 5; tick = 9 };
    Apply { replica = "c1"; op_id = None; doc_len = 5; tick = 9 };
    Wire { channel = "c1->server"; action = "drop"; wseq = 4; info = 0;
           tick = 11 };
    Wire { channel = "c1->server"; action = "partition_drop"; wseq = 5;
           info = 0; tick = 12 };
    Wire { channel = "server->c2"; action = "dup"; wseq = 6; info = 0;
           tick = 13 };
    Wire { channel = "p1->p2"; action = "delay"; wseq = 9; info = 6;
           tick = 31 };
    Wire { channel = "server->c2"; action = "retransmit"; wseq = 4; info = 2;
           tick = 23 };
    Wire { channel = "c1->server"; action = "ack"; wseq = 7; info = 0;
           tick = 40 };
    Wire { channel = "c1->server"; action = "ack_drop"; wseq = 7; info = 0;
           tick = 41 };
    Wire { channel = "server->c2"; action = "dup_drop"; wseq = 6; info = 0;
           tick = 42 };
    Wire { channel = "p2->p1"; action = "ooo"; wseq = 8; info = 0;
           tick = 43 };
    State_space_grow
      { replica = "server"; level = 3; states = 10; transitions = 17 };
    Span { name = "quiesce \"phase\" \\ 1"; dur_ns = 12345. };
    Gc_begin { cycle = 1; trigger = "ops=64"; meta = 412; tick = 50 };
    Gc_end
      { cycle = 1; reclaimed_states = 37; reclaimed_log = 12;
        reclaimed_keys = 24; meta = 180; skipped = 1; tick = 51 };
  ]

let rendered () =
  String.concat "\n" (List.mapi (fun i e -> Event.to_jsonl ~seq:i e) exemplars)
  ^ "\n"

let golden_path = "golden/trace_schema.golden"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden () =
  let expected =
    try read_file golden_path
    with Sys_error msg ->
      Alcotest.failf
        "missing golden file (%s); regenerate it from the exemplar list and \
         review the diff before checking it in"
        msg
  in
  Alcotest.(check string)
    "JSONL rendering matches the checked-in schema (if this is an \
     intentional format change, regenerate golden/trace_schema.golden and \
     bump the consumers)"
    expected (rendered ())

let event = Alcotest.testable Event.pp (fun a b -> a = b)

let test_round_trip () =
  List.iteri
    (fun i e ->
      match Event.of_jsonl (Event.to_jsonl ~seq:i e) with
      | None ->
        Alcotest.failf "variant %d (%s) did not decode" i (Event.kind e)
      | Some (seq, e') ->
        Alcotest.(check int) "seq survives" i seq;
        Alcotest.check event
          (Printf.sprintf "variant %d (%s) round-trips" i (Event.kind e))
          e e')
    exemplars

let test_decoder_skips_non_events () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "skips %S" (if String.length line > 30 then
                                      String.sub line 0 30 else line))
        true
        (Option.is_none (Event.of_jsonl line)))
    [
      "";
      "not json at all";
      "{\"type\": \"summary\", \"scenario\": \"figure2\", \"converged\": \
       true}";
      "{\"seq\": 3, \"type\": \"no-such-kind\", \"replica\": \"c1\"}";
      "{\"seq\": 1}";
    ]

let test_accessors () =
  let gen = List.nth exemplars 0 in
  Alcotest.(check (option string)) "op_id" (Some "1.1") (Event.op_id gen);
  Alcotest.(check (option int)) "tick" (Some 0) (Event.tick gen);
  let xf = List.nth exemplars 6 in
  Alcotest.(check (option string)) "transform has no op" None
    (Event.op_id xf);
  Alcotest.(check (option int)) "transform has no tick" None (Event.tick xf);
  List.iteri
    (fun i e ->
      match Event.of_jsonl (Event.to_jsonl ~seq:i e) with
      | Some (_, e') ->
        Alcotest.(check (option string))
          "op_id stable across round trip" (Event.op_id e) (Event.op_id e')
      | None -> Alcotest.failf "variant %d did not decode" i)
    exemplars

let () =
  Alcotest.run "trace-schema"
    [
      ( "schema",
        [
          Alcotest.test_case "golden file matches" `Quick test_golden;
          Alcotest.test_case "every variant round-trips" `Quick
            test_round_trip;
          Alcotest.test_case "decoder skips non-events" `Quick
            test_decoder_skips_non_events;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
    ]
