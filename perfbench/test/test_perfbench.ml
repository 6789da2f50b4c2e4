(* The benchmark's own tests: the input generator is deterministic, the
   timing wrapper is transparent, the correctness gate trips on a
   protocol that loses a message, and host-speed normalisation scales
   each sample by its own block's factor. *)

open Perfbench
open Rlist_model
module Css = Jupiter_css.Pruned_protocol
module Bare = Runner.Make (Css)
module Wrapped = Runner.Make (Timed.Make (Css))
module Lossy = Drop.Make (Css)
module Broken = Runner.Make (Timed.Make (Lossy))

(* Short sessions: enough rounds for GC cycles, batches and (on
   typing) retransmissions to happen. *)
let short = function
  | Inputs.Typing -> 60
  | Inputs.Hotspot -> 4
  | Inputs.Many_docs -> 12

let draws_equal (a : Inputs.draws) (b : Inputs.draws) =
  Bytes.equal a.read b.read && a.roll = b.roll && a.pos = b.pos
  && Bytes.equal a.chr b.chr && a.net_seed = b.net_seed
  && a.cursors = b.cursors

let test_determinism () =
  List.iter
    (fun w ->
      let n = Inputs.name w in
      let a = Inputs.draw w ~seed:7 ~index:3 and b = Inputs.draw w ~seed:7 ~index:3 in
      Alcotest.(check bool) (n ^ ": same seed, same draws") true (draws_equal a b);
      Alcotest.(check bool)
        (n ^ ": other seed, other draws")
        false
        (draws_equal a (Inputs.draw w ~seed:8 ~index:3));
      Alcotest.(check bool)
        (n ^ ": other session, other draws")
        false
        (draws_equal a (Inputs.draw w ~seed:7 ~index:4));
      Alcotest.(check string)
        (n ^ ": fingerprint")
        (Inputs.fingerprint w ~seed:7) (Inputs.fingerprint w ~seed:7);
      Alcotest.(check bool)
        (n ^ ": fingerprint tracks the seed")
        false
        (String.equal (Inputs.fingerprint w ~seed:7) (Inputs.fingerprint w ~seed:8));
      Alcotest.(check string)
        (n ^ ": initial text")
        (Inputs.initial_text w ~seed:7) (Inputs.initial_text w ~seed:7))
    Inputs.all

(* Every draw resolves to an intent that is valid for the length it was
   resolved against, whatever that length is. *)
let test_resolution_valid () =
  List.iter
    (fun w ->
      let s = Inputs.shape w in
      let r = Inputs.resolver w (Inputs.draw w ~seed:1 ~index:0) in
      for slot = 0 to Inputs.updates_per_session s - 1 do
        let len = slot mod 7 * (slot mod 50) in
        let client = 1 + (slot mod s.nclients) in
        let intent = Inputs.resolve r ~slot ~client ~len in
        if not (Intent.valid_for ~doc_length:len intent) then
          Alcotest.failf "%s: %s invalid for length %d" (Inputs.name w)
            (Intent.to_string intent) len
      done)
    Inputs.all

module type SESSION = sig
  val run_session :
    ?deadline:int ->
    ?max_rounds:int ->
    Inputs.workload ->
    seed:int ->
    index:int ->
    text:string ->
    Runner.result
end

let run_short (module R : SESSION) w =
  R.run_session ~max_rounds:(short w) w ~seed:11 ~index:0
    ~text:(Inputs.initial_text w ~seed:11)

let fp_fields (r : Runner.result) = Rlist_ot.Fastpath.fields r.fastpath

let test_transparency () =
  List.iter
    (fun w ->
      let n = Inputs.name w in
      let bare = run_short (module Bare) w in
      List.iter
        (fun tracing ->
          Probe.tracing := tracing;
          let wrapped = run_short (module Wrapped) w in
          Probe.tracing := false;
          let label = n ^ if tracing then " (traced)" else "" in
          Alcotest.(check (option string)) (label ^ ": gate") None wrapped.failure;
          Alcotest.(check int) (label ^ ": updates") bare.updates wrapped.updates;
          Alcotest.(check bool)
            (label ^ ": final documents")
            true
            (List.equal Document.equal bare.docs wrapped.docs);
          Alcotest.(check int) (label ^ ": OT count") bare.ot wrapped.ot;
          Alcotest.(check (list (pair string int)))
            (label ^ ": fast-path counters")
            (fp_fields bare) (fp_fields wrapped))
        [ false; true ];
      Alcotest.(check (option string)) (n ^ ": bare gate") None bare.failure;
      Alcotest.(check bool) (n ^ ": documents are not trivial") true
        (List.for_all (fun d -> Document.length d > 0) bare.docs))
    Inputs.all

(* The element accounting on its own: an insert and a delete on "ab". *)
let test_gate_accounting () =
  let initial = Document.of_string "ab" in
  let x = Element.make ~value:'x' ~id:(Op_id.make ~client:1 ~seq:1) in
  let a = Document.nth initial 0 in
  let _, without_a = Document.delete (Document.insert initial ~pos:0 x) ~pos:1 in
  let gate ?(inserted = [ x ]) docs =
    let t = Gate.create initial in
    List.iter (Gate.inserted t) inserted;
    Gate.deleted t a;
    Gate.check t ~docs ~unconverged:0
  in
  let fails label v =
    Alcotest.(check bool) label true (Option.is_some v)
  in
  Alcotest.(check (option string)) "xb holds" None (gate [ without_a; without_a ]);
  fails "replicas differ" (gate [ without_a; initial ]);
  fails "a deleted element is back" (gate [ Document.insert without_a ~pos:0 a ]);
  fails "an insert is missing" (gate [ snd (Document.delete without_a ~pos:0) ]);
  fails "an element nobody inserted" (gate ~inserted:[] [ without_a ]);
  fails "updates not everywhere"
    (let t = Gate.create initial in
     Gate.check t ~docs:[ initial ] ~unconverged:1)

let test_negative_control () =
  List.iter
    (fun w ->
      Lossy.seen := 0;
      Probe.measuring := true;
      let r = run_short (module Broken) w in
      Probe.measuring := false;
      match r.failure with
      | Some _ -> ()
      | None ->
        Alcotest.failf "%s: the gate passed a run that lost a message"
          (Inputs.name w))
    Inputs.all

(* Every sample is scaled by the factor of the block it was recorded
   in; the kernel's time is out of the working time and of latencies.
   The second block times no kernel, so it keeps the first one's
   factor. *)
let test_normalisation () =
  let s = Probe.Samples.create () in
  let excluded = !Probe.excluded_ns in
  Host.start [| s |];
  List.iter (Probe.Samples.push s) [ 1000; 2000; 3000 ];
  Host.tick ();
  Host.close_block (Probe.now_ns ());
  List.iter (Probe.Samples.push s) [ 4000; 5000 ];
  Host.finish ();
  let f =
    match List.rev_map snd !Host.blocks with
    | [ f1; f2 ] when Float.equal f1 f2 && f1 > 0.0 && Float.is_finite f1 -> f1
    | _ -> Alcotest.fail "expected two blocks with the first one's factor"
  in
  let n = Host.normalised s in
  Alcotest.(check (list int))
    "scaled per block"
    (List.map
       (fun v -> Float.to_int (Float.round (f *. float_of_int v)))
       [ 1000; 2000; 3000; 4000; 5000 ])
    (List.init (Probe.Samples.length n) (Bigarray.Array1.get n.data));
  Alcotest.(check bool)
    "working time scaled" true
    (Float.abs (!Host.scaled_ns -. (f *. float_of_int !Host.work_ns))
     <= 1e-6 *. !Host.scaled_ns);
  Alcotest.(check bool)
    "kernel time excluded" true (!Probe.excluded_ns > excluded)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_determinism;
          Alcotest.test_case "resolution is always valid" `Quick
            test_resolution_valid;
        ] );
      ( "wrapper",
        [ Alcotest.test_case "transparent on every workload" `Quick
            test_transparency ] );
      ( "gate",
        [
          Alcotest.test_case "element accounting" `Quick test_gate_accounting;
          Alcotest.test_case "negative control trips it" `Quick
            test_negative_control;
        ] );
      ( "host",
        [ Alcotest.test_case "normalisation per block" `Quick
            test_normalisation ] );
    ]
