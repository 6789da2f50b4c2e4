(* The benchmark driver, over any protocol: the executable instantiates
   it with [Jupiter_css.Pruned_protocol]; the test suite's negative
   control instantiates it with a protocol that loses a message.

   Edit-to-converge latency and throughput of the production
   configuration (css-pruned, batched, append fast path, continuous GC)
   on one workload.

     main.exe --workload typing|hotspot|many-docs --seed N --seconds S
              --trace 0|1

   Phases: warm-up (a tenth of [S], at most one second, discarded),
   then [S] seconds of document sessions.  Each session opens its
   document first; [setup_s] is the median time of every untraced open
   in the timed phase.  With [--trace 0] every
   session is untraced and the end-to-end metrics are reported,
   normalised to a nominal host speed by {!Host}; with
   [--trace 1] sessions alternate untraced / traced, the per-layer
   metrics come from the traced ones (runtime counters from the
   untraced ones), and the spans are written to
   perfbench/out/spans-<workload>.tsv.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Exit status 1 when any document failed the correctness gate. *)

module Make (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  module T = Timed.Make (P)
  module R = Runner.Make (T)

  (* Long enough for the heap to reach its steady size. *)
  let warmup_s seconds = Float.min 1.0 (0.1 *. seconds)

  let spans_dir = Filename.concat "perfbench" "out"

  (* --- accumulation over sessions ---------------------------------------- *)

  type acc = {
    mutable sessions : int;
    mutable updates : int;
    mutable wall_ns : int;
    mutable events : int;
    mutable ot : int;
    mutable context_hits : int;
    mutable append_hits : int;
    mutable generic_squares : int;
    mutable payloads : int;
    mutable op_payloads : int;
    mutable op_transmissions : int;
    mutable retransmits : int;
    mutable cycles : int;
    mutable reclaimed_states : int;
    mutable skipped : int;
    mutable gc_attempts : int;
    mutable meta_peak : int;
    mutable dedup_peak : int;
    mutable doc_len_sum : int;
    mutable rounds : int;
    mutable minor_words : float;
    mutable major_collections : int;
    mutable failed_updates : int;
    mutable failures : string list;
  }

  (* Every untraced document open of the timed phase, in ns. *)
  let opens = Probe.Samples.create ()

  (* Per traced session, in ns: the protocol's replica creation, and
     the engine's own part of the open. *)
  let core_creates = Probe.Samples.create ()
  let sim_creates = Probe.Samples.create ()

  let acc () =
    {
      sessions = 0; updates = 0; wall_ns = 0; events = 0; ot = 0;
      context_hits = 0; append_hits = 0; generic_squares = 0; payloads = 0;
      op_payloads = 0; op_transmissions = 0; retransmits = 0; cycles = 0;
      reclaimed_states = 0; skipped = 0; gc_attempts = 0; meta_peak = 0;
      dedup_peak = 0; doc_len_sum = 0; rounds = 0; minor_words = 0.0;
      major_collections = 0; failed_updates = 0; failures = [];
    }

  let add a (r : Runner.result) ~wall_ns ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
    a.sessions <- a.sessions + 1;
    a.updates <- a.updates + r.updates;
    a.wall_ns <- a.wall_ns + wall_ns;
    a.events <- a.events + r.events;
    a.ot <- a.ot + r.ot;
    a.context_hits <- a.context_hits + r.fastpath.context_hits;
    a.append_hits <- a.append_hits + r.fastpath.append_hits;
    a.generic_squares <- a.generic_squares + r.fastpath.generic_squares;
    (match r.net with
    | None -> ()
    | Some st ->
      a.payloads <- a.payloads + st.payloads;
      a.op_payloads <- a.op_payloads + st.op_payloads;
      a.op_transmissions <- a.op_transmissions + st.op_transmissions;
      a.retransmits <- a.retransmits + st.retransmits);
    (match r.gc with
    | None -> ()
    | Some g ->
      a.cycles <- a.cycles + g.cycles;
      a.reclaimed_states <- a.reclaimed_states + g.reclaimed_states;
      a.skipped <- a.skipped + g.skipped_heartbeats + g.skipped_stables;
      a.gc_attempts <-
        a.gc_attempts + g.heartbeats + g.skipped_heartbeats
        + g.stables_delivered + g.skipped_stables);
    a.meta_peak <- max a.meta_peak r.meta_peak;
    a.dedup_peak <- max a.dedup_peak r.dedup_peak;
    a.doc_len_sum <- a.doc_len_sum + r.doc_len_sum;
    a.rounds <- a.rounds + r.rounds;
    a.minor_words <- a.minor_words +. (gc1.minor_words -. gc0.minor_words);
    a.major_collections <-
      a.major_collections + gc1.major_collections - gc0.major_collections;
    match r.failure with
    | None -> ()
    | Some why ->
      a.failed_updates <- a.failed_updates + r.updates;
      a.failures <- why :: a.failures

  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

  (* --- phases ------------------------------------------------------------- *)

  (* [measure]: keep latency samples from the untraced sessions. *)
  let session_loop w ~seed ~text ~deadline ~measure ~index_of ~traced_at
      ~untraced ~traced =
    let rec go k =
      if Probe.now_ns () < deadline then begin
        let is_traced = traced_at k in
        Probe.tracing := is_traced;
        Probe.measuring := measure && not is_traced;
        let create0 = Probe.kind_total Probe.Create in
        let sim0 = Probe.kind_self Probe.Engine_create in
        let gc0 = Gc.quick_stat () in
        let t0 = Probe.now_ns () in
        let r = R.run_session ~deadline w ~seed ~index:(index_of k) ~text in
        let wall_ns = Probe.now_ns () - t0 in
        let gc1 = Gc.quick_stat () in
        if is_traced then begin
          Probe.Samples.push core_creates (Probe.kind_total Probe.Create - create0);
          Probe.Samples.push sim_creates (Probe.kind_self Probe.Engine_create - sim0)
        end
        else Probe.Samples.push opens r.open_ns;
        add (if is_traced then traced else untraced) r ~wall_ns ~gc0 ~gc1;
        go (k + 1)
      end
    in
    go 0;
    Probe.tracing := false;
    Probe.measuring := false

  (* --- output ------------------------------------------------------------- *)

  type metric = { name : string; value : float; unit_ : string; note : string }

  let m ?(note = "") name value unit_ = { name; value; unit_; note }

  let json_number v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v

  let print_result ~correct ~attempted ~failed metrics =
    List.iter
      (fun x ->
        Printf.printf "  %-32s %16.6g %s%s\n" x.name x.value x.unit_
          (if x.note = "" then "" else "  (" ^ x.note ^ ")"))
      metrics;
    let fields =
      List.map
        (fun x ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
            (json_number x.value) x.unit_)
        metrics
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      correct attempted failed (String.concat ", " fields)

  let write_spans w =
    if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
    let path =
      Filename.concat spans_dir
        (Printf.sprintf "spans-%s.tsv" (Inputs.name w))
    in
    let oc = open_out path in
    Probe.write_spans oc;
    close_out oc;
    path

  let us_of_ns ns = float_of_int ns /. 1e3

  let s_of_ns ns = float_of_int ns /. 1e9

  (* Timings are normalised by {!Host}; each note gives the raw value. *)
  let end_to_end (a : acc) =
    let heap = Gc.quick_stat () in
    let peak_heap_mb =
      float_of_int (heap.top_heap_words * (Sys.word_size / 8)) /. 1e6
    in
    (* Raw and normalised percentiles of [samples], one sorted copy at
       a time. *)
    let quantiles samples ps =
      let pick s = let q = Probe.Samples.percentiles s in List.map q ps in
      List.combine (pick samples) (pick (Host.normalised samples))
    in
    let latency name samples (raw, value) =
      m name (us_of_ns value) "us"
        ~note:
          (Printf.sprintf "n=%d; raw %.3f" (Probe.Samples.length samples)
             (us_of_ns raw))
    in
    let converge = quantiles Probe.converge [ 0.50; 0.99 ] in
    let local_p99 = List.hd (quantiles Probe.local [ 0.99 ]) in
    let setup = List.hd (quantiles opens [ 0.5 ]) in
    let raw_s = s_of_ns !Host.work_ns and scaled_s = !Host.scaled_ns /. 1e9 in
    [
      m "ops_per_s"
        (float_of_int a.updates /. scaled_s)
        "1/s"
        ~note:
          (Printf.sprintf "%d updates in %.3f s; raw %.1f" a.updates raw_s
             (float_of_int a.updates /. raw_s));
      latency "converge_p50_us" Probe.converge (List.nth converge 0);
      latency "converge_p99_us" Probe.converge (List.nth converge 1);
      latency "local_p99_us" Probe.local local_p99;
      m "peak_meta" (float_of_int a.meta_peak) "count";
      m "peak_heap_mb" peak_heap_mb "MB";
      m "setup_s"
        (s_of_ns (snd setup))
        "s"
        ~note:
          (Printf.sprintf "median of %d opens; raw %.3e"
             (Probe.Samples.length opens) (s_of_ns (fst setup)));
    ]

  let per_layer ~(tr : acc) ~(un : acc) =
    let per_op x = ratio x tr.updates in
    let per_kop x = 1000.0 *. per_op x in
    let busy k = s_of_ns (Probe.kind_total k) in
    let layer_self l = s_of_ns (Probe.layer_self l) in
    let shortcuts = tr.context_hits + tr.append_hits in
    let per_update_ns (a : acc) = ratio a.wall_ns a.updates in
    [
      m "core.self_s" (layer_self "core") "s";
      m "core.server_busy_s" (busy Probe.Server) "s";
      m "core.server_op_p99_us"
        (us_of_ns (Probe.Samples.percentile T.server_op_ns 0.99))
        "us" ~note:(Printf.sprintf "n=%d" (Probe.Samples.length T.server_op_ns));
      m "core.remote_apply_busy_s" (busy Probe.Remote) "s";
      m "core.local_busy_s" (busy Probe.Local) "s";
      m "core.ops_per_batch" (ratio !T.received_ops !T.receive_calls) "ratio";
      m "core.create_s" (s_of_ns (Probe.Samples.percentile core_creates 0.5)) "s";
      m "ot.xforms_per_op" (per_op tr.ot) "ratio";
      m "ot.generic_squares_per_op" (per_op tr.generic_squares) "ratio";
      m "ot.shortcut_ratio" (ratio shortcuts (shortcuts + tr.generic_squares)) "ratio";
      m "sim.self_s" (layer_self "sim") "s";
      m "sim.events_per_op" (per_op tr.events) "ratio";
      m "sim.create_s" (s_of_ns (Probe.Samples.percentile sim_creates 0.5)) "s";
      m "net.amplification"
        (if tr.op_payloads = 0 then 1.0 else ratio tr.op_transmissions tr.op_payloads)
        "ratio";
      m "net.payloads_per_op" (per_op tr.payloads) "ratio";
      m "net.retransmits_per_kop" (per_kop tr.retransmits) "ratio";
      m "net.dedup_keys_peak" (float_of_int tr.dedup_peak) "count";
      m "gc.self_s" (layer_self "gc") "s";
      m "gc.hook_busy_s" (busy Probe.Hook) "s";
      m "gc.cycles_per_kop" (per_kop tr.cycles) "ratio";
      m "gc.reclaimed_states_per_op" (per_op tr.reclaimed_states) "ratio";
      m "gc.skipped_ratio" (ratio tr.skipped tr.gc_attempts) "ratio";
      m "model.doc_len" (ratio tr.doc_len_sum tr.rounds) "count";
      m "runtime.minor_words_per_op"
        (if un.updates = 0 then 0.0 else un.minor_words /. float_of_int un.updates)
        "ratio";
      m "runtime.major_collections" (float_of_int un.major_collections) "count";
      m "bench.self_s" (layer_self "bench") "s";
      m "bench.gen_s" (busy Probe.Gen) "s";
      m "bench.check_s" (busy Probe.Check) "s";
      m "bench.trace_overhead"
        (if un.updates = 0 || tr.updates = 0 then 0.0
         else per_update_ns tr /. per_update_ns un)
        "ratio";
    ]

  (* --- main --------------------------------------------------------------- *)

  let main () =
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0
    and trace = ref 0 in
    let spec =
      [
        "--workload", Arg.Set_string workload, " typing | hotspot | many-docs";
        "--seed", Arg.Set_int seed, " input seed";
        "--seconds", Arg.Set_float seconds, " length of the timed phase";
        "--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer";
      ]
    in
    let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
    Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
    let w =
      match Inputs.of_name !workload with
      | Some w -> w
      | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    in
    if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    let seed = !seed and traced_run = !trace = 1 in
    let s = Inputs.shape w in
    Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" (Inputs.name w) seed
      !seconds !trace;
    Printf.printf "  inputs fingerprint %s; %d clients, window %d, %d rounds of %s per document\n"
      (Inputs.fingerprint w ~seed) s.nclients (Inputs.window s) s.rounds
      (if s.lossy then "lossy wire" else "perfect wire");
    let text = Inputs.initial_text w ~seed in
    let ns_of_s x = int_of_float (x *. 1e9) in
    let warm = acc () in
    session_loop w ~seed ~text
      ~deadline:(Probe.now_ns () + ns_of_s (warmup_s !seconds))
      ~measure:false ~index_of:Inputs.warmup_index ~traced_at:(fun _ -> false) ~untraced:warm
      ~traced:warm;
    Probe.reset_totals ();
    Probe.Samples.clear Probe.converge;
    Probe.Samples.clear Probe.local;
    Probe.Samples.clear T.server_op_ns;
    Probe.Samples.clear opens;
    T.receive_calls := 0;
    T.received_ops := 0;
    let un = acc () and tr = acc () in
    if not traced_run then Host.start [| Probe.converge; Probe.local; opens |];
    session_loop w ~seed ~text
      ~deadline:(Probe.now_ns () + ns_of_s !seconds)
      ~measure:true ~index_of:Fun.id
      ~traced_at:(fun k -> traced_run && k mod 2 = 1)
      ~untraced:un ~traced:tr;
    Host.finish ();
    let attempted = warm.updates + un.updates + tr.updates in
    let failed = warm.failed_updates + un.failed_updates + tr.failed_updates in
    let failures = warm.failures @ un.failures @ tr.failures in
    let correct = failures = [] in
    List.iteri
      (fun i why -> if i < 5 then Printf.printf "  GATE FAILED: %s\n" why)
      failures;
    if List.length failures > 5 then
      Printf.printf "  ... %d documents failed in all\n" (List.length failures);
    Printf.printf "  %d sessions, %d updates attempted, fail_ratio %.6f\n"
      (warm.sessions + un.sessions + tr.sessions)
      attempted (ratio failed attempted);
    let metrics =
      if traced_run then begin
        let path = write_spans w in
        Printf.printf "  spans: %s (%d traced sessions)\n" path tr.sessions;
        per_layer ~tr ~un
      end
      else begin
        Printf.printf "  %s\n" (Host.summary ());
        end_to_end un
      end
    in
    print_result ~correct ~attempted:(max 1 attempted) ~failed metrics;
    exit (if correct then 0 else 1)
end
