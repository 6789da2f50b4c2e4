(* jupiter-sim: command-line driver for the replicated-list protocols.

   Subcommands:
     simulate  run a random workload under a protocol and report
               convergence, specification verdicts, and cost counters
     check     bounded model checking: enumerate every delivery
               interleaving of a small workload (with partial-order
               reduction), check the paper's specifications on each,
               and shrink any counterexample to a minimal witness
     fuzz      run one protocol over many seeds and report the first
               specification violation found (none expected for the
               correct protocols; the naive foil fails quickly)
     soak      run a workload over an unreliable network (drops,
               duplicates, reordering, partitions) with the reliability
               shim, and report convergence plus network counters
     viz       print (and optionally write DOT for) the CSS state-space
               of a named figure scenario
     trace     replay a figure scenario with the observability layer on
               and emit the structured JSONL event trace
     figures   replay every figure scenario and print its verdicts *)

open Rlist_model
open Cmdliner

type protocol_choice =
  | P_css
  | P_cscw
  | P_rga
  | P_naive
  | P_pruned
  | P_logoot
  | P_sequencer
  | P_treedoc
  | P_css_p2p
  | P_ttf

let protocol_names =
  [
    "css", P_css;
    "cscw", P_cscw;
    "rga", P_rga;
    "naive", P_naive;
    "css-pruned", P_pruned;
    "logoot", P_logoot;
    "css-seq", P_sequencer;
    "treedoc", P_treedoc;
    "css-p2p", P_css_p2p;
    "ttf", P_ttf;
  ]

let protocol_key = function
  | P_css -> "css"
  | P_cscw -> "cscw"
  | P_rga -> "rga"
  | P_naive -> "naive"
  | P_pruned -> "css-pruned"
  | P_logoot -> "logoot"
  | P_sequencer -> "css-seq"
  | P_treedoc -> "treedoc"
  | P_css_p2p -> "css-p2p"
  | P_ttf -> "ttf"

module Recorded = Rlist_run.Recorded

(* Run a protocol (chosen at runtime) through one random workload and
   return a uniform summary. *)
type summary = {
  s_protocol : string;
  s_events : int;
  s_converged : bool;
  s_final : string;
  s_ots : int;
  s_metadata : int;
  s_convergence : Rlist_spec.Check.result;
  s_weak : Rlist_spec.Check.result;
  s_strong : Rlist_spec.Check.result;
}

let run_one (type c s c2s s2c)
    (module P : Rlist_sim.Protocol_intf.PROTOCOL
      with type client = c
       and type server = s
       and type c2s = c2s
       and type s2c = s2c) ~nclients ~profile ~updates ~seed =
  let module E = Rlist_sim.Engine.Make (P) in
  let t = E.create ~nclients () in
  let rng = Random.State.make [| seed |] in
  let intent = Rlist_workload.Workload.intent_generator profile ~nclients ~rng in
  let params = Rlist_workload.Workload.params profile ~updates in
  let schedule = E.run_random ~intent t ~rng ~params in
  let trace = E.trace t in
  {
    s_protocol = P.name;
    s_events = List.length schedule;
    s_converged = E.converged t;
    s_final =
      Document.to_string
        (if P.server_is_replica then E.server_document t
         else E.client_document t 1);
    s_ots = E.total_ot_count t;
    s_metadata = E.total_metadata_size t;
    s_convergence = Rlist_spec.Convergence.check trace;
    s_weak = Rlist_spec.Weak_spec.check trace;
    s_strong = Rlist_spec.Strong_spec.check trace;
  }

let replay_one (type c s c2s s2c)
    (module P : Rlist_sim.Protocol_intf.PROTOCOL
      with type client = c
       and type server = s
       and type c2s = c2s
       and type s2c = s2c) (file : Rlist_sim.Schedule_text.file) =
  let module E = Rlist_sim.Engine.Make (P) in
  let t = E.create ~initial:file.initial ~nclients:file.nclients () in
  E.run t file.events;
  let trace = E.trace t in
  {
    s_protocol = P.name;
    s_events = List.length file.events;
    s_converged = E.converged t;
    s_final = Document.to_string (E.client_document t 1);
    s_ots = E.total_ot_count t;
    s_metadata = E.total_metadata_size t;
    s_convergence = Rlist_spec.Convergence.check trace;
    s_weak = Rlist_spec.Weak_spec.check trace;
    s_strong = Rlist_spec.Strong_spec.check trace;
  }

let replay_protocol choice file =
  match choice with
  | P_css -> replay_one (module Jupiter_css.Protocol) file
  | P_cscw -> replay_one (module Jupiter_cscw.Protocol) file
  | P_rga -> replay_one (module Jupiter_rga.Protocol) file
  | P_naive -> replay_one (module Jupiter_cscw.Naive_p2p) file
  | P_pruned -> replay_one (module Jupiter_css.Pruned_protocol) file
  | P_logoot -> replay_one (module Jupiter_logoot.Protocol) file
  | P_sequencer -> replay_one (module Jupiter_css.Sequencer_protocol) file
  | P_treedoc -> replay_one (module Jupiter_treedoc.Protocol) file
  | P_css_p2p | P_ttf ->
    prerr_endline
      "replay: peer-to-peer protocols use a different schedule shape; use \
       simulate instead";
    exit 1

let record_schedule ~profile ~nclients ~updates ~seed ~path =
  let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
  let t = E.create ~nclients () in
  let rng = Random.State.make [| seed |] in
  let intent = Rlist_workload.Workload.intent_generator profile ~nclients ~rng in
  let params = Rlist_workload.Workload.params profile ~updates in
  let schedule = E.run_random ~intent t ~rng ~params in
  (try Rlist_sim.Schedule_text.save ~path ~nclients schedule
   with Sys_error msg ->
     Printf.eprintf "cannot write %s: %s\n" path msg;
     exit 1);
  Printf.printf "recorded %d events to %s (generated under the css protocol)\n"
    (List.length schedule) path

(* Serverless protocols run on the peer-to-peer engine but report the
   same summary shape. *)
let run_one_p2p (module P : Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL)
    ~nclients ~profile ~updates ~seed =
  let module E = Rlist_sim.P2p_engine.Make (P) in
  let t = E.create ~npeers:nclients () in
  let rng = Random.State.make [| seed |] in
  let intent = Rlist_workload.Workload.intent_generator profile ~nclients ~rng in
  let params = Rlist_workload.Workload.params profile ~updates in
  let schedule = E.run_random ~intent t ~rng ~params in
  let trace = E.trace t in
  {
    s_protocol = P.name;
    s_events = List.length schedule;
    s_converged = E.converged t;
    s_final = Document.to_string (E.document t 1);
    s_ots = E.total_ot_count t;
    s_metadata = E.total_metadata_size t;
    s_convergence = Rlist_spec.Convergence.check trace;
    s_weak = Rlist_spec.Weak_spec.check trace;
    s_strong = Rlist_spec.Strong_spec.check trace;
  }

let run_protocol choice ~nclients ~profile ~updates ~seed =
  match choice with
  | P_css ->
    run_one (module Jupiter_css.Protocol) ~nclients ~profile ~updates ~seed
  | P_cscw ->
    run_one (module Jupiter_cscw.Protocol) ~nclients ~profile ~updates ~seed
  | P_rga ->
    run_one (module Jupiter_rga.Protocol) ~nclients ~profile ~updates ~seed
  | P_naive ->
    run_one (module Jupiter_cscw.Naive_p2p) ~nclients ~profile ~updates ~seed
  | P_pruned ->
    run_one (module Jupiter_css.Pruned_protocol) ~nclients ~profile ~updates
      ~seed
  | P_logoot ->
    run_one (module Jupiter_logoot.Protocol) ~nclients ~profile ~updates ~seed
  | P_sequencer ->
    run_one (module Jupiter_css.Sequencer_protocol) ~nclients ~profile
      ~updates ~seed
  | P_treedoc ->
    run_one (module Jupiter_treedoc.Protocol) ~nclients ~profile ~updates
      ~seed
  | P_css_p2p ->
    run_one_p2p (module Jupiter_css.Distributed_protocol) ~nclients ~profile
      ~updates ~seed
  | P_ttf ->
    run_one_p2p (module Jupiter_ttf.Adopted_protocol) ~nclients ~profile
      ~updates ~seed

let pp_summary s =
  Printf.printf "protocol:    %s\n" s.s_protocol;
  Printf.printf "events:      %d\n" s.s_events;
  Printf.printf "converged:   %b\n" s.s_converged;
  Printf.printf "final:       %S\n" s.s_final;
  Printf.printf "OT calls:    %d\n" s.s_ots;
  Printf.printf "metadata:    %d\n" s.s_metadata;
  Format.printf "convergence: %a@." Rlist_spec.Check.pp s.s_convergence;
  Format.printf "weak spec:   %a@." Rlist_spec.Check.pp s.s_weak;
  Format.printf "strong spec: %a@." Rlist_spec.Check.pp s.s_strong

(* --- arguments -------------------------------------------------------- *)

let protocol_arg =
  let protocol_conv = Arg.enum protocol_names in
  Arg.(value & opt protocol_conv P_css
       & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
           ~doc:
             "Protocol to run: css, cscw, rga, logoot, treedoc, css-pruned, \
              css-seq, css-p2p, ttf, or naive (the broken foil).")

let profile_arg =
  let parse s =
    match Rlist_workload.Workload.profile_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown workload profile %S" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Rlist_workload.Workload.profile_name p)
  in
  Arg.(value
       & opt (conv (parse, print)) Rlist_workload.Workload.Uniform
       & info [ "w"; "workload" ] ~docv:"PROFILE"
           ~doc:"Workload profile: uniform, typing, hotspot, append-log, churn.")

let clients_arg =
  Arg.(value & opt int 4 & info [ "n"; "clients" ] ~docv:"N"
         ~doc:"Number of clients.")

let updates_arg =
  Arg.(value & opt int 100 & info [ "u"; "updates" ] ~docv:"K"
         ~doc:"Number of update operations to generate.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Random seed (runs are deterministic per seed).")

let seeds_arg =
  Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"COUNT"
         ~doc:"How many seeds to explore.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let batch_arg =
  Arg.(value & flag
       & info [ "batch" ]
           ~doc:
             "Coalesce consecutive sends per channel into one batch message \
              (one sequence number, one retransmission unit), delivered \
              through the protocols' batch entry points.")

let fastpath_arg =
  Arg.(value & flag
       & info [ "fastpath" ]
           ~doc:
             "Enable the CSS transform fast paths (pure-append run \
              specialization) alongside the always-on context-match \
              shortcut; the fastpath.* counters attribute the skipped \
              ladder work.")

let gc_conv =
  Arg.conv
    ( (fun s ->
        match Rlist_gc.of_string s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)),
      Rlist_gc.pp )

let gc_arg =
  Arg.(value & opt (some gc_conv) None
       & info [ "gc" ] ~docv:"POLICY"
           ~doc:
             "Continuous metadata GC: $(b,default) or a field list like \
              $(b,ops=64,retain=64): a compaction cycle every $(b,ops) \
              applied operations, keeping the last $(b,retain) dedup keys \
              per shim receiver ($(b,ops) is required, $(b,retain) \
              defaults to 64).  Compaction cycles run out of band, so the \
              run's schedule, digest, and final documents are bit-identical \
              to the same seed without GC — it just retains less metadata.")

(* The append specialization is engine-scoped: one fast-path record
   per CLI run, handed to the engine constructor, so the counters
   cover exactly this run. *)
let publish_fastpath fp metrics =
  List.iter
    (fun (name, v) ->
      Rlist_obs.Metrics.add (Rlist_obs.Metrics.counter metrics name) v)
    (Rlist_ot.Fastpath.fields fp)

(* --- simulate --------------------------------------------------------- *)

let simulate protocol profile nclients updates seed =
  pp_summary (run_protocol protocol ~nclients ~profile ~updates ~seed)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run one random collaborative-editing session and report on it.")
    Term.(const simulate $ protocol_arg $ profile_arg $ clients_arg
          $ updates_arg $ seed_arg)

let json_flag =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

(* --- fuzz ------------------------------------------------------------- *)

let pp_outcome (o : Recorded.outcome) =
  Printf.printf "protocol:    %s\n" o.o_protocol;
  Printf.printf "events:      %d\n" o.o_events;
  Printf.printf "converged:   %b\n" o.o_converged;
  (match o.o_finals with
  | (_, doc) :: _ -> Printf.printf "final:       %S\n" doc
  | [] -> ());
  Printf.printf "OT calls:    %d\n" o.o_ots;
  Printf.printf "metadata:    %d\n" o.o_metadata;
  let show b = if b then "satisfied" else "VIOLATED" in
  Printf.printf "convergence: %s\n" (show o.o_convergence);
  Printf.printf "weak spec:   %s\n" (show o.o_weak);
  Printf.printf "strong spec: %s\n" (show o.o_strong)

let dump_recording ~spec ?outcome ?aborted recorder path =
  let digest =
    match outcome, aborted with
    | Some o, _ -> Recorded.digest_of o
    | None, Some msg -> [ "aborted", msg ]
    | None, None -> []
  in
  try
    Rlist_obs.Recorder.dump
      ~header:(Recorded.header_of spec)
      ~digest recorder path;
    true
  with Sys_error msg ->
    Printf.eprintf "cannot write recording %s: %s\n" path msg;
    false


let fuzz protocol profile nclients updates seeds gc =
  let violations = ref 0 in
  let crashes = ref 0 in
  let pname = protocol_key protocol in
  for seed = 1 to seeds do
    let spec =
      { (Recorded.default ~protocol:pname) with profile; nclients; updates;
        seed; gc }
    in
    let recorder = Rlist_obs.Recorder.create () in
    match Recorded.run ~recorder spec with
    | outcome ->
      if not (Recorded.passed outcome) then begin
        incr violations;
        if !violations = 1 then begin
          Printf.printf "first violation at seed %d:\n" seed;
          pp_outcome outcome;
          let path = Printf.sprintf "fuzz-%s-%d.jfr" pname seed in
          if dump_recording ~spec ~outcome recorder path then
            Printf.printf "recording:   %s\n" path
        end
      end
    | exception Invalid_argument msg ->
      incr crashes;
      if !crashes = 1 then begin
        Printf.printf "first crash at seed %d: %s\n" seed msg;
        let path = Printf.sprintf "fuzz-%s-%d.jfr" pname seed in
        if dump_recording ~spec ~aborted:msg recorder path then
          Printf.printf "recording:   %s\n" path
      end
  done;
  Printf.printf
    "checked %d seeds: %d convergence/weak-spec violations, %d crashes\n"
    seeds !violations !crashes;
  if !violations + !crashes > 0 then exit 1

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Hunt for convergence or weak-list-specification violations across \
          many random seeds.  Exits non-zero when any is found (expected for \
          the naive protocol only).  For exhaustive checking at small bounds \
          use $(b,check).")
    Term.(const fuzz $ protocol_arg $ profile_arg $ clients_arg $ updates_arg
          $ seeds_arg $ gc_arg)

(* --- soak ------------------------------------------------------------- *)

(* Run one protocol through a random workload over an unreliable
   network via the shared recorded-run driver (lib/run): a fault
   specification plus (by default) the reliability shim that restores
   the FIFO-exactly-once channels the protocols assume.  The flight
   recorder rides along on every soak; the ring is dumped to disk when
   the gate fails (or on demand with --record-out) so the failing run
   can be re-executed bit-identically with `jupiter_sim replay`. *)

let soak protocol faults_str no_shim rto batching fastpath gc nclients
    profile updates seed record_out json =
  let faults =
    match Rlist_net.Faults.of_string faults_str with
    | Ok f -> f
    | Error msg ->
      Printf.eprintf "soak: %s\n" msg;
      exit 1
  in
  let shim = not no_shim in
  let spec =
    {
      Recorded.protocol = protocol_key protocol;
      profile;
      nclients;
      updates;
      seed;
      faults;
      shim;
      rto;
      batching;
      fastpath;
      gc;
    }
  in
  let obs = Rlist_obs.Obs.make () in
  let recorder = Rlist_obs.Recorder.create () in
  match Recorded.run ~obs ~recorder spec with
  | exception Invalid_argument msg ->
    (* a channel contract violation crashed the protocol, or the
       network could not quiesce: with the shim on neither happens *)
    let dump_path =
      Option.value record_out
        ~default:(Printf.sprintf "soak-%s-%d.jfr" spec.Recorded.protocol seed)
    in
    let dumped = dump_recording ~spec ~aborted:msg recorder dump_path in
    if json then
      Printf.printf
        "{\"faults\": %S, \"shim\": %b, \"seed\": %d, \"aborted\": %S%s}\n"
        (Rlist_net.Faults.to_string faults)
        shim seed msg
        (if dumped then Printf.sprintf ", \"recording\": %S" dump_path
         else "")
    else begin
      Printf.printf "soak aborted: %s\n" msg;
      if dumped then Printf.printf "recording:   %s\n" dump_path
    end;
    exit 1
  | outcome ->
    let ok = Recorded.passed outcome in
    let dump_path =
      match record_out with
      | Some path -> Some path
      | None when not ok ->
        Some (Printf.sprintf "soak-%s-%d.jfr" spec.Recorded.protocol seed)
      | None -> None
    in
    let dumped =
      match dump_path with
      | Some path ->
        if dump_recording ~spec ~outcome recorder path then dump_path
        else None
      | None -> None
    in
    if json then
      Printf.printf
        "{\"protocol\": %S, \"faults\": %S, \"shim\": %b, \"batch\": %b, \
         \"fastpath\": %b, \"seed\": %d, \"events\": %d, \"converged\": %b, \
         \"convergence\": %b, \"weak\": %b, \"strong\": %b, \"net\": %s, \
         \"metrics\": %s%s}\n"
        outcome.Recorded.o_protocol
        (Rlist_net.Faults.to_string faults)
        shim batching fastpath seed outcome.Recorded.o_events
        outcome.Recorded.o_converged outcome.Recorded.o_convergence
        outcome.Recorded.o_weak outcome.Recorded.o_strong
        (Rlist_net.Stats.to_json outcome.Recorded.o_net)
        (Rlist_obs.Obs.metrics_json obs)
        (match dumped with
        | Some path -> Printf.sprintf ", \"recording\": %S" path
        | None -> "")
    else begin
      pp_outcome outcome;
      Printf.printf "faults:      %s\n" (Rlist_net.Faults.to_string faults);
      Printf.printf "shim:        %b\n" shim;
      if batching || fastpath then
        Printf.printf "batch:       %b  fastpath: %b\n" batching fastpath;
      Format.printf "%a@." Rlist_net.Stats.pp outcome.Recorded.o_net;
      match dumped with
      | Some path -> Printf.printf "recording:   %s\n" path
      | None -> ()
    end;
    (* Strong-spec violations are a theorem for the OT protocols
       (Thm 8.1), so the gate is convergence + weak, like fuzz. *)
    if not ok then exit 1

let soak_protocol_arg =
  let protocol_conv = Arg.enum protocol_names in
  Arg.(required
       & pos 0 (some protocol_conv) None
       & info [] ~docv:"PROTOCOL"
           ~doc:"Protocol to soak (same names as $(b,simulate)).")

let faults_arg =
  Arg.(value & opt string "chaos"
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:
             "Fault model: a preset (none, drop, dup, reorder, partition, \
              chaos, heavy-loss) or a field list like \
              $(b,drop=0.3,dup=0.1,reorder=0.2,delay=4,partition=60:20).")

let no_shim_arg =
  Arg.(value & flag
       & info [ "no-shim" ]
           ~doc:
             "Disable the reliability shim: faults reach the protocol \
              unfiltered (the negative control — expect divergence or an \
              aborted run at any positive loss).")

let rto_arg =
  Arg.(value & opt int 12
       & info [ "rto" ] ~docv:"TICKS"
           ~doc:"Shim retransmission timeout in virtual-clock ticks.")

let record_out_arg =
  Arg.(value & opt (some string) None
       & info [ "record-out" ] ~docv:"FILE"
           ~doc:
             "Always dump the flight recording to FILE (by default a \
              recording is dumped only when the gate fails, to \
              soak-<protocol>-<seed>.jfr).")

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run a random workload over an unreliable network (drops, \
          duplicates, reordering, partitions) with the reliability shim \
          restoring the FIFO-exactly-once channel contract, and report \
          convergence plus the network counters (retransmissions, \
          suppressed duplicates, message amplification).  Exits non-zero \
          on a convergence or weak-specification violation.")
    Term.(const soak $ soak_protocol_arg $ faults_arg $ no_shim_arg $ rto_arg
          $ batch_arg $ fastpath_arg $ gc_arg $ clients_arg $ profile_arg
          $ updates_arg $ seed_arg $ record_out_arg $ json_arg)

(* --- longrun ----------------------------------------------------------- *)

(* Million-op soak through one engine (lib/run/longrun): window-bounded
   rounds, with metadata, heap, and per-op latency sampled every
   [chunk] updates, to demonstrate the continuous GC keeps both flat
   where the unbounded run grows.  The digest line is the CI gate's
   handle for GC-on/GC-off equality. *)

let longrun protocol profile nclients updates chunk seed faults_str gc
    assert_flat max_meta json =
  let faults =
    match Rlist_net.Faults.of_string faults_str with
    | Ok f -> f
    | Error msg ->
      Printf.eprintf "longrun: %s\n" msg;
      exit 1
  in
  let r =
    match
      Rlist_run.Longrun.run ?gc ~faults ~now:Unix.gettimeofday
        ~protocol:(protocol_key protocol) ~profile ~nclients ~updates ~chunk
        ~seed ()
    with
    | r -> r
    | exception Invalid_argument msg ->
      Printf.eprintf "longrun: %s\n" msg;
      exit 1
  in
  if json then print_endline (Rlist_run.Longrun.result_to_json r)
  else Format.printf "%a@." Rlist_run.Longrun.pp r;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if not r.Rlist_run.Longrun.l_converged then fail "run did not converge";
  (match max_meta with
  | Some bound when r.Rlist_run.Longrun.l_meta_peak > bound ->
    fail "metadata peak %d exceeds --max-meta %d"
      r.Rlist_run.Longrun.l_meta_peak bound
  | _ -> ());
  if assert_flat && r.Rlist_run.Longrun.l_flat_meta > 2.0 then
    fail "metadata is not flat: late/early ratio %.2f > 2.0"
      r.Rlist_run.Longrun.l_flat_meta;
  List.iter (Printf.eprintf "longrun: GATE: %s\n") (List.rev !failures);
  if !failures <> [] then exit 1

let longrun_cmd =
  let updates_arg =
    Arg.(value & opt int 1_000_000
         & info [ "u"; "updates" ] ~docv:"K"
             ~doc:"Total update operations over the whole horizon.")
  in
  let chunk_arg =
    Arg.(value & opt int 10_000
         & info [ "chunk" ] ~docv:"K"
             ~doc:
               "Updates between samples.  The engine quiesces after every \
                round; rounds run straight through sample points, so the \
                chunk changes no result but the sampled curves.")
  in
  let faults_arg =
    Arg.(value & opt string "none"
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fault model for the wire (as in $(b,soak)); default none.")
  in
  let assert_flat_arg =
    Arg.(value & flag
         & info [ "assert-flat" ]
             ~doc:
               "Exit non-zero unless live metadata stays flat (mean over \
                the last quarter of chunks at most 2x the first quarter) — \
                the CI gate for GC-on runs.")
  in
  let max_meta_arg =
    Arg.(value & opt (some int) None
         & info [ "max-meta" ] ~docv:"NODES"
             ~doc:"Exit non-zero if peak live metadata ever exceeds NODES.")
  in
  Cmd.v
    (Cmd.info "longrun"
       ~doc:
         "Soak one client/server protocol through a very long horizon \
          (default one million updates) in window-bounded rounds, reporting \
          metadata, heap, and per-op latency curves plus a final-document \
          digest.  With $(b,--gc) the continuous compaction keeps the \
          curves flat; without it they grow with the horizon — the \
          digest is identical either way (compaction is semantically \
          transparent).")
    Term.(const longrun $ soak_protocol_arg $ profile_arg $ clients_arg
          $ updates_arg $ chunk_arg $ seed_arg $ faults_arg $ gc_arg
          $ assert_flat_arg $ max_meta_arg $ json_arg)

(* --- shard-smoke ------------------------------------------------------- *)

(* Two documents, two domains (lib/run/shard_smoke): the dynamic
   witness behind the escape pass's shard_ready verdict.  Exits
   non-zero when the two-domain digests differ from the single-domain
   reference run. *)

let shard_smoke protocol profile nclients updates chunk seed gc json =
  let r =
    match
      Rlist_run.Shard_smoke.run ?gc ~now:Unix.gettimeofday
        ~protocol:(protocol_key protocol) ~profile ~nclients ~updates ~chunk
        ~seed ()
    with
    | r -> r
    | exception Invalid_argument msg ->
      Printf.eprintf "shard-smoke: %s\n" msg;
      exit 1
  in
  if json then print_endline (Rlist_run.Shard_smoke.result_to_json r)
  else Format.printf "@[<v>%a@]@." Rlist_run.Shard_smoke.pp r;
  if not r.Rlist_run.Shard_smoke.s_equal then begin
    Printf.eprintf
      "shard-smoke: GATE: two-domain digests differ from the \
       single-domain run\n";
    exit 1
  end

let shard_smoke_cmd =
  let updates_arg =
    Arg.(value & opt int 50_000
         & info [ "u"; "updates" ] ~docv:"K"
             ~doc:"Update operations per document.")
  in
  let chunk_arg =
    Arg.(value & opt int 5_000
         & info [ "chunk" ] ~docv:"K" ~doc:"Updates per sampled chunk.")
  in
  Cmd.v
    (Cmd.info "shard-smoke"
       ~doc:
         "Run two independent documents through the soak workload, once \
          sequentially and once pinned to one Domain each, and require \
          bit-identical digests — the dynamic witness that every \
          engine-reachable mutable allocation really is instance-confined \
          (the lint's shard_ready gate, DESIGN.md sec. 15).  Exits \
          non-zero on a digest mismatch.")
    Term.(const shard_smoke $ soak_protocol_arg $ profile_arg $ clients_arg
          $ updates_arg $ chunk_arg $ seed_arg $ gc_arg $ json_arg)

(* --- check (bounded model checking) ----------------------------------- *)

(* Uniform per-workload result shape shared by the client/server and
   peer-to-peer checkers, for text and JSON rendering. *)
type mc_result = {
  r_workload : string;
  r_updates : int;
  r_states : int;
  r_terminals : int;
  r_pruned_state : int;
  r_pruned_sleep : int;
  r_truncated : bool;
  r_elapsed : float;
  r_violations : (string * int * string) list;
      (** spec, witness length, rendered witness *)
}

let mc_result ~render (workload : Rlist_mc.Workload.t) elapsed
    (outcome : _ Rlist_mc.Mc.outcome) =
  let stats = outcome.Rlist_mc.Mc.stats in
  {
    r_workload = workload.Rlist_mc.Workload.wname;
    r_updates = Rlist_mc.Workload.total_updates workload;
    r_states = stats.Rlist_mc.Explore.states;
    r_terminals = stats.Rlist_mc.Explore.terminals;
    r_pruned_state = stats.Rlist_mc.Explore.pruned_state;
    r_pruned_sleep = stats.Rlist_mc.Explore.pruned_sleep;
    r_truncated = stats.Rlist_mc.Explore.truncated;
    r_elapsed = elapsed;
    r_violations =
      List.map
        (fun (v : _ Rlist_mc.Explore.violation) ->
          ( v.Rlist_mc.Explore.v_spec,
            List.length v.Rlist_mc.Explore.v_schedule,
            render v ))
        outcome.Rlist_mc.Mc.violations;
  }

let mc_check_cs (module P : Rlist_sim.Protocol_intf.PROTOCOL) ~equiv ~gc
    ~specs ~workloads ~por ~max_states ~batching =
  let module M = Rlist_mc.Mc.Cs (P) in
  List.map
    (fun workload ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        M.check ?equiv ?gc ~por ~max_states ~batching ~specs ~workload ()
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      mc_result workload elapsed outcome
        ~render:(Format.asprintf "%a" M.pp_violation))
    workloads

let mc_check_p2p (module P : Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL) ~gc
    ~specs ~workloads ~por ~max_states ~batching =
  let module M = Rlist_mc.Mc.P2p (P) in
  List.map
    (fun workload ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        M.check ?gc ~por ~max_states ~batching ~specs ~workload ()
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      mc_result workload elapsed outcome
        ~render:(Format.asprintf "%a" M.pp_violation))
    workloads

let cs_protocol_module = function
  | P_css -> Some (module Jupiter_css.Protocol : Rlist_sim.Protocol_intf.PROTOCOL)
  | P_cscw -> Some (module Jupiter_cscw.Protocol)
  | P_rga -> Some (module Jupiter_rga.Protocol)
  | P_naive -> Some (module Jupiter_cscw.Naive_p2p)
  | P_pruned -> Some (module Jupiter_css.Pruned_protocol)
  | P_logoot -> Some (module Jupiter_logoot.Protocol)
  | P_sequencer -> Some (module Jupiter_css.Sequencer_protocol)
  | P_treedoc -> Some (module Jupiter_treedoc.Protocol)
  | P_css_p2p | P_ttf -> None

let mc_check protocol nclients ops specs equiv_partner gc por max_states
    batching expect_violation json =
  let specs =
    match specs with
    | [] -> Rlist_mc.Mc.all_specs
    | specs -> specs
  in
  (* The Thm 8.1 scenario is part of the client/server catalog; on the
     broadcast engines its interleaving space is orders of magnitude
     larger, so peer-to-peer protocols check the combinatorial workload
     only. *)
  let include_thm81 =
    match protocol with
    | P_css_p2p | P_ttf -> false
    | _ -> true
  in
  let workloads = Rlist_mc.Workload.catalog ~include_thm81 ~nclients ~ops () in
  (* With GC on, also enumerate the compaction-vs-delivery race: the
     workload whose interleavings fire a cycle between an update's
     generation and its delivery (client/server engines only; the p2p
     cycles are shim-level and raceless). *)
  let workloads =
    match gc, protocol with
    | Some _, (P_css_p2p | P_ttf) | None, _ -> workloads
    | Some _, _ -> workloads @ [ Rlist_mc.Workload.compaction_race ]
  in
  let equiv =
    match equiv_partner with
    | None -> None
    | Some partner -> (
      match cs_protocol_module partner with
      | Some p -> Some ("equiv", Rlist_mc.Mc.behavior_of ~batching p)
      | None ->
        prerr_endline
          "check: --equiv partner must be a client/server protocol";
        exit 1)
  in
  let results =
    match protocol with
    | P_css_p2p ->
      if equiv <> None then begin
        prerr_endline
          "check: --equiv is not supported for peer-to-peer protocols";
        exit 1
      end;
      mc_check_p2p (module Jupiter_css.Distributed_protocol) ~gc ~specs
        ~workloads ~por ~max_states ~batching
    | P_ttf ->
      if equiv <> None then begin
        prerr_endline
          "check: --equiv is not supported for peer-to-peer protocols";
        exit 1
      end;
      mc_check_p2p (module Jupiter_ttf.Adopted_protocol) ~gc ~specs
        ~workloads ~por ~max_states ~batching
    | cs -> (
      match cs_protocol_module cs with
      | Some (module P) ->
        mc_check_cs (module P) ~equiv ~gc ~specs ~workloads ~por ~max_states
          ~batching
      | None -> assert false)
  in
  let checked_specs =
    List.map Rlist_mc.Mc.spec_name specs
    @ (match equiv with Some (name, _) -> [ name ] | None -> [])
  in
  let observed spec =
    List.exists
      (fun r ->
        List.exists (fun (s, _, _) -> String.equal s spec) r.r_violations)
      results
  in
  let truncated = List.exists (fun r -> r.r_truncated) results in
  let mismatches =
    List.filter
      (fun spec ->
        let expected = List.mem spec expect_violation in
        observed spec <> expected)
      checked_specs
  in
  if json then begin
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"workloads\": [\n";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string b ",\n";
        Printf.bprintf b
          "    {\"workload\": %S, \"updates\": %d, \"states\": %d, \
           \"interleavings\": %d, \"pruned_state\": %d, \"pruned_sleep\": \
           %d, \"truncated\": %b, \"elapsed_s\": %.6f, \"violations\": [%s]}"
          r.r_workload r.r_updates r.r_states r.r_terminals r.r_pruned_state
          r.r_pruned_sleep r.r_truncated r.r_elapsed
          (String.concat ", "
             (List.map
                (fun (spec, nevents, _) ->
                  Printf.sprintf "{\"spec\": %S, \"events\": %d}" spec
                    nevents)
                r.r_violations)))
      results;
    Printf.bprintf b "\n  ],\n  \"expected_violations\": [%s],\n"
      (String.concat ", "
         (List.map (fun s -> Printf.sprintf "%S" s) expect_violation));
    Printf.bprintf b "  \"mismatches\": [%s],\n"
      (String.concat ", "
         (List.map (fun s -> Printf.sprintf "%S" s) mismatches));
    Printf.bprintf b "  \"pass\": %b\n}" (mismatches = [] && not truncated);
    print_endline (Buffer.contents b)
  end
  else begin
    List.iter
      (fun r ->
        Printf.printf
          "%-20s %7d states, %6d interleavings, pruned %d (cache) + %d \
           (sleep)%s, %.2fs (%.0f states/s)\n"
          r.r_workload r.r_states r.r_terminals r.r_pruned_state
          r.r_pruned_sleep
          (if r.r_truncated then ", TRUNCATED" else "")
          r.r_elapsed
          (float_of_int r.r_states /. Float.max 1e-9 r.r_elapsed);
        List.iter
          (fun (spec, _, rendered) ->
            Printf.printf "  %s spec violated:\n%s\n" spec rendered)
          r.r_violations)
      results;
    List.iter
      (fun spec ->
        if List.mem spec expect_violation then
          Printf.printf
            "GATE: expected a %s violation but none was found\n" spec
        else Printf.printf "GATE: unexpected %s violation\n" spec)
      mismatches;
    if truncated then
      print_endline "GATE: state budget exhausted (raise --max-states)";
    if mismatches = [] && not truncated then
      Printf.printf "GATE: pass (%s)\n" (String.concat ", " checked_specs)
  end;
  if mismatches <> [] || truncated then exit 1

let mc_protocol_arg =
  let protocol_conv = Arg.enum protocol_names in
  Arg.(required
       & pos 0 (some protocol_conv) None
       & info [] ~docv:"PROTOCOL"
           ~doc:"Protocol to model-check (same names as $(b,simulate)).")

let mc_clients_arg =
  Arg.(value & opt int 2
       & info [ "clients" ] ~docv:"N"
           ~doc:"Clients in the bounded workload (2-8).")

let mc_ops_arg =
  Arg.(value & opt int 2
       & info [ "ops" ] ~docv:"K" ~doc:"Script operations per client.")

let mc_spec_arg =
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Rlist_mc.Mc.spec_of_name s with
          | Some spec -> Ok spec
          | None -> Error (`Msg (Printf.sprintf "unknown spec %S" s))),
        fun ppf s -> Format.pp_print_string ppf (Rlist_mc.Mc.spec_name s) )
  in
  Arg.(value & opt_all spec_conv []
       & info [ "spec" ] ~docv:"SPEC"
           ~doc:
             "Specification to check: convergence, weak, or strong.  \
              Repeatable; default all three.")

let mc_equiv_arg =
  let protocol_conv = Arg.enum protocol_names in
  Arg.(value & opt (some protocol_conv) None
       & info [ "equiv" ] ~docv:"PROTOCOL"
           ~doc:
             "Also check behavioural equivalence against this protocol on \
              every interleaving (Theorem 7.1: css vs cscw).")

let mc_no_por_arg =
  Arg.(value & flag
       & info [ "no-por" ]
           ~doc:
             "Disable partial-order reduction and state caching (naive \
              enumeration, the cross-check baseline).")

let mc_max_states_arg =
  Arg.(value & opt int 500_000
       & info [ "max-states" ] ~docv:"COUNT"
           ~doc:"State budget; exceeding it fails the gate.")

let mc_batching_arg =
  Arg.(value & flag
       & info [ "batching" ]
           ~doc:
             "Model-check the batched delivery path: the engine coalesces \
              sends per channel and delivers through the protocols' batch \
              entry points.  Partial-order reduction stays on with a \
              batching-aware (stricter) independence relation — deliveries \
              no longer commute with the sends feeding their outbox.")

let mc_expect_arg =
  Arg.(value & opt_all string []
       & info [ "expect-violation" ] ~docv:"SPEC"
           ~doc:
             "The gate passes only if this specification IS violated \
              somewhere in the catalog — mechanizing a negative theorem \
              (Thm 8.1: $(b,--expect-violation strong) for the OT \
              protocols).  Repeatable.")

let mc_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Bounded model checking: exhaustively enumerate every delivery \
          interleaving of a small workload catalog (a combinatorial \
          N-client script plus the fixed 3-client Theorem 8.1 scenario), \
          check convergence and the weak/strong list specifications on \
          each terminal execution, and shrink any counterexample to a \
          1-minimal witness.  Partial-order reduction (sleep sets + state \
          caching) is on by default and preserves all verdicts.")
    Term.(const mc_check $ mc_protocol_arg $ mc_clients_arg $ mc_ops_arg
          $ mc_spec_arg $ mc_equiv_arg $ gc_arg
          $ Term.app (Term.const not) mc_no_por_arg
          $ mc_max_states_arg $ mc_batching_arg $ mc_expect_arg $ json_arg)

(* --- viz ------------------------------------------------------------- *)

let viz name emit_dot =
  match Rlist_sim.Figures.find name with
  | None ->
    Printf.eprintf "unknown scenario %S; available: %s\n" name
      (String.concat ", "
         (List.map
            (fun (s : Rlist_sim.Figures.scenario) -> s.sname)
            Rlist_sim.Figures.all));
    exit 1
  | Some scenario ->
    let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
    let t = E.create ~initial:scenario.initial ~nclients:scenario.nclients () in
    E.run t scenario.schedule;
    let space = Jupiter_css.Protocol.server_space (E.server t) in
    Printf.printf "%s: %s\n\n" scenario.sname scenario.description;
    print_string (Jupiter_css.Render.to_ascii space ~initial:scenario.initial);
    if emit_dot then begin
      let path = scenario.sname ^ ".dot" in
      match open_out path with
      | oc ->
        output_string oc
          (Jupiter_css.Render.to_dot space ~initial:scenario.initial
             ~name:scenario.sname);
        close_out oc;
        Printf.printf "\nwrote %s\n" path
      | exception Sys_error msg ->
        Printf.eprintf "cannot write %s: %s\n" path msg;
        exit 1
    end

let viz_cmd =
  let name_arg =
    Arg.(value & pos 0 string "figure7"
         & info [] ~docv:"SCENARIO" ~doc:"Figure scenario name.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Also write a Graphviz .dot file.")
  in
  Cmd.v
    (Cmd.info "viz"
       ~doc:"Render the CSS n-ary ordered state-space of a figure scenario.")
    Term.(const viz $ name_arg $ dot_arg)

(* --- record / replay --------------------------------------------------- *)

let record profile nclients updates seed path =
  record_schedule ~profile ~nclients ~updates ~seed ~path

let record_cmd =
  let path_arg =
    Arg.(value & opt string "session.sched"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output schedule file.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a random session under the CSS protocol and save the concrete \
          schedule for later replay.")
    Term.(const record $ profile_arg $ clients_arg $ updates_arg $ seed_arg
          $ path_arg)

(* Deterministic replay of a flight recording: re-execute the run
   from the spec stored in the header (runs are seed-deterministic;
   the decision ring is the witness, not the driver) and check the
   fresh outcome digest and decision stream against the recording. *)

let do_shrink (recording : Rlist_obs.Recorder.recording)
    (spec : Recorded.spec) path =
  let aborted =
    List.assoc_opt "aborted" recording.Rlist_obs.Recorder.digest
  in
  match Recorded.schedule_of_recording recording with
  | Error msg ->
    Printf.eprintf "shrink: %s\n" msg;
    exit 1
  | Ok schedule ->
    let choice = List.assoc spec.Recorded.protocol protocol_names in
    let sat = Rlist_spec.Check.is_satisfied in
    let still_fails events =
      match Rlist_sim.Schedule.validate ~nclients:spec.Recorded.nclients
              events with
      | Error _ -> false
      | Ok () -> (
        let file =
          {
            Rlist_sim.Schedule_text.nclients = spec.Recorded.nclients;
            initial = Document.empty;
            events;
          }
        in
        match replay_protocol choice file, aborted with
        | s, None ->
          not (s.s_converged && sat s.s_convergence && sat s.s_weak)
        | _, Some _ -> false
        | exception Invalid_argument msg ->
          (* For an abort witness, a subset counts as failing only
             when it dies with the identical diagnostic — removing
             context changes positions and op ids, and a different
             crash is a different bug.  Engine-level errors mean the
             subset is not even a feasible schedule. *)
          (match aborted with
          | Some original -> String.equal msg original
          | None -> not (String.starts_with ~prefix:"Engine" msg)))
    in
    if not (still_fails schedule) then
      Printf.printf
        "shrink: the failure does not reproduce on perfect channels \
         (network-timing dependent); nothing to minimize\n"
    else begin
      let minimized = Rlist_mc.Witness.shrink ~still_fails schedule in
      let out = path ^ ".min.sched" in
      (try
         Rlist_sim.Schedule_text.save ~path:out
           ~nclients:spec.Recorded.nclients minimized
       with Sys_error msg ->
         Printf.eprintf "cannot write %s: %s\n" out msg;
         exit 1);
      Printf.printf "shrink: %d events -> %d minimal; wrote %s\n"
        (List.length schedule) (List.length minimized) out
    end

let pp_verdict path (v : Recorded.verdict) =
  let spec = v.Recorded.v_spec in
  Printf.printf "recording:   %s\n" path;
  Printf.printf "protocol:    %s  profile: %s  clients: %d  updates: %d  \
                 seed: %d\n"
    spec.Recorded.protocol
    (Rlist_workload.Workload.profile_name spec.Recorded.profile)
    spec.Recorded.nclients spec.Recorded.updates spec.Recorded.seed;
  Printf.printf "faults:      %s  shim: %b  rto: %d  batch: %b  \
                 fastpath: %b  gc: %s\n"
    (Rlist_net.Faults.to_string spec.Recorded.faults)
    spec.Recorded.shim spec.Recorded.rto spec.Recorded.batching
    spec.Recorded.fastpath
    (match spec.Recorded.gc with
    | None -> "off"
    | Some p -> Rlist_gc.to_string p);
  Printf.printf "decisions:   %d recorded, %d replayed\n"
    v.Recorded.v_total_expected v.Recorded.v_total_got;
  (match v.Recorded.v_mismatches with
  | [] -> Printf.printf "digest:      all keys match\n"
  | ms ->
    Printf.printf "digest:      %d mismatch(es)\n" (List.length ms);
    List.iteri
      (fun i (k, expected, got) ->
        if i < 8 then
          Printf.printf "  %-24s expected %s, got %s\n" k expected got)
      ms);
  (match v.Recorded.v_divergence with
  | None -> ()
  | Some (i, expected, got) ->
    Printf.printf "divergence:  decision %d: expected %S, got %S\n" i
      expected got);
  if v.Recorded.v_ok then
    Printf.printf "replay:      deterministic (bit-identical)\n"
  else Printf.printf "replay:      DIVERGED\n"

let verdict_json path (v : Recorded.verdict) =
  let b = Buffer.create 512 in
  let spec = v.Recorded.v_spec in
  Printf.bprintf b
    "{\"recording\": %S, \"protocol\": %S, \"seed\": %d, \
     \"decisions_recorded\": %d, \"decisions_replayed\": %d, \
     \"mismatches\": ["
    path spec.Recorded.protocol spec.Recorded.seed
    v.Recorded.v_total_expected v.Recorded.v_total_got;
  List.iteri
    (fun i (k, expected, got) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"key\": %S, \"expected\": %S, \"got\": %S}" k
        expected got)
    v.Recorded.v_mismatches;
  Buffer.add_string b "], \"divergence\": ";
  (match v.Recorded.v_divergence with
  | None -> Buffer.add_string b "null"
  | Some (i, expected, got) ->
    Printf.bprintf b
      "{\"index\": %d, \"expected\": %S, \"got\": %S}" i expected got);
  Printf.bprintf b ", \"ok\": %b}" v.Recorded.v_ok;
  Buffer.contents b

let load_recording path =
  match Rlist_obs.Recorder.load path with
  | recording -> recording
  | exception Rlist_obs.Recorder.Corrupt msg ->
    Printf.eprintf "replay: %s: %s\n" path msg;
    exit 1
  | exception Sys_error msg ->
    Printf.eprintf "replay: %s\n" msg;
    exit 1

let replay_recording path trace_out json shrink =
  let recording = load_recording path in
  let oc =
    match trace_out with
    | None -> None
    | Some tp -> (
      try Some (open_out tp)
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" tp msg;
        exit 1)
  in
  let obs =
    Option.map (fun oc -> Rlist_obs.Obs.make ~sink:(Rlist_obs.Sink.channel oc) ()) oc
  in
  match Recorded.verify ?obs recording with
  | exception Invalid_argument msg ->
    Option.iter close_out oc;
    (* The original run aborted too iff the stored digest says so with
       the same message — that is this path's bit-identical verdict. *)
    (match List.assoc_opt "aborted" recording.Rlist_obs.Recorder.digest with
    | Some original when String.equal original msg ->
      Printf.printf "replay:      reproduced the recorded abort: %s\n" msg;
      if shrink then begin
        match Recorded.spec_of_header recording.Rlist_obs.Recorder.header with
        | Ok spec -> do_shrink recording spec path
        | Error msg ->
          Printf.eprintf "shrink: %s\n" msg;
          exit 1
      end
    | _ ->
      Printf.printf "replay:      DIVERGED (fresh abort: %s)\n" msg;
      exit 1)
  | Error msg ->
    Option.iter close_out oc;
    Printf.eprintf "replay: %s\n" msg;
    exit 1
  | Ok v ->
    Option.iter close_out oc;
    if json then print_endline (verdict_json path v) else pp_verdict path v;
    if shrink then do_shrink recording v.Recorded.v_spec path;
    if not v.Recorded.v_ok then exit 1

let replay protocol path trace_out json shrink =
  if Rlist_obs.Recorder.is_recording path then
    replay_recording path trace_out json shrink
  else begin
    if Option.is_some trace_out || shrink then begin
      Printf.eprintf
        "replay: --trace/--shrink apply to flight recordings (.jfr), not \
         schedule files\n";
      exit 1
    end;
    match Rlist_sim.Schedule_text.load ~path with
    | Error msg ->
      Printf.eprintf "cannot load %s: %s\n" path msg;
      exit 1
    | Ok file ->
      (match replay_protocol protocol file with
      | summary -> pp_summary summary
      | exception Invalid_argument msg ->
        (* Replaying a Jupiter schedule on a non-equivalent protocol can
           go out of bounds; report rather than crash. *)
        Printf.printf "replay aborted: %s\n" msg;
        exit 1)
  end

let replay_cmd =
  let path_arg =
    Arg.(value & pos 0 string "session.sched"
         & info [] ~docv:"FILE"
             ~doc:
               "Schedule file, or a flight recording (.jfr) dumped by \
                $(b,soak)/$(b,fuzz).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "While re-executing a recording, write the full JSONL event \
                trace to FILE.")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:
               "After replaying a failing recording, extract its engine \
                schedule and ddmin-shrink it to a 1-minimal failing \
                schedule (written next to the recording).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded schedule under a protocol, or re-execute a \
          flight recording bit-identically and verify the outcome digest \
          and decision stream against it.  Exits non-zero when the replay \
          diverges.")
    Term.(const replay $ protocol_arg $ path_arg $ trace_arg $ json_flag
          $ shrink_arg)

(* --- report ------------------------------------------------------------ *)

(* Offline trace analysis: stitch per-op causal spans out of a JSONL
   trace (or out of a recording, by re-executing it with the tracer
   on) and report convergence lag, staleness, transform attribution,
   and the wire timeline. *)

let events_of_jsonl path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "report: %s\n" msg;
      exit 1
  in
  let events = ref [] in
  (try
     while true do
       match Rlist_obs.Event.of_jsonl (input_line ic) with
       | Some (_, e) -> events := e :: !events
       | None -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !events

let report path json =
  let events =
    if Rlist_obs.Recorder.is_recording path then begin
      let recording = load_recording path in
      let sink = Rlist_obs.Sink.memory () in
      let obs = Rlist_obs.Obs.make ~sink () in
      match Recorded.verify ~obs recording with
      | Error msg ->
        Printf.eprintf "report: %s\n" msg;
        exit 1
      | exception Invalid_argument msg ->
        Printf.eprintf "report: the recorded run aborts (%s); no trace\n"
          msg;
        exit 1
      | Ok v ->
        if not v.Recorded.v_ok then
          Printf.eprintf
            "report: warning: replay diverged from the recording; the \
             report reflects the fresh run\n";
        Rlist_obs.Sink.events sink
    end
    else events_of_jsonl path
  in
  if events = [] then begin
    Printf.eprintf "report: no events in %s\n" path;
    exit 1
  end;
  let summary = Rlist_obs.Spans.summarize events in
  if json then print_endline (Rlist_obs.Spans.summary_to_json summary)
  else Format.printf "%a@." Rlist_obs.Spans.pp_summary summary

let report_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:
               "A JSONL trace (from $(b,trace) or $(b,replay --trace)) or \
                a flight recording (.jfr).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyze a trace offline: per-op convergence-lag percentiles, \
          per-replica staleness, transform-cost attribution, send/\
          retransmission amplification, and a wire-fault timeline, as \
          text or JSON.")
    Term.(const report $ path_arg $ json_flag)

(* --- stats ------------------------------------------------------------ *)

let stats_json ~source (st : Jupiter_css.Analysis.stats) ~lemmas ~fp =
  let widths =
    String.concat ","
      (List.map (fun (l, w) -> Printf.sprintf "[%d,%d]" l w) st.width_per_level)
  in
  Printf.sprintf
    "{\"source\":%S,\"states\":%d,\"transitions\":%d,\"depth\":%d,\
     \"max_branching\":%d,\"nop_forms\":%d,\"width_per_level\":[%s],\
     \"lemmas_ok\":%b,\"fastpath\":{\"enabled\":%b,\"context_hits\":%d,\
     \"append_hits\":%d,\"generic_squares\":%d}}"
    source st.states st.transitions st.depth st.max_branching st.nop_forms
    widths lemmas fp.Rlist_ot.Fastpath.enabled
    fp.Rlist_ot.Fastpath.context_hits fp.Rlist_ot.Fastpath.append_hits
    fp.Rlist_ot.Fastpath.generic_squares

let stats name schedule_file json =
  let build source initial nclients events =
    let fp = Rlist_ot.Fastpath.create () in
    let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
    let t = E.create ~initial ~fastpath:fp ~nclients () in
    E.run t events;
    let space = Jupiter_css.Protocol.server_space (E.server t) in
    let st = Jupiter_css.Analysis.stats space in
    let lemmas = Jupiter_css.Analysis.check_all space ~nclients ~initial in
    if json then
      print_endline (stats_json ~source st ~lemmas:(Result.is_ok lemmas) ~fp)
    else begin
      Format.printf "%a@." Jupiter_css.Analysis.pp_stats st;
      match lemmas with
      | Ok () ->
        print_endline "structural lemmas (6.1/6.3/8.4/8.5/8.7): all hold"
      | Error e -> Printf.printf "structural lemma violated: %s\n" e
    end;
    if Result.is_error lemmas then exit 1
  in
  match schedule_file with
  | Some path -> (
    match Rlist_sim.Schedule_text.load ~path with
    | Error msg ->
      Printf.eprintf "cannot load %s: %s\n" path msg;
      exit 1
    | Ok file -> build path file.initial file.nclients file.events)
  | None -> (
    match Rlist_sim.Figures.find name with
    | None ->
      Printf.eprintf "unknown scenario %S\n" name;
      exit 1
    | Some scenario ->
      build scenario.sname scenario.initial scenario.nclients
        scenario.schedule)

let stats_cmd =
  let name_arg =
    Arg.(value & pos 0 string "figure7"
         & info [] ~docv:"SCENARIO" ~doc:"Figure scenario name.")
  in
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "schedule" ] ~docv:"FILE"
             ~doc:"Analyze a recorded schedule file instead of a figure.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Structural statistics and lemma checks of the CSS state-space \
          built by a figure scenario or a recorded schedule.  Exits \
          non-zero if a structural lemma fails.")
    Term.(const stats $ name_arg $ file_arg $ json_flag)

(* --- trace ------------------------------------------------------------ *)

(* Replay a figure scenario with the observability layer attached and
   the JSONL sink pointed at [oc].  The CSS run additionally wires
   [State_space.set_observer] on every replica, so the trace shows the
   state-space growing level by level (the paper's Figure 4). *)
let trace_css obs ~batching ~fastpath (scenario : Rlist_sim.Figures.scenario) =
  let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
  let t =
    E.create ~initial:scenario.initial ~batching ~fastpath
      ~nclients:scenario.nclients ()
  in
  E.attach_obs t obs;
  let wire name set =
    set (fun ~level ~states ~transitions ~ots ->
        ignore ots;
        if Rlist_obs.Obs.tracing obs then
          Rlist_obs.Obs.emit obs
            (Rlist_obs.Event.State_space_grow
               { replica = name; level; states; transitions }))
  in
  wire "server" (Jupiter_css.Protocol.server_set_space_observer (E.server t));
  for i = 1 to scenario.nclients do
    wire
      ("c" ^ string_of_int i)
      (Jupiter_css.Protocol.client_set_space_observer (E.client t i))
  done;
  E.run t scenario.schedule;
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let st = Jupiter_css.Analysis.stats space in
  E.converged t, E.total_ot_count t, E.total_metadata_size t, Some st

let trace_generic (type c s c2s s2c)
    (module P : Rlist_sim.Protocol_intf.PROTOCOL
      with type client = c
       and type server = s
       and type c2s = c2s
       and type s2c = s2c) obs ~batching ~fastpath
    (scenario : Rlist_sim.Figures.scenario) =
  let module E = Rlist_sim.Engine.Make (P) in
  let t =
    E.create ~initial:scenario.initial ~batching ~fastpath
      ~nclients:scenario.nclients ()
  in
  E.attach_obs t obs;
  E.run t scenario.schedule;
  E.converged t, E.total_ot_count t, E.total_metadata_size t, None

let trace name protocol batching fastpath out_file json =
  match Rlist_sim.Figures.find name with
  | None ->
    Printf.eprintf "unknown scenario %S; available: %s\n" name
      (String.concat ", "
         (List.map
            (fun (s : Rlist_sim.Figures.scenario) -> s.sname)
            Rlist_sim.Figures.all));
    exit 1
  | Some scenario ->
    let oc, close =
      match out_file with
      | None -> stdout, fun () -> flush stdout
      | Some path -> (
        try
          let oc = open_out path in
          oc, fun () -> close_out oc
        with Sys_error msg ->
          Printf.eprintf "cannot open %s: %s\n" path msg;
          exit 1)
    in
    let sink = Rlist_obs.Sink.channel oc in
    let obs = Rlist_obs.Obs.make ~sink () in
    let fp = Rlist_ot.Fastpath.create ~enabled:fastpath () in
    let run (converged, ots, metadata, space_stats) =
      publish_fastpath fp obs.Rlist_obs.Obs.metrics;
      let space_json =
        match space_stats with
        | None -> ""
        | Some (st : Jupiter_css.Analysis.stats) ->
          Printf.sprintf
            ",\"space_states\":%d,\"space_transitions\":%d,\"space_depth\":%d"
            st.states st.transitions st.depth
      in
      if json then
        output_string oc
          (Printf.sprintf
             "{\"type\":\"summary\",\"scenario\":%S,\"converged\":%b,\
              \"total_transforms\":%d,\"total_metadata\":%d%s,\
              \"metrics\":%s}\n"
             scenario.sname converged ots metadata space_json
             (Rlist_obs.Obs.metrics_json obs))
      else Format.eprintf "%a@." Rlist_obs.Obs.report obs;
      close ();
      if not converged then exit 1
    in
    (match protocol with
    | P_css -> run (trace_css obs ~batching ~fastpath:fp scenario)
    | P_cscw ->
      run (trace_generic (module Jupiter_cscw.Protocol) obs ~batching ~fastpath:fp
             scenario)
    | P_rga ->
      run (trace_generic (module Jupiter_rga.Protocol) obs ~batching ~fastpath:fp scenario)
    | P_naive ->
      run (trace_generic (module Jupiter_cscw.Naive_p2p) obs ~batching ~fastpath:fp
             scenario)
    | P_pruned ->
      run (trace_generic (module Jupiter_css.Pruned_protocol) obs ~batching ~fastpath:fp
             scenario)
    | P_logoot ->
      run (trace_generic (module Jupiter_logoot.Protocol) obs ~batching ~fastpath:fp
             scenario)
    | P_sequencer ->
      run (trace_generic (module Jupiter_css.Sequencer_protocol) obs
             ~batching ~fastpath:fp scenario)
    | P_treedoc ->
      run (trace_generic (module Jupiter_treedoc.Protocol) obs ~batching ~fastpath:fp
             scenario)
    | P_css_p2p | P_ttf ->
      Printf.eprintf
        "trace: figure schedules are client/server shaped; peer-to-peer \
         protocols cannot replay them\n";
      exit 1)

let trace_cmd =
  let name_arg =
    Arg.(value & pos 0 string "figure2"
         & info [] ~docv:"SCENARIO" ~doc:"Figure scenario name.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the JSONL trace to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a figure scenario with metrics and structured tracing \
          enabled; emits one JSON object per generate/send/deliver/apply \
          event (and per state-space growth step under css).  With \
          $(b,--json), a final summary object carries the aggregated \
          counters; otherwise a human-readable metrics report goes to \
          stderr.")
    Term.(const trace $ name_arg $ protocol_arg $ batch_arg $ fastpath_arg
          $ out_arg $ json_flag)

(* --- figures ---------------------------------------------------------- *)

let figures () =
  List.iter
    (fun (scenario : Rlist_sim.Figures.scenario) ->
      let broken = scenario.sname = "figure8" in
      let verdicts =
        if broken then begin
          let module E = Rlist_sim.Engine.Make (Jupiter_cscw.Naive_p2p) in
          let t = E.create ~initial:scenario.initial
                    ~nclients:scenario.nclients () in
          E.run t scenario.schedule;
          let trace = E.trace t in
          ( E.converged t,
            Rlist_spec.Convergence.check trace,
            Rlist_spec.Weak_spec.check trace,
            Rlist_spec.Strong_spec.check trace,
            Document.to_string (E.client_document t 1) )
        end
        else begin
          let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
          let t = E.create ~initial:scenario.initial
                    ~nclients:scenario.nclients () in
          E.run t scenario.schedule;
          let trace = E.trace t in
          ( E.converged t,
            Rlist_spec.Convergence.check trace,
            Rlist_spec.Weak_spec.check trace,
            Rlist_spec.Strong_spec.check trace,
            Document.to_string (E.server_document t) )
        end
      in
      let converged, conv, weak, strong, final = verdicts in
      let protocol = if broken then "naive" else "css" in
      let show r = if Rlist_spec.Check.is_satisfied r then "yes" else "NO" in
      Printf.printf "%-8s [%-5s] converged=%-5b final=%-10S conv=%-3s weak=%-3s strong=%-3s\n"
        scenario.sname protocol converged final (show conv) (show weak)
        (show strong))
    Rlist_sim.Figures.all

let figures_cmd =
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Replay every paper figure and print a verdict summary.")
    Term.(const figures $ const ())

let () =
  let info =
    Cmd.info "jupiter-sim" ~version:"1.0.0"
      ~doc:
        "Simulate and check replicated-list protocols (CSS/CSCW Jupiter, \
         RGA, and a broken OT foil)."
  in
  exit (Cmd.eval (Cmd.group info [ simulate_cmd; mc_cmd; fuzz_cmd; soak_cmd;
            longrun_cmd; shard_smoke_cmd; viz_cmd; figures_cmd; record_cmd;
            replay_cmd;
            report_cmd; stats_cmd; trace_cmd ]))
