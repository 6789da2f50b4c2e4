(* Drives one document session through the production configuration:
   CSS Jupiter with acknowledgement-driven pruning, per-channel batching,
   the append fast path and continuous GC ([Rlist_gc.default]).

   The load is a closed loop from one process and one domain: each
   round every client generates its share of a fixed in-flight window
   of updates, then [Engine.quiesce] drains every channel, and only
   then does the next round start.  The window bounds how much is
   concurrent, which the engine's own random and timed drivers do not
   (see perfbench/README.md, "Known scheduler traps"). *)

open Rlist_model

type result = {
  updates : int;  (** updates generated *)
  events : int;  (** engine events: generates (reads too) and deliveries *)
  failure : string option;  (** the gate's verdict, or the exception *)
  docs : Document.t list;  (** final documents, server first *)
  ot : int;  (** primitive transformations, all replicas *)
  fastpath : Rlist_ot.Fastpath.t;
  net : Rlist_net.Stats.t option;  (** [None] on a perfect wire *)
  gc : Rlist_gc.stats option;
  meta_peak : int;  (** peak [Engine.total_metadata_size] at round ends *)
  dedup_peak : int;  (** peak [Engine.dedup_keys] at round ends *)
  doc_len_sum : int;  (** server document length summed over round ends *)
  rounds : int;
  open_ns : int;
      (** opening the document: [Document.of_string] of the initial
          text, then the engine and its replicas *)
}

module Make (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  module E = Rlist_sim.Engine.Make (P)

  (* Open a document: the engine and its replicas over [initial]. *)
  let open_doc w ~(draws : Inputs.draws) ~initial =
    let s = Inputs.shape w in
    let fastpath = Rlist_ot.Fastpath.create ~enabled:true () in
    let net =
      if s.lossy then
        Some
          (Rlist_net.Transport.config ~faults:Inputs.faults
             ~seed:draws.net_seed ())
      else None
    in
    let t =
      E.create ~initial ?net ~batching:true ~gc:Rlist_gc.default
        ~history:false ~fastpath ~nclients:s.nclients ()
    in
    t, fastpath, net

  (* Round-end samples are the harness's own reads; keep them out of
     the wrapper's [gc] spans. *)
  let untraced f x =
    let saved = !Probe.tracing in
    Probe.tracing := false;
    let r = f x in
    Probe.tracing := saved;
    r

  (* Run session [index] of workload [w] until its last round or until
     the monotonic clock passes [deadline] (checked between rounds), at
     most [max_rounds] rounds, then gate it. *)
  let run_session ?(deadline = max_int) ?max_rounds w ~seed ~index ~text =
    let s = Inputs.shape w in
    let last_round =
      match max_rounds with Some m -> min m s.rounds | None -> s.rounds
    in
    let window = Inputs.window s in
    Probe.enter Probe.Session;
    Probe.enter Probe.Gen;
    let draws = Inputs.draw w ~seed ~index in
    Probe.leave ();
    let open_start = Probe.now_ns () in
    let initial = Document.of_string text in
    Probe.enter Probe.Engine_create;
    let t, fastpath, net = open_doc w ~draws ~initial in
    Probe.leave ();
    let open_ns = Probe.now_ns () - open_start in
    Probe.begin_session ~nclients:s.nclients;
    let resolver = Inputs.resolver w draws in
    let acct = Gate.create initial in
    let updates = ref 0 and events = ref 0 and rounds = ref 0 in
    let meta_peak = ref 0 and dedup_peak = ref 0 and doc_len_sum = ref 0 in
    let generate i intent =
      Probe.enter Probe.Engine_generate;
      E.apply_event t (Rlist_sim.Schedule.Generate (i, intent));
      Probe.leave ();
      incr events
    in
    let depth = !Probe.depth in
    let failure, docs =
      try
        while !rounds < last_round && Probe.now_ns () < deadline do
          Probe.enter Probe.Round;
          for j = 0 to s.per_client - 1 do
            for i = 1 to s.nclients do
              let slot = (!rounds * window) + (j * s.nclients) + (i - 1) in
              if Inputs.reads_before resolver slot then generate i Intent.Read;
              let doc = E.client_document t i in
              let intent =
                Inputs.resolve resolver ~slot ~client:i
                  ~len:(Document.length doc)
              in
              (match intent with
              | Intent.Delete p -> Gate.deleted acct (Document.nth doc p)
              | Intent.Insert _ | Intent.Read -> ());
              generate i intent;
              (match intent with
              | Intent.Insert (_, p) ->
                Gate.inserted acct (Document.nth (E.client_document t i) p)
              | Intent.Delete _ | Intent.Read -> ());
              incr updates
            done
          done;
          Probe.enter Probe.Engine_quiesce;
          let delivered = E.quiesce t in
          Probe.leave ();
          events := !events + List.length delivered;
          meta_peak := max !meta_peak (untraced E.total_metadata_size t);
          dedup_peak := max !dedup_peak (E.dedup_keys t);
          doc_len_sum :=
            !doc_len_sum + Document.length (E.server_document t);
          incr rounds;
          Probe.leave ();
          Host.tick ()
        done;
        Probe.enter Probe.Check;
        let docs =
          E.server_document t
          :: List.init s.nclients (fun i -> E.client_document t (i + 1))
        in
        let verdict =
          Gate.check acct ~docs ~unconverged:Probe.tracker.unconverged
        in
        Probe.leave ();
        verdict, docs
      with e ->
        Probe.depth := depth;
        Some ("exception: " ^ Printexc.to_string e), []
    in
    Probe.leave ();
    {
      updates = !updates;
      events = !events;
      failure;
      docs;
      ot = E.total_ot_count t;
      fastpath;
      net = Option.map Rlist_net.Transport.stats net;
      gc = E.gc_stats t;
      meta_peak = !meta_peak;
      dedup_peak = !dedup_peak;
      doc_len_sum = !doc_len_sum;
      rounds = !rounds;
      open_ns;
    }
end
