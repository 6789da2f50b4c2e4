open Rlist_model
module Obs = Rlist_obs.Obs
module Metrics = Rlist_obs.Metrics
module Ev = Rlist_obs.Event
module Recorder = Rlist_obs.Recorder
module Transport = Rlist_net.Transport

(* The flight-recorder rendering of an intent; Schedule_text's [gen]
   syntax, so recorded schedules parse back for the shrinker. *)
let intent_string = function
  | Intent.Insert (c, p) -> Printf.sprintf "ins %c %d" c p
  | Intent.Delete p -> Printf.sprintf "del %d" p
  | Intent.Read -> "read"

(* Channels stuck for this many consecutive virtual-clock ticks (no
   delivery possible anywhere, retransmission timers included) mean the
   network cannot quiesce — e.g. a permanent partition, or loss with
   the shim disabled. *)
let quiesce_fuel = 100_000

module Driver = Rlist_gc.Driver

module Make (P : Protocol_intf.PROTOCOL) = struct
  (* Everything the observability layer needs, allocated once at
     {!attach_obs}: metric handles plus per-replica counter snapshots
     (index 0 is the server) so each delivery can report {e deltas} of
     the protocol's cumulative OT/metadata counters. *)
  type obs_state = {
    obs : Obs.t;
    c_updates : Metrics.counter;
    c_reads : Metrics.counter;
    c_c2s : Metrics.counter;
    c_s2c : Metrics.counter;
    c_deliver_s : Metrics.counter;
    c_deliver_c : Metrics.counter;
    c_transforms : Metrics.counter;
    h_batch_size : Metrics.histogram;
    h_deliver_tr : Metrics.histogram;
    h_c2s_depth : Metrics.histogram;
    h_s2c_depth : Metrics.histogram;
    h_msg_bytes : Metrics.histogram;
    g_metadata : Metrics.gauge;
    last_ot : int array;
    last_meta : int array;
    mutable meta_total : int;
  }

  (* Channels carry {e batches}: with batching off every payload is a
     singleton, delivered through the protocol's one-message receive
     functions, so the default mode is observably the unbatched
     engine.  With batching on, consecutive sends towards one channel
     accumulate in an engine-level outbox (in front of the transport,
     which assigns a sequence number at [send]) and are flushed as one
     payload — one seqno, one retransmission unit — when a delivery
     event targets that channel. *)
  type t = {
    nclients : int;
    server : P.server;
    clients : P.client array;  (* index 0 unused; clients are 1-based *)
    to_server : P.c2s list Transport.t array;
    to_client : P.s2c list Transport.t array;
    batching : bool;
    out_c2s : P.c2s list array;  (* per-client outbox, reversed *)
    out_s2c : P.s2c list array;  (* per-destination outbox, reversed *)
    mutable events : Rlist_spec.Event.t list;  (* reversed *)
    mutable next_eid : int;
    mutable behavior : (Replica_id.t * Document.t) list;  (* reversed *)
    initial : Document.t;
    mutable obs : obs_state option;
    net : Transport.config option;
    mutable clock : int;  (* mirrors the per-channel virtual clocks *)
    mutable recorder : Recorder.t option;
    gc : gc_state option;
    history : bool;
        (* retain the spec-event trace and behavior lists; switched
           off for unbounded soaks, where they are the one engine
           structure that grows with the horizon *)
  }

  and gc_state = {
    g_driver : Driver.t;
    g_support : (P.client, P.server, P.c2s) Protocol_intf.gc_support option;
    mutable g_last_snapshot : string option;
  }

  (* The dedup key of a batch joins its operations' identifiers: a
     retransmitted batch is suppressed as a unit, and a singleton's
     key is the seed engine's. *)
  let batch_key ids =
    match List.filter_map (Option.map Op_id.to_string) ids with
    | [] -> None
    | keys -> Some (String.concat "+" keys)

  let create ?(initial = Document.empty) ?net ?(batching = false) ?gc
      ?(history = true) ?fastpath ~nclients () =
    if nclients < 1 then invalid_arg "Engine.create: need at least one client";
    let fastpath =
      match fastpath with
      | Some fp -> fp
      | None -> Rlist_ot.Fastpath.create ()
    in
    let channel key name =
      match net with
      | None -> Transport.perfect ()
      | Some cfg -> Transport.create ~key ~weight:List.length ~name cfg
    in
    let c2s_key batch = batch_key (List.map P.c2s_op_id batch) in
    let s2c_key batch = batch_key (List.map P.s2c_op_id batch) in
    {
      nclients;
      server = P.create_server ~fastpath ~nclients ~initial;
      clients =
        Array.init (nclients + 1) (fun i ->
            P.create_client ~fastpath ~nclients ~id:(max i 1) ~initial);
      to_server =
        Array.init (nclients + 1) (fun i ->
            channel c2s_key (Printf.sprintf "c%d->server" i));
      to_client =
        Array.init (nclients + 1) (fun i ->
            channel s2c_key (Printf.sprintf "server->c%d" i));
      batching;
      out_c2s = Array.make (nclients + 1) [];
      out_s2c = Array.make (nclients + 1) [];
      events = [];
      next_eid = 0;
      behavior = [];
      initial;
      obs = None;
      net;
      clock = 0;
      recorder = None;
      gc =
        Option.map
          (fun policy ->
            {
              g_driver = Driver.create policy;
              g_support = P.gc_support;
              g_last_snapshot = None;
            })
          gc;
      history;
    }

  let record_decision t d =
    match t.recorder with
    | Some r -> Recorder.record r d
    | None -> ()

  let tick_channels t =
    for i = 1 to t.nclients do
      Transport.tick t.to_server.(i);
      Transport.tick t.to_client.(i)
    done;
    t.clock <- t.clock + 1;
    record_decision t (Recorder.Tick t.clock)

  let nclients t = t.nclients

  let check_client t i =
    if i < 1 || i > t.nclients then
      invalid_arg (Printf.sprintf "Engine: client %d out of range" i)

  (* Channel occupancy, outbox included: an unflushed outbox is one
     deliverable unit (the delivery event flushes it first) and
     [length] pending operations. *)
  let pending_c2s t i =
    Transport.pending t.to_server.(i) + List.length t.out_c2s.(i)

  let pending_s2c t i =
    Transport.pending t.to_client.(i) + List.length t.out_s2c.(i)

  let deliverable_c2s t i =
    Transport.deliverable t.to_server.(i)
    + (match t.out_c2s.(i) with [] -> 0 | _ -> 1)

  let deliverable_s2c t i =
    Transport.deliverable t.to_client.(i)
    + (match t.out_s2c.(i) with [] -> 0 | _ -> 1)

  (* --- observability ------------------------------------------------- *)

  (* Replica 0 is the server in the per-replica snapshot arrays. *)
  let replica_ot t i =
    if i = 0 then P.server_ot_count t.server
    else P.client_ot_count t.clients.(i)

  let replica_meta t i =
    if i = 0 then P.server_metadata_size t.server
    else P.client_metadata_size t.clients.(i)

  let rname i = if i = 0 then "server" else "c" ^ string_of_int i

  (* A crude but protocol-agnostic payload estimate: the heap words
     reachable from the message, in bytes.  Shared substructure is
     counted once per message, mirroring what a naive serializer would
     transmit. *)
  let bytes_estimate v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

  let attach_obs t obs =
    let m = obs.Obs.metrics in
    let last_ot = Array.init (t.nclients + 1) (fun i -> replica_ot t i) in
    let last_meta = Array.init (t.nclients + 1) (fun i -> replica_meta t i) in
    let meta_total = Array.fold_left ( + ) 0 last_meta in
    let os =
      {
        obs;
        c_updates = Metrics.counter m "engine.updates_generated";
        c_reads = Metrics.counter m "engine.reads_generated";
        c_c2s = Metrics.counter m "engine.msgs_c2s_sent";
        c_s2c = Metrics.counter m "engine.msgs_s2c_sent";
        c_deliver_s = Metrics.counter m "engine.deliveries_to_server";
        c_deliver_c = Metrics.counter m "engine.deliveries_to_client";
        c_transforms = Metrics.counter m "engine.transforms";
        h_batch_size = Metrics.histogram m "engine.batch_size";
        h_deliver_tr = Metrics.histogram m "engine.transforms_per_delivery";
        h_c2s_depth = Metrics.histogram m "channel.c2s.depth";
        h_s2c_depth = Metrics.histogram m "channel.s2c.depth";
        h_msg_bytes = Metrics.histogram m "engine.msg_bytes";
        g_metadata = Metrics.gauge m "engine.metadata_total";
        last_ot;
        last_meta;
        meta_total;
      }
    in
    Metrics.set_gauge os.g_metadata (float_of_int meta_total);
    (match t.net with
    | Some cfg -> Transport.set_obs cfg (Some obs)
    | None -> ());
    t.obs <- Some os

  let obs t = Option.map (fun (os : obs_state) -> os.obs) t.obs

  let attach_recorder t r =
    t.recorder <- Some r;
    match t.net with
    | Some cfg -> Transport.set_recorder cfg (Some r)
    | None -> ()

  let clock t = t.clock

  (* Consume the replica's OT-counter delta since the last probe. *)
  let ot_delta os t i =
    let current = replica_ot t i in
    let delta = current - os.last_ot.(i) in
    os.last_ot.(i) <- current;
    delta

  let meta_delta os t i =
    let current = replica_meta t i in
    let delta = current - os.last_meta.(i) in
    os.last_meta.(i) <- current;
    os.meta_total <- os.meta_total + delta;
    Metrics.set_gauge os.g_metadata (float_of_int os.meta_total);
    delta

  let id_str = Option.map Op_id.to_string

  (* Payload estimate of a batch: unwrap singletons so the default
     mode reports exactly what the unbatched engine did. *)
  let batch_bytes = function [ m ] -> bytes_estimate m | batch ->
    bytes_estimate batch

  (* Flush an outbox into its transport as one batch payload; the
     send-side observability (message counters, depth and size
     histograms, trace Send event) fires here, where the message
     actually enters the channel. *)
  let flush_outbox t ~(outbox : 'm list array) ~channels ~i ~src ~dst
      ~op_id_of =
    match outbox.(i) with
    | [] -> ()
    | rev -> (
      outbox.(i) <- [];
      let batch = List.rev rev in
      record_decision t
        (Recorder.Flush
           { channel = src ^ "->" ^ dst; ops = List.length batch });
      Transport.send channels.(i) batch;
      match t.obs with
      | None -> ()
      | Some os ->
        (if src = "server" then Metrics.incr os.c_s2c
         else Metrics.incr os.c_c2s);
        Metrics.observe os.h_batch_size (float_of_int (List.length batch));
        let depth = Transport.pending channels.(i) in
        Metrics.observe
          (if src = "server" then os.h_s2c_depth else os.h_c2s_depth)
          (float_of_int depth);
        Metrics.observe os.h_msg_bytes (float_of_int (batch_bytes batch));
        if Obs.tracing os.obs then
          Obs.emit os.obs
            (Ev.Send
               {
                 src;
                 dst;
                 op_id = batch_key (List.map op_id_of batch);
                 bytes = batch_bytes batch;
                 queue = depth;
                 tick = t.clock;
               }))

  let flush_c2s t i =
    flush_outbox t ~outbox:t.out_c2s ~channels:t.to_server ~i ~src:(rname i)
      ~dst:"server" ~op_id_of:P.c2s_op_id

  let flush_s2c t i =
    flush_outbox t ~outbox:t.out_s2c ~channels:t.to_client ~i ~src:"server"
      ~dst:(rname i) ~op_id_of:P.s2c_op_id

  let record_behavior t replica doc =
    if t.history then t.behavior <- (replica, doc) :: t.behavior

  let record_do t i (outcome : Protocol_intf.do_outcome) =
    if t.history then begin
      let client = t.clients.(i) in
      let event =
        Rlist_spec.Event.make ~eid:t.next_eid ~replica:(Replica_id.Client i)
          ~op:outcome.Protocol_intf.op ~op_id:outcome.Protocol_intf.op_id
          ~result:(P.client_document client)
          ~visible:(P.client_visible client)
      in
      t.next_eid <- t.next_eid + 1;
      t.events <- event :: t.events
    end

  (* --- continuous GC ------------------------------------------------- *)

  let note_gc_ops t n =
    match t.gc with
    | Some g when n > 0 -> Driver.note_ops g.g_driver n
    | _ -> ()

  let op_count op_id_of batch =
    List.fold_left
      (fun n m -> match op_id_of m with Some _ -> n + 1 | None -> n)
      0 batch

  let system_meta t =
    let sum = ref (P.server_metadata_size t.server) in
    for i = 1 to t.nclients do
      sum := !sum + P.client_metadata_size t.clients.(i)
    done;
    !sum

  let emit_gc_event t ev =
    match t.obs with
    | Some os when Obs.tracing os.obs -> Obs.emit os.obs ev
    | _ -> ()

  (* One compaction cycle.  Everything here is out of band: heartbeats
     are injected and processed atomically only for clients whose c2s
     channel (transport + outbox) is empty, and the resulting [Stable]
     notifications are applied directly only to clients whose s2c
     channel is empty — busy channels are skipped and their pruning
     lags until a later cycle.  Under that restriction the synchronous
     exchange is equivalent to appending legal delivery events to the
     schedule (nothing in flight is overtaken), and no transport send,
     sequence number, RNG draw, or behavior entry is consumed — which
     is what keeps a GC-on run's schedule, behavior, and final
     documents bit-identical to the same seed with GC off.  The MC
     workload [Workload.compaction_race] checks the racy variant of
     this argument; DESIGN.md section 14 spells it out. *)
  let run_gc_cycle t g trigger ~meta_before =
    let d = g.g_driver in
    let before = Driver.stats d in
    let cycle = Driver.begin_cycle d trigger in
    let trigger_s = Rlist_gc.trigger_name trigger in
    record_decision t (Recorder.Gc { cycle; trigger = trigger_s });
    emit_gc_event t
      (Ev.Gc_begin
         { cycle; trigger = trigger_s; meta = meta_before; tick = t.clock });
    let frontier_sum support =
      let sum = ref (support.Protocol_intf.gc_server_frontier t.server) in
      for i = 1 to t.nclients do
        sum := !sum + support.Protocol_intf.gc_client_frontier t.clients.(i)
      done;
      !sum
    in
    let log_before =
      match g.g_support with None -> 0 | Some s -> frontier_sum s
    in
    (* 1. Ack-driven pruning: synchronous heartbeat exchange on the
       empty channels. *)
    (match g.g_support with
    | None -> ()
    | Some s ->
      for i = 1 to t.nclients do
        if pending_c2s t i = 0 then begin
          Driver.note_heartbeat d;
          let outgoing =
            P.server_receive t.server ~from:i
              (s.Protocol_intf.gc_heartbeat t.clients.(i))
          in
          List.iter
            (fun (dest, m) ->
              check_client t dest;
              if pending_s2c t dest = 0 then begin
                P.client_receive t.clients.(dest) m;
                Driver.note_stable d
              end
              else Driver.note_skipped_stable d)
            outgoing
        end
        else Driver.note_skipped_heartbeat d
      done);
    (* 2. Shim pruning: acked retransmission entries are already
       dropped by [Transport.tick]; what grows is the receiver-side
       dedup table. *)
    let retain = (Driver.policy d).Rlist_gc.retain_keys in
    let reclaimed_keys = ref 0 in
    for i = 1 to t.nclients do
      reclaimed_keys :=
        !reclaimed_keys
        + Transport.prune_delivered t.to_server.(i) ~retain
        + Transport.prune_delivered t.to_client.(i) ~retain
    done;
    (* 3. Periodic stable snapshot. *)
    let snapshot_bytes =
      match g.g_support with
      | Some s when Driver.snapshot_due d ->
        let snap = s.Protocol_intf.gc_snapshot t.server in
        g.g_last_snapshot <- Some snap;
        Some (String.length snap)
      | _ -> None
    in
    let meta_after = system_meta t in
    let reclaimed_log =
      match g.g_support with None -> 0 | Some s -> frontier_sum s - log_before
    in
    Driver.end_cycle d
      ~reclaimed_states:(max 0 (meta_before - meta_after))
      ~reclaimed_log ~reclaimed_keys:!reclaimed_keys ~snapshot_bytes
      ~meta:meta_after;
    let after = Driver.stats d in
    (* Re-baseline the per-replica metadata snapshots so the next
       delivery's [meta_delta] is not charged with the compaction. *)
    (match t.obs with
    | None -> ()
    | Some os ->
      for i = 0 to t.nclients do
        ignore (meta_delta os t i)
      done);
    emit_gc_event t
      (Ev.Gc_end
         {
           cycle;
           reclaimed_states = max 0 (meta_before - meta_after);
           reclaimed_log;
           reclaimed_keys = !reclaimed_keys;
           meta = meta_after;
           snapshot_bytes = Option.value snapshot_bytes ~default:0;
           skipped =
             after.Rlist_gc.skipped_heartbeats
             - before.Rlist_gc.skipped_heartbeats
             + after.Rlist_gc.skipped_stables
             - before.Rlist_gc.skipped_stables;
           tick = t.clock;
         })

  let maybe_gc t =
    match t.gc with
    | None -> ()
    | Some g -> (
      let meta = system_meta t in
      let lag =
        match g.g_support with
        | None -> 0
        | Some s -> s.Protocol_intf.gc_server_lag t.server
      in
      match Driver.due g.g_driver ~meta ~lag with
      | None -> ()
      | Some trigger -> run_gc_cycle t g trigger ~meta_before:meta)

  let apply_one t = function
    | Schedule.Generate (i, intent) ->
      check_client t i;
      record_decision t
        (Recorder.Generate { client = i; intent = intent_string intent });
      let outcome, msg = P.client_generate t.clients.(i) intent in
      record_do t i outcome;
      (match outcome.Protocol_intf.op_id with
      | Some _ -> note_gc_ops t 1
      | None -> ());
      (match msg with
      | None -> ()
      | Some m ->
        if t.batching then t.out_c2s.(i) <- m :: t.out_c2s.(i)
        else Transport.send t.to_server.(i) [ m ]);
      (match t.obs with
      | None -> ()
      | Some os ->
        let transforms = ot_delta os t i in
        ignore (meta_delta os t i);
        let op_id = outcome.Protocol_intf.op_id in
        (match op_id with
        | Some _ -> Metrics.incr os.c_updates
        | None -> Metrics.incr os.c_reads);
        Metrics.add os.c_transforms transforms;
        let depth = pending_c2s t i in
        (match msg with
        | None -> ()
        | Some m ->
          (* With batching on, the send-side counters fire at flush
             time instead (the message has not entered the channel
             yet). *)
          if not t.batching then begin
            Metrics.incr os.c_c2s;
            Metrics.observe os.h_batch_size 1.0;
            Metrics.observe os.h_c2s_depth (float_of_int depth);
            Metrics.observe os.h_msg_bytes (float_of_int (bytes_estimate m))
          end);
        if Obs.tracing os.obs then begin
          let intent_kind =
            match outcome.Protocol_intf.op with
            | Rlist_spec.Event.Do_read -> "read"
            | Rlist_spec.Event.Do_ins _ -> "ins"
            | Rlist_spec.Event.Do_del _ -> "del"
          in
          Obs.emit os.obs
            (Ev.Generate
               {
                 replica = rname i;
                 op_id = id_str op_id;
                 intent = intent_kind;
                 queue = depth;
                 tick = t.clock;
               });
          match msg with
          | None -> ()
          | Some m ->
            if not t.batching then
              Obs.emit os.obs
                (Ev.Send
                   {
                     src = rname i;
                     dst = "server";
                     op_id = id_str (P.c2s_op_id m);
                     bytes = bytes_estimate m;
                     queue = depth;
                     tick = t.clock;
                   });
            Obs.emit os.obs
              (Ev.Apply
                 {
                   replica = rname i;
                   op_id = id_str op_id;
                   doc_len = Document.length (P.client_document t.clients.(i));
                   tick = t.clock;
                 })
        end);
      record_behavior t (Replica_id.Client i) (P.client_document t.clients.(i))
    | Schedule.Deliver_to_server i -> (
      check_client t i;
      if deliverable_c2s t i = 0 then
        invalid_arg
          (Printf.sprintf "Engine: no pending message from client %d" i);
      flush_c2s t i;
      (* On a faulty channel the just-flushed payload may not be ready
         yet; the delivery then falls into the tolerated None case
         below, like any other consumed arrival. *)
      match Transport.deliver t.to_server.(i) with
      | None -> () (* the fault layer / shim consumed the arrival *)
      | Some batch ->
        (* Recorded only for payloads that reach the protocol, so the
           decision stream is the logical (exactly-once) delivery
           schedule — replayable on perfect channels. *)
        record_decision t (Recorder.Deliver_to_server i);
        note_gc_ops t (op_count P.c2s_op_id batch);
        let msg_op_id, outgoing =
          match batch with
          | [ msg ] ->
            id_str (P.c2s_op_id msg), P.server_receive t.server ~from:i msg
          | _ ->
            ( batch_key (List.map P.c2s_op_id batch),
              P.server_receive_batch t.server ~from:i batch )
        in
        List.iter
          (fun (dest, m) ->
            check_client t dest;
            if t.batching then t.out_s2c.(dest) <- m :: t.out_s2c.(dest)
            else Transport.send t.to_client.(dest) [ m ])
          outgoing;
        (match t.obs with
        | None -> ()
        | Some os ->
          let transforms = ot_delta os t 0 in
          ignore (meta_delta os t 0);
          Metrics.incr os.c_deliver_s;
          Metrics.add os.c_transforms transforms;
          Metrics.observe os.h_deliver_tr (float_of_int transforms);
          if not t.batching then begin
            Metrics.add os.c_s2c (List.length outgoing);
            List.iter
              (fun (dest, m) ->
                Metrics.observe os.h_batch_size 1.0;
                Metrics.observe os.h_s2c_depth
                  (float_of_int (Transport.pending t.to_client.(dest)));
                Metrics.observe os.h_msg_bytes
                  (float_of_int (bytes_estimate m)))
              outgoing
          end;
          if Obs.tracing os.obs then begin
            Obs.emit os.obs
              (Ev.Deliver
                 {
                   replica = "server";
                   src = rname i;
                   op_id = msg_op_id;
                   transforms;
                   queue = pending_c2s t i;
                   tick = t.clock;
                 });
            Obs.emit os.obs
              (Ev.Apply
                 {
                   replica = "server";
                   op_id = msg_op_id;
                   doc_len = Document.length (P.server_document t.server);
                   tick = t.clock;
                 });
            if not t.batching then
              List.iter
                (fun (dest, m) ->
                  Obs.emit os.obs
                    (Ev.Send
                       {
                         src = "server";
                         dst = rname dest;
                         op_id = id_str (P.s2c_op_id m);
                         bytes = bytes_estimate m;
                         queue = Transport.pending t.to_client.(dest);
                         tick = t.clock;
                       }))
                outgoing
          end);
        record_behavior t Replica_id.Server (P.server_document t.server))
    | Schedule.Deliver_to_client i -> (
      check_client t i;
      if deliverable_s2c t i = 0 then
        invalid_arg
          (Printf.sprintf "Engine: no pending message for client %d" i);
      flush_s2c t i;
      match Transport.deliver t.to_client.(i) with
      | None -> () (* the fault layer / shim consumed the arrival *)
      | Some batch ->
        record_decision t (Recorder.Deliver_to_client i);
        note_gc_ops t (op_count P.s2c_op_id batch);
        let op_id =
          match batch with
          | [ msg ] ->
            P.client_receive t.clients.(i) msg;
            id_str (P.s2c_op_id msg)
          | _ ->
            P.client_receive_batch t.clients.(i) batch;
            batch_key (List.map P.s2c_op_id batch)
        in
        (match t.obs with
        | None -> ()
        | Some os ->
          let transforms = ot_delta os t i in
          ignore (meta_delta os t i);
          Metrics.incr os.c_deliver_c;
          Metrics.add os.c_transforms transforms;
          Metrics.observe os.h_deliver_tr (float_of_int transforms);
          if Obs.tracing os.obs then begin
            Obs.emit os.obs
              (Ev.Deliver
                 {
                   replica = rname i;
                   src = "server";
                   op_id;
                   transforms;
                   queue = pending_s2c t i;
                   tick = t.clock;
                 });
            match op_id with
            | None -> ()  (* pure acknowledgement: nothing was applied *)
            | Some _ ->
              Obs.emit os.obs
                (Ev.Apply
                   {
                     replica = rname i;
                     op_id;
                     doc_len =
                       Document.length (P.client_document t.clients.(i));
                     tick = t.clock;
                   })
          end);
        record_behavior t (Replica_id.Client i)
          (P.client_document t.clients.(i)))

  (* Every simulation event, from any driver, funnels through here;
     the GC trigger check rides on the tail so a cycle can start at
     any point of the execution — which is what "continuous" means. *)
  let apply_event t ev =
    apply_one t ev;
    maybe_gc t

  let run t schedule = List.iter (apply_event t) schedule

  (* Hand-inject a protocol control message (e.g. a Pruned_protocol
     heartbeat) onto client [i]'s client-to-server channel; it is
     delivered by the normal [Deliver_to_server] events / [quiesce]. *)
  let inject_c2s t i m =
    check_client t i;
    if t.batching then t.out_c2s.(i) <- m :: t.out_c2s.(i)
    else Transport.send t.to_server.(i) [ m ]

  let pending_messages t =
    let count = ref 0 in
    for i = 1 to t.nclients do
      count := !count + pending_c2s t i;
      count := !count + pending_s2c t i
    done;
    !count

  let pending_to_server t i =
    check_client t i;
    pending_c2s t i

  let pending_to_client t i =
    check_client t i;
    pending_s2c t i

  (* No channel owes or carries a cumulative ack (the unused index-0
     channels never carry anything). *)
  let acks_settled t =
    Array.for_all Transport.acks_settled t.to_server
    && Array.for_all Transport.acks_settled t.to_client

  (* Deliver everything recoverable, ticking the virtual clock whenever
     the channels are stalled (payloads in flight or awaiting
     retransmission, nothing ready yet).  Client messages first: only
     they can produce new (server) messages.  With the shim and a fault
     model that lets messages through eventually, this terminates with
     probability 1; [quiesce_fuel] bounds the pathological cases.

     Acks are sent and consumed only by [Transport.tick], and the
     delivery loop ticks only when a pass delivers nothing, so a
     fault-free wire can reach quiescence with every ack still owed.
     The senders' retransmission buffers would then never shrink
     across rounds.  So quiescence also ticks until every ack is sent
     and consumed (or dropped by the fault model): at most two ticks,
     as a tick never delivers and so cannot owe a new ack. *)
  let quiesce t =
    let performed = ref [] in
    let step ev =
      apply_event t ev;
      performed := ev :: !performed
    in
    let stalled = ref 0 in
    while pending_messages t > 0 do
      let any = ref false in
      for i = 1 to t.nclients do
        while deliverable_c2s t i > 0 do
          any := true;
          step (Schedule.Deliver_to_server i)
        done
      done;
      for i = 1 to t.nclients do
        while deliverable_s2c t i > 0 do
          any := true;
          step (Schedule.Deliver_to_client i)
        done
      done;
      if !any then stalled := 0
      else begin
        incr stalled;
        if !stalled > quiesce_fuel then
          invalid_arg
            "Engine.quiesce: channels cannot quiesce (total loss, or shim \
             disabled)"
      end;
      if pending_messages t > 0 then tick_channels t
    done;
    while not (acks_settled t) do
      tick_channels t
    done;
    List.rev !performed

  let client_document t i =
    check_client t i;
    P.client_document t.clients.(i)

  let random_intent t rng ~params i =
    let doc_length = Document.length (client_document t i) in
    if Random.State.float rng 1.0 < params.Schedule.read_fraction then
      Intent.Read
    else if
      doc_length > 0
      && Random.State.float rng 1.0 < params.Schedule.delete_fraction
    then Intent.Delete (Random.State.int rng doc_length)
    else
      let value = Char.chr (Char.code 'a' + Random.State.int rng 26) in
      Intent.Insert (value, Random.State.int rng (doc_length + 1))

  let run_random ?intent t ~rng ~params =
    let performed = ref [] in
    let step ev =
      apply_event t ev;
      performed := ev :: !performed
    in
    let deliverable () =
      let evs = ref [] in
      for i = t.nclients downto 1 do
        if deliverable_c2s t i > 0 then
          evs := Schedule.Deliver_to_server i :: !evs;
        if deliverable_s2c t i > 0 then
          evs := Schedule.Deliver_to_client i :: !evs
      done;
      !evs
    in
    let remaining = ref params.Schedule.updates in
    let stalled = ref 0 in
    while !remaining > 0 || pending_messages t > 0 do
      let deliveries = deliverable () in
      let deliver () =
        stalled := 0;
        let n = List.length deliveries in
        step (List.nth deliveries (Random.State.int rng n))
      in
      let generate () =
        let i = 1 + Random.State.int rng t.nclients in
        let intent =
          match intent with
          | None -> random_intent t rng ~params i
          | Some choose ->
            choose ~client:i
              ~doc_length:(Document.length (client_document t i))
        in
        (match intent with
        | Intent.Read -> ()
        | Intent.Insert _ | Intent.Delete _ -> decr remaining);
        step (Schedule.Generate (i, intent))
      in
      (match deliveries, !remaining with
      | [], n when n > 0 -> generate ()
      | [], _ ->
        (* payloads in flight but none ready: let the clock advance
           (below) until a delay expires or a retransmission fires *)
        incr stalled;
        if !stalled > quiesce_fuel then
          invalid_arg
            "Engine.run_random: channels cannot quiesce (total loss, or \
             shim disabled)"
      | _ :: _, 0 -> deliver ()
      | _ :: _, _ ->
        if Random.State.float rng 1.0 < params.Schedule.deliver_bias then
          deliver ()
        else generate ());
      tick_channels t
    done;
    let reads = Schedule.final_reads ~nclients:t.nclients in
    List.iter step reads;
    List.rev !performed

  let server_document t = P.server_document t.server

  let converged t =
    let reference =
      if P.server_is_replica then server_document t else client_document t 1
    in
    let ok = ref true in
    for i = 1 to t.nclients do
      if not (Document.equal reference (client_document t i)) then ok := false
    done;
    !ok

  let trace t =
    Rlist_spec.Trace.make ~initial:t.initial ~events:(List.rev t.events)

  let behavior t = List.rev t.behavior

  let client_ot_count t i =
    check_client t i;
    P.client_ot_count t.clients.(i)

  let server_ot_count t = P.server_ot_count t.server

  let total_ot_count t =
    let sum = ref (server_ot_count t) in
    for i = 1 to t.nclients do
      sum := !sum + client_ot_count t i
    done;
    !sum

  let client_metadata_size t i =
    check_client t i;
    P.client_metadata_size t.clients.(i)

  let server_metadata_size t = P.server_metadata_size t.server

  let total_metadata_size t =
    let sum = ref (server_metadata_size t) in
    for i = 1 to t.nclients do
      sum := !sum + client_metadata_size t i
    done;
    !sum

  let server t = t.server

  let client t i =
    check_client t i;
    t.clients.(i)

  let gc_stats t = Option.map (fun g -> Driver.stats g.g_driver) t.gc

  let gc_last_snapshot t = Option.bind t.gc (fun g -> g.g_last_snapshot)

  let dedup_keys t =
    let sum = ref 0 in
    for i = 1 to t.nclients do
      sum :=
        !sum
        + Transport.dedup_keys t.to_server.(i)
        + Transport.dedup_keys t.to_client.(i)
    done;
    !sum
end
