open Rlist_model
module Obs = Rlist_obs.Obs
module Metrics = Rlist_obs.Metrics
module Ev = Rlist_obs.Event
module Recorder = Rlist_obs.Recorder
module Transport = Rlist_net.Transport

(* Same stall bound as {!Engine}. *)
let quiesce_fuel = 100_000

(* Schedule-text rendering of an intent, for the flight recorder. *)
let intent_string = function
  | Intent.Insert (c, p) -> Printf.sprintf "ins %c %d" c p
  | Intent.Delete p -> Printf.sprintf "del %d" p
  | Intent.Read -> "read"

type event =
  | Generate of int * Intent.t
  | Deliver of int * int

let pp_event ppf = function
  | Generate (i, intent) -> Format.fprintf ppf "p%d: %a" i Intent.pp intent
  | Deliver (src, dst) -> Format.fprintf ppf "deliver p%d->p%d" src dst

module Make (P : P2p_protocol_intf.P2P_PROTOCOL) = struct
  (* Same delta-snapshot scheme as {!Engine}, but per peer (1-based;
     slot 0 unused). *)
  type obs_state = {
    obs : Obs.t;
    c_updates : Metrics.counter;
    c_reads : Metrics.counter;
    c_broadcast : Metrics.counter;
    c_deliveries : Metrics.counter;
    c_transforms : Metrics.counter;
    h_deliver_tr : Metrics.histogram;
    h_chan_depth : Metrics.histogram;
    h_msg_bytes : Metrics.histogram;
    g_metadata : Metrics.gauge;
    g_buffered : Metrics.gauge;
    last_ot : int array;
    last_meta : int array;
    mutable meta_total : int;
  }

  (* As in {!Engine}, channels carry batches; with batching off every
     payload is a singleton and the behaviour is the unbatched
     engine's. *)
  type t = {
    npeers : int;
    peers : P.peer array;  (* 1-based *)
    channels : (int * P.message) list Transport.t array array;
        (* channels.(src).(dst) *)
    batching : bool;
    outbox : (int * P.message) list array array;  (* reversed *)
    mutable events : Rlist_spec.Event.t list;  (* reversed *)
    mutable next_eid : int;
    initial : Document.t;
    mutable obs : obs_state option;
    net : Transport.config option;
    mutable clock : int;
    mutable recorder : Recorder.t option;
    gc : Rlist_gc.Driver.t option;
        (* Peer-to-peer protocols carry no ack-driven stable frontier
           (no [gc_support] analogue), so a GC policy here drives the
           shim-level dedup-key pruning only — the same out-of-band,
           schedule-transparent discipline as {!Engine}. *)
  }

  let batch_key ids =
    match List.filter_map (Option.map Op_id.to_string) ids with
    | [] -> None
    | keys -> Some (String.concat "+" keys)

  let create ?(initial = Document.empty) ?net ?(batching = false) ?gc
      ?fastpath ~npeers () =
    if npeers < 2 then invalid_arg "P2p_engine.create: need at least two peers";
    let fastpath =
      match fastpath with
      | Some fp -> fp
      | None -> Rlist_ot.Fastpath.create ()
    in
    let key batch =
      batch_key (List.map (fun (_, m) -> P.message_op_id m) batch)
    in
    let channel src dst =
      match net with
      | None -> Transport.perfect ()
      | Some cfg ->
        Transport.create ~key ~weight:List.length
          ~name:(Printf.sprintf "p%d->p%d" src dst)
          cfg
    in
    {
      npeers;
      peers =
        Array.init (npeers + 1) (fun i ->
            P.create_peer ~fastpath ~npeers ~id:(max i 1) ~initial);
      channels =
        Array.init (npeers + 1) (fun src ->
            Array.init (npeers + 1) (fun dst -> channel src dst));
      batching;
      outbox =
        Array.init (npeers + 1) (fun _ -> Array.make (npeers + 1) []);
      events = [];
      next_eid = 0;
      initial;
      obs = None;
      net;
      clock = 0;
      recorder = None;
      gc = Option.map Rlist_gc.Driver.create gc;
    }

  let npeers t = t.npeers

  let record_decision t d =
    match t.recorder with
    | Some r -> Recorder.record r d
    | None -> ()

  let tick_channels t =
    for src = 1 to t.npeers do
      for dst = 1 to t.npeers do
        if src <> dst then Transport.tick t.channels.(src).(dst)
      done
    done;
    t.clock <- t.clock + 1;
    record_decision t (Recorder.Tick t.clock)

  let check_peer t i =
    if i < 1 || i > t.npeers then
      invalid_arg (Printf.sprintf "P2p_engine: peer %d out of range" i)

  (* --- observability ------------------------------------------------- *)

  let pname i = "p" ^ string_of_int i

  let bytes_estimate v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

  let total_buffered t =
    let sum = ref 0 in
    for i = 1 to t.npeers do
      sum := !sum + P.buffered t.peers.(i)
    done;
    !sum

  let attach_obs t obs =
    let m = obs.Obs.metrics in
    let last_ot =
      Array.init (t.npeers + 1) (fun i ->
          if i = 0 then 0 else P.ot_count t.peers.(i))
    in
    let last_meta =
      Array.init (t.npeers + 1) (fun i ->
          if i = 0 then 0 else P.metadata_size t.peers.(i))
    in
    let meta_total = Array.fold_left ( + ) 0 last_meta in
    let os =
      {
        obs;
        c_updates = Metrics.counter m "p2p.updates_generated";
        c_reads = Metrics.counter m "p2p.reads_generated";
        c_broadcast = Metrics.counter m "p2p.msgs_broadcast";
        c_deliveries = Metrics.counter m "p2p.deliveries";
        c_transforms = Metrics.counter m "p2p.transforms";
        h_deliver_tr = Metrics.histogram m "p2p.transforms_per_delivery";
        h_chan_depth = Metrics.histogram m "p2p.channel.depth";
        h_msg_bytes = Metrics.histogram m "p2p.msg_bytes";
        g_metadata = Metrics.gauge m "p2p.metadata_total";
        g_buffered = Metrics.gauge m "p2p.buffered";
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

  let ot_delta os t i =
    let current = P.ot_count t.peers.(i) in
    let delta = current - os.last_ot.(i) in
    os.last_ot.(i) <- current;
    delta

  let meta_delta os t i =
    let current = P.metadata_size t.peers.(i) in
    let delta = current - os.last_meta.(i) in
    os.last_meta.(i) <- current;
    os.meta_total <- os.meta_total + delta;
    Metrics.set_gauge os.g_metadata (float_of_int os.meta_total);
    delta

  let id_str = Option.map Op_id.to_string

  (* Channel occupancy with the unflushed outbox included. *)
  let chan_pending t ~src ~dst =
    Transport.pending t.channels.(src).(dst)
    + List.length t.outbox.(src).(dst)

  let chan_deliverable t ~src ~dst =
    Transport.deliverable t.channels.(src).(dst)
    + (match t.outbox.(src).(dst) with [] -> 0 | _ -> 1)

  (* Bytes of what a serializer would frame: the messages, without the
     engine-internal origin tags; singletons report what the unbatched
     engine did. *)
  let batch_bytes = function
    | [ (_, m) ] -> bytes_estimate m
    | batch -> bytes_estimate (List.map snd batch)

  let flush t ~src ~dst =
    match t.outbox.(src).(dst) with
    | [] -> ()
    | rev -> (
      t.outbox.(src).(dst) <- [];
      let batch = List.rev rev in
      record_decision t
        (Recorder.Flush
           {
             channel = Printf.sprintf "p%d->p%d" src dst;
             ops = List.length batch;
           });
      Transport.send t.channels.(src).(dst) batch;
      match t.obs with
      | None -> ()
      | Some os ->
        Metrics.incr os.c_broadcast;
        Metrics.observe os.h_chan_depth
          (float_of_int (Transport.pending t.channels.(src).(dst)));
        Metrics.observe os.h_msg_bytes (float_of_int (batch_bytes batch));
        if Obs.tracing os.obs then
          Obs.emit os.obs
            (Ev.Send
               {
                 src = pname src;
                 dst = pname dst;
                 op_id =
                   batch_key
                     (List.map (fun (_, m) -> P.message_op_id m) batch);
                 bytes = batch_bytes batch;
                 queue = Transport.pending t.channels.(src).(dst);
                 tick = t.clock;
               }))

  let broadcast t ~from message =
    for dst = 1 to t.npeers do
      if dst <> from then
        if t.batching then
          t.outbox.(from).(dst) <- (from, message) :: t.outbox.(from).(dst)
        else begin
          Transport.send t.channels.(from).(dst) [ from, message ];
          match t.obs with
          | None -> ()
          | Some os ->
            Metrics.incr os.c_broadcast;
            Metrics.observe os.h_chan_depth
              (float_of_int (Transport.pending t.channels.(from).(dst)));
            Metrics.observe os.h_msg_bytes
              (float_of_int (bytes_estimate message));
            if Obs.tracing os.obs then
              Obs.emit os.obs
                (Ev.Send
                   {
                     src = pname from;
                     dst = pname dst;
                     op_id = id_str (P.message_op_id message);
                     bytes = bytes_estimate message;
                     queue = Transport.pending t.channels.(from).(dst);
                     tick = t.clock;
                   })
        end
    done

  let record_do t i (outcome : Protocol_intf.do_outcome) =
    let peer = t.peers.(i) in
    let event =
      Rlist_spec.Event.make ~eid:t.next_eid ~replica:(Replica_id.Client i)
        ~op:outcome.Protocol_intf.op ~op_id:outcome.Protocol_intf.op_id
        ~result:(P.document peer) ~visible:(P.visible peer)
    in
    t.next_eid <- t.next_eid + 1;
    t.events <- event :: t.events

  (* --- continuous GC (shim-level only; see the [gc] field) ---------- *)

  let note_gc_ops t n =
    match t.gc with
    | Some d when n > 0 -> Rlist_gc.Driver.note_ops d n
    | _ -> ()

  let total_metadata_size t =
    let sum = ref 0 in
    for i = 1 to t.npeers do
      sum := !sum + P.metadata_size t.peers.(i)
    done;
    !sum

  let run_gc_cycle t d =
    let meta_before = total_metadata_size t in
    let cycle = Rlist_gc.Driver.begin_cycle d in
    let trigger_s = Rlist_gc.trigger_name (Rlist_gc.Driver.policy d) in
    record_decision t (Recorder.Gc { cycle; trigger = trigger_s });
    let emit ev =
      match t.obs with
      | Some os when Obs.tracing os.obs -> Obs.emit os.obs ev
      | _ -> ()
    in
    emit
      (Ev.Gc_begin
         { cycle; trigger = trigger_s; meta = meta_before; tick = t.clock });
    let retain = (Rlist_gc.Driver.policy d).Rlist_gc.retain_keys in
    let reclaimed_keys = ref 0 in
    for src = 1 to t.npeers do
      for dst = 1 to t.npeers do
        if src <> dst then
          reclaimed_keys :=
            !reclaimed_keys
            + Transport.prune_delivered t.channels.(src).(dst) ~retain
      done
    done;
    let meta_after = total_metadata_size t in
    Rlist_gc.Driver.end_cycle d ~reclaimed_states:0 ~reclaimed_log:0
      ~reclaimed_keys:!reclaimed_keys ~meta:meta_after;
    emit
      (Ev.Gc_end
         {
           cycle;
           reclaimed_states = 0;
           reclaimed_log = 0;
           reclaimed_keys = !reclaimed_keys;
           meta = meta_after;
           skipped = 0;
           tick = t.clock;
         })

  let maybe_gc t =
    match t.gc with
    | Some d when Rlist_gc.Driver.due d -> run_gc_cycle t d
    | _ -> ()

  let apply_one t = function
    | Generate (i, intent) ->
      check_peer t i;
      record_decision t
        (Recorder.Generate { client = i; intent = intent_string intent });
      let outcome, message = P.generate t.peers.(i) intent in
      record_do t i outcome;
      (match outcome.Protocol_intf.op_id with
      | Some _ -> note_gc_ops t 1
      | None -> ());
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
                 replica = pname i;
                 op_id = id_str op_id;
                 intent = intent_kind;
                 queue = 0;
                 tick = t.clock;
               });
          match op_id with
          | None -> ()
          | Some _ ->
            Obs.emit os.obs
              (Ev.Apply
                 {
                   replica = pname i;
                   op_id = id_str op_id;
                   doc_len = Document.length (P.document t.peers.(i));
                   tick = t.clock;
                 })
        end);
      (match message with
      | None -> ()
      | Some m -> broadcast t ~from:i m)
    | Deliver (src, dst) -> (
      check_peer t src;
      check_peer t dst;
      if chan_deliverable t ~src ~dst = 0 then
        invalid_arg
          (Printf.sprintf "P2p_engine: channel p%d->p%d is empty" src dst);
      flush t ~src ~dst;
      match Transport.deliver t.channels.(src).(dst) with
      | None -> () (* the fault layer / shim consumed the arrival *)
      | Some batch ->
        record_decision t (Recorder.Deliver_peer { src; dst });
        note_gc_ops t
          (List.fold_left
             (fun n (_, m) ->
               match P.message_op_id m with Some _ -> n + 1 | None -> n)
             0 batch);
        let op_id, reactions =
          match batch with
          | [ (from, message) ] ->
            ( id_str (P.message_op_id message),
              Option.to_list (P.receive t.peers.(dst) ~from message) )
          | (from, _) :: _ ->
            ( batch_key (List.map (fun (_, m) -> P.message_op_id m) batch),
              P.receive_batch t.peers.(dst) ~from (List.map snd batch) )
          | [] -> None, []
        in
        (match t.obs with
        | None -> ()
        | Some os ->
          let transforms = ot_delta os t dst in
          ignore (meta_delta os t dst);
          Metrics.incr os.c_deliveries;
          Metrics.add os.c_transforms transforms;
          Metrics.observe os.h_deliver_tr (float_of_int transforms);
          Metrics.set_gauge os.g_buffered (float_of_int (total_buffered t));
          if Obs.tracing os.obs then
            Obs.emit os.obs
              (Ev.Deliver
                 {
                   replica = pname dst;
                   src = pname src;
                   op_id;
                   transforms;
                   queue = chan_pending t ~src ~dst;
                   tick = t.clock;
                 }));
        List.iter (fun reaction -> broadcast t ~from:dst reaction) reactions)

  let apply_event t ev =
    apply_one t ev;
    maybe_gc t

  let run t events = List.iter (apply_event t) events

  let pending_messages t =
    let count = ref 0 in
    for src = 1 to t.npeers do
      for dst = 1 to t.npeers do
        if src <> dst then count := !count + chan_pending t ~src ~dst
      done
    done;
    !count

  let channel_depth t ~src ~dst =
    check_peer t src;
    check_peer t dst;
    chan_pending t ~src ~dst

  let quiesce t =
    let performed = ref [] in
    (* Round-robin until no channel holds a message (reactions keep the
       loop going), ticking the clock whenever nothing is ready. *)
    let stalled = ref 0 in
    while pending_messages t > 0 do
      let any = ref false in
      for src = 1 to t.npeers do
        for dst = 1 to t.npeers do
          if src <> dst then
            while chan_deliverable t ~src ~dst > 0 do
              apply_event t (Deliver (src, dst));
              performed := Deliver (src, dst) :: !performed;
              any := true
            done
        done
      done;
      if !any then stalled := 0
      else begin
        incr stalled;
        if !stalled > quiesce_fuel then
          invalid_arg
            "P2p_engine.quiesce: channels cannot quiesce (total loss, or \
             shim disabled)"
      end;
      if pending_messages t > 0 then tick_channels t
    done;
    (* Settle acks, as [Engine.quiesce] does: ticks are the only way
       acks leave and arrive, and the loop above ticks only when
       stalled.  Unused channels (index 0, self-loops) are idle and so
       always settled. *)
    while
      not (Array.for_all (Array.for_all Transport.acks_settled) t.channels)
    do
      tick_channels t
    done;
    List.rev !performed

  let document t i =
    check_peer t i;
    P.document t.peers.(i)

  let converged t =
    let reference = document t 1 in
    let ok = ref true in
    for i = 2 to t.npeers do
      if not (Document.equal reference (document t i)) then ok := false
    done;
    !ok

  let trace t =
    Rlist_spec.Trace.make ~initial:t.initial ~events:(List.rev t.events)

  let total_ot_count t =
    let sum = ref 0 in
    for i = 1 to t.npeers do
      sum := !sum + P.ot_count t.peers.(i)
    done;
    !sum

  let peer t i =
    check_peer t i;
    t.peers.(i)

  let gc_stats t = Option.map Rlist_gc.Driver.stats t.gc

  let random_intent t rng ~params i =
    let doc_length = Document.length (document t i) in
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
      for src = t.npeers downto 1 do
        for dst = t.npeers downto 1 do
          if src <> dst && chan_deliverable t ~src ~dst > 0 then
            evs := Deliver (src, dst) :: !evs
        done
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
        let i = 1 + Random.State.int rng t.npeers in
        let chosen =
          match intent with
          | None -> random_intent t rng ~params i
          | Some choose ->
            choose ~client:i ~doc_length:(Document.length (document t i))
        in
        (match chosen with
        | Intent.Read -> ()
        | Intent.Insert _ | Intent.Delete _ -> decr remaining);
        step (Generate (i, chosen))
      in
      (match deliveries, !remaining with
      | [], n when n > 0 -> generate ()
      | [], _ ->
        incr stalled;
        if !stalled > quiesce_fuel then
          invalid_arg
            "P2p_engine.run_random: channels cannot quiesce (total loss, \
             or shim disabled)"
      | _ :: _, 0 -> deliver ()
      | _ :: _, _ ->
        if Random.State.float rng 1.0 < params.Schedule.deliver_bias then
          deliver ()
        else generate ());
      tick_channels t
    done;
    List.iter
      (fun i -> step (Generate (i, Intent.Read)))
      (List.init t.npeers (fun i -> i + 1));
    List.rev !performed
end
