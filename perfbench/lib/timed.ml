(* A [PROTOCOL]-conforming timing wrapper: the benchmark hands
   [Make (P)] to [Rlist_sim.Engine.Make] in place of [P], so it sees
   every call the engine makes into the protocol without any change to
   the protocol or the engine.

   Always on: [client_generate] is timed (local-echo latency), and
   every update a receive call applies is reported to
   {!Probe.applied} (edit-to-converge latency).  With {!Probe.tracing}
   set, every call also opens a span of its layer: [core] for protocol
   work on updates, [gc] for the [gc_support] hooks, the heartbeat and
   stable-notification exchange (messages without an operation id) and
   the metadata-size probes the engine's GC trigger makes.

   Messages and replicas are passed through unchanged, so a wrapped
   engine computes exactly what the bare one does; the test suite
   checks this on every workload. *)

module Make (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  let name = P.name

  let server_is_replica = P.server_is_replica

  type client = { inner : P.client; id : int }

  type server = P.server

  type c2s = P.c2s

  type s2c = P.s2c

  let create_client ~fastpath ~nclients ~id ~initial =
    Probe.enter Probe.Create;
    let inner = P.create_client ~fastpath ~nclients ~id ~initial in
    Probe.leave ();
    { inner; id }

  let create_server ~fastpath ~nclients ~initial =
    Probe.enter Probe.Create;
    let s = P.create_server ~fastpath ~nclients ~initial in
    Probe.leave ();
    s

  let client_generate c intent =
    let start = Probe.now_ns () in
    if !Probe.tracing then Probe.enter_at Probe.Local start;
    let ((outcome : Rlist_sim.Protocol_intf.do_outcome), _) as r =
      P.client_generate c.inner intent
    in
    let stop = Probe.now_ns () in
    if !Probe.tracing then Probe.leave_at stop;
    (match outcome.op_id with
    | Some id -> Probe.generated id ~start ~stop
    | None -> ());
    r

  (* Per-call cost of the server's receive path, divided by the
     updates in the call ([core.server_op_p99_us]); kept for traced
     sessions only. *)
  let server_op_ns = Probe.Samples.create ()

  let count_ops op_id_of batch =
    List.fold_left
      (fun n m -> match op_id_of m with Some _ -> n + 1 | None -> n)
      0 batch

  (* Updates applied through receive calls, and the calls that applied
     them ([core.ops_per_batch]). *)
  let receive_calls = ref 0

  let received_ops = ref 0

  let server_call ~ops f =
    let kind = if ops = 0 then Probe.Exchange else Probe.Server in
    let start = Probe.now_ns () in
    if !Probe.tracing then Probe.enter_at kind start;
    let out = f () in
    let stop = Probe.now_ns () in
    if !Probe.tracing then begin
      Probe.leave_at stop;
      if ops > 0 then Probe.Samples.push server_op_ns ((stop - start) / ops)
    end;
    if ops > 0 then begin
      incr receive_calls;
      received_ops := !received_ops + ops
    end;
    out, stop

  let server_receive s ~from msg =
    let ops = count_ops P.c2s_op_id [ msg ] in
    let out, stop = server_call ~ops (fun () -> P.server_receive s ~from msg) in
    (match P.c2s_op_id msg with
    | Some id -> Probe.applied id ~now:stop
    | None -> ());
    out

  let server_receive_batch s ~from batch =
    let ops = count_ops P.c2s_op_id batch in
    let out, stop =
      server_call ~ops (fun () -> P.server_receive_batch s ~from batch)
    in
    List.iter
      (fun m ->
        match P.c2s_op_id m with
        | Some id -> Probe.applied id ~now:stop
        | None -> ())
      batch;
    out

  (* Operations a client applies: everything with an id except its own
     updates coming back as acknowledgements. *)
  let foreign c m =
    match P.s2c_op_id m with
    | Some id when id.Rlist_model.Op_id.client <> c.id -> Some id
    | _ -> None

  let client_call c batch f =
    let ops = count_ops P.s2c_op_id batch in
    let kind = if ops = 0 then Probe.Exchange else Probe.Remote in
    if !Probe.tracing then Probe.enter kind;
    f ();
    let stop = Probe.now_ns () in
    if !Probe.tracing then Probe.leave_at stop;
    if ops > 0 then begin
      incr receive_calls;
      received_ops := !received_ops + ops
    end;
    List.iter
      (fun m ->
        match foreign c m with
        | Some id -> Probe.applied id ~now:stop
        | None -> ())
      batch

  let client_receive c msg =
    client_call c [ msg ] (fun () -> P.client_receive c.inner msg)

  let client_receive_batch c batch =
    client_call c batch (fun () -> P.client_receive_batch c.inner batch)

  let c2s_op_id = P.c2s_op_id

  let s2c_op_id = P.s2c_op_id

  let client_document c = P.client_document c.inner

  let server_document = P.server_document

  let client_visible c = P.client_visible c.inner

  let server_visible = P.server_visible

  let client_ot_count c = P.client_ot_count c.inner

  let server_ot_count = P.server_ot_count

  let client_metadata_size c =
    Probe.span Probe.Meta P.client_metadata_size c.inner

  let server_metadata_size s = Probe.span Probe.Meta P.server_metadata_size s

  let hook f x = Probe.span Probe.Hook f x

  let gc_support =
    Option.map
      (fun (s : (P.client, P.server, P.c2s) Rlist_sim.Protocol_intf.gc_support) ->
        {
          Rlist_sim.Protocol_intf.gc_heartbeat =
            (fun c -> hook s.gc_heartbeat c.inner);
          gc_client_frontier = (fun c -> hook s.gc_client_frontier c.inner);
          gc_server_frontier = hook s.gc_server_frontier;
          gc_server_lag = hook s.gc_server_lag;
          gc_snapshot = hook s.gc_snapshot;
        })
      P.gc_support
end
