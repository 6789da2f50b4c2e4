(* A protocol that loses one message: the [nth] update that another
   client generated and that reaches client 2 while latency samples are
   being kept (the benchmark's timed phase) is silently discarded, in
   single and batched deliveries alike.  Exactly one message is lost
   until [seen] is reset.  Used as the negative control of the
   correctness gate. *)

let nth = 5

module Make (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  let name = P.name

  let server_is_replica = P.server_is_replica

  type server = P.server

  type c2s = P.c2s

  type s2c = P.s2c

  let create_server = P.create_server

  let server_receive = P.server_receive

  let server_receive_batch = P.server_receive_batch

  let c2s_op_id = P.c2s_op_id

  let s2c_op_id = P.s2c_op_id

  let server_document = P.server_document

  let server_visible = P.server_visible

  let server_ot_count = P.server_ot_count

  let server_metadata_size = P.server_metadata_size

  let seen = ref 0

  (* Client ids are not visible through [P.client]; the wrapper keeps
     them. *)
  type client = { inner : P.client; id : int }

  let create_client ~fastpath ~nclients ~id ~initial =
    { inner = P.create_client ~fastpath ~nclients ~id ~initial; id }

  let lost c m =
    c.id = 2 && !Perfbench.Probe.measuring
    &&
    match P.s2c_op_id m with
    | Some op when op.Rlist_model.Op_id.client <> c.id ->
      incr seen;
      !seen = nth
    | _ -> false

  let client_generate c = P.client_generate c.inner

  let client_receive c m = if not (lost c m) then P.client_receive c.inner m

  let client_receive_batch c batch =
    match List.filter (fun m -> not (lost c m)) batch with
    | [] -> ()
    | [ m ] -> P.client_receive c.inner m
    | kept -> P.client_receive_batch c.inner kept

  let client_document c = P.client_document c.inner

  let client_visible c = P.client_visible c.inner

  let client_ot_count c = P.client_ot_count c.inner

  let client_metadata_size c = P.client_metadata_size c.inner

  let gc_support =
    Option.map
      (fun (s : (P.client, P.server, P.c2s) Rlist_sim.Protocol_intf.gc_support) ->
        {
          s with
          Rlist_sim.Protocol_intf.gc_heartbeat =
            (fun c -> s.gc_heartbeat c.inner);
          gc_client_frontier = (fun c -> s.gc_client_frontier c.inner);
        })
      P.gc_support
end
