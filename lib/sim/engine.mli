(** The simulation engine: drives a protocol through a schedule.

    The engine owns the FIFO channels (one per direction per client,
    Section 4.4), records the trace of do events for the specification
    checkers, and records each replica's behaviour — the sequence of
    list states it goes through (Definition 2.5) — for the equivalence
    theorem tests. *)

open Rlist_model

module Make (P : Protocol_intf.PROTOCOL) : sig
  type t

  (** [net], when given, replaces the perfect FIFO queues with
      fault-injected channels drawn from that network configuration
      (all channels share its RNG and statistics).  With the
      configuration's reliability shim enabled the engine still
      presents the protocols with the FIFO-exactly-once channels they
      assume; with it disabled, whatever the fault model does reaches
      the protocol unfiltered.

      [batching] (default [false]) coalesces consecutive sends towards
      a channel into one batch message: outgoing operations accumulate
      in a per-channel outbox and enter the transport — one sequence
      number, one retransmission unit — only when a delivery event
      targets that channel.  Multi-operation batches are handed to the
      protocol's [server_receive_batch]/[client_receive_batch];
      singletons take the ordinary one-message path, so a
      non-coalescing run is identical to the unbatched engine.  FIFO
      order is preserved because the outbox drains entirely, in send
      order, before the payload behind it is delivered.

      [gc], when given, runs the continuous compaction discipline:
      every [every_ops] applied operations, one cycle runs — an
      out-of-band heartbeat exchange on the empty channels (protocols
      with [Protocol_intf.gc_support]; others degrade to shim-level
      pruning) and dedup-key pruning in the reliability shim.  Between
      cycles the engine only counts operations: metadata sizes are
      read when a cycle starts and ends.  Cycles consume no transport
      sends, no sequence numbers, no RNG draws, and no behavior
      entries, so a GC-on run is schedule- and behavior-identical to
      the same seed with GC off — it just retains less metadata.
      Cycle boundaries land in the flight recorder and (as
      [gc_begin]/[gc_end] events) in the trace.

      [history] (default [true]): retain the spec-event trace and the
      behavior list.  These are the engine's only structures that grow
      with the horizon regardless of GC, so unbounded soaks switch
      them off; {!trace} and {!behavior} then return empty. *)
  val create :
    ?initial:Document.t ->
    ?net:Rlist_net.Transport.config ->
    ?batching:bool ->
    ?gc:Rlist_gc.policy ->
    ?history:bool ->
    ?fastpath:Rlist_ot.Fastpath.t ->
    nclients:int ->
    unit ->
    t

  val nclients : t -> int

  (** Apply one schedule event.
      @raise Invalid_argument on a delivery from an empty channel or an
      out-of-bounds intent. *)
  val apply_event : t -> Schedule.event -> unit

  val run : t -> Schedule.t -> unit

  (** Enqueue a protocol control message (e.g. a {!Pruned_protocol}
      heartbeat) on client [i]'s client-to-server channel, outside any
      generate event.  It flows through the normal channel (faults,
      shim and all) and is consumed by [Deliver_to_server] /
      {!quiesce}. *)
  val inject_c2s : t -> int -> P.c2s -> unit

  (** Drive the engine through a random but valid interleaving of
      generations and deliveries, then quiesce and issue one final read
      per client.  Deterministic in the given RNG state.  Returns the
      concrete schedule performed, ready to be replayed verbatim
      against another protocol.

      [intent], when given, chooses each generated intent (it must be
      valid for the given document length) — this is how the workload
      profiles plug in; by default intents are drawn uniformly
      following [params]. *)
  val run_random :
    ?intent:(client:int -> doc_length:int -> Intent.t) ->
    t ->
    rng:Random.State.t ->
    params:Schedule.random_params ->
    Schedule.t

  (** Deliver every pending message (client-to-server first, then
      server-to-client, round-robin) until all channels are empty,
      advancing the network clock whenever nothing is ready so delayed
      payloads arrive and lost ones are retransmitted.  Then settle the
      acks: tick until no channel owes or carries a cumulative ack (at
      most two ticks), so on a wire that lost no ack every sender's
      retransmission buffer is empty again.  Without this, rounds of
      generate-then-quiesce would never free those buffers, since the
      delivery loop ticks only when stalled.  Returns the delivery
      events performed, so the completed schedule can be replayed
      against another protocol.
      @raise Invalid_argument when the channels cannot quiesce (total
      loss, or a lossy network with the shim disabled). *)
  val quiesce : t -> Schedule.event list

  val pending_messages : t -> int

  (** Depth of one FIFO channel in {e operations} (unflushed outbox
      included), for enumerating the enabled delivery events of a
      configuration (the model checker's frontier). *)
  val pending_to_server : t -> int -> int

  val pending_to_client : t -> int -> int

  val client_document : t -> int -> Document.t

  val server_document : t -> Document.t

  (** All replicas (server included) hold equal documents. *)
  val converged : t -> bool

  (** The recorded trace of do events, for specification checking. *)
  val trace : t -> Rlist_spec.Trace.t

  (** The concatenated behaviours: after each processed event, which
      replica changed and its document.  Two protocols are equivalent
      under a schedule iff these sequences agree (Theorem 7.1). *)
  val behavior : t -> (Replica_id.t * Document.t) list

  val total_ot_count : t -> int

  val client_ot_count : t -> int -> int

  val server_ot_count : t -> int

  val total_metadata_size : t -> int

  val client_metadata_size : t -> int -> int

  val server_metadata_size : t -> int

  (** Direct access for protocol-specific inspection (rendering state
      spaces, structural lemma checks). *)
  val server : t -> P.server

  val client : t -> int -> P.client

  (** Cumulative GC accounting; [None] when the engine was created
      without a policy. *)
  val gc_stats : t -> Rlist_gc.stats option

  (** Total dedup-key population across all channel shims — the
      metadata the GC's shim-pruning step bounds. *)
  val dedup_keys : t -> int

  (** Attach an observability context: from now on the engine feeds
      counters and histograms into [obs]'s metrics registry and, when
      the sink is enabled, emits one structured event per generate /
      send / deliver / apply.  Transform counts are reported as deltas
      of the protocol's cumulative OT counters, so they attribute each
      primitive transformation to the delivery that caused it.  An
      engine without an attached context pays a single [None] branch
      per event. *)
  val attach_obs : t -> Rlist_obs.Obs.t -> unit

  val obs : t -> Rlist_obs.Obs.t option

  (** Attach a flight recorder: every nondeterministic decision the
      run makes from now on — generated intents, delivery order, batch
      flush boundaries, the tick schedule, and (through the network
      configuration, when one was given) every fault draw the wire
      takes — is recorded as a replay witness.  Costs one [None]
      branch per decision when detached. *)
  val attach_recorder : t -> Rlist_obs.Recorder.t -> unit

  (** The engine's virtual clock: how many times the channels have
      been ticked.  Mirrors [Transport.now] of every channel; trace
      events are stamped with it. *)
  val clock : t -> int
end
