(** The interface every replicated-list protocol implementation
    (CSS Jupiter, CSCW Jupiter, RGA, the broken dOPT foil) exposes to
    the simulation engine.

    The architecture is the paper's (Section 4.4): one server, [n]
    clients, FIFO channels in both directions.  The server does not
    generate operations; it serializes and propagates them.  To keep
    schedules comparable across protocols (needed for the equivalence
    theorem, Theorem 7.1), every protocol produces exactly one
    server-to-client message per client per update — the message to
    the originating client acts as an acknowledgement. *)

(* Interface-carrier module: this file holds module types only and
   *is* the interface; a duplicated .mli would just drift. *)
[@@@lint.allow "missing-mli"]

open Rlist_model

(** What a [do] event performed, as reported by the client to the
    engine for trace recording. *)
type do_outcome = {
  op : Rlist_spec.Event.operation;
  op_id : Op_id.t option;  (** [None] for reads. *)
}

(** The hooks a protocol exposes to the continuous GC driver
    ([Rlist_gc], wired in by the engines).  Only protocols with an
    ack-driven stable frontier (css-pruned) provide them; everything
    else sets {!PROTOCOL.gc_support} to [None] and a GC-enabled run
    degrades to shim-level pruning only.

    Contract for the engine: the calls are {e out of band} — they
    bypass the transports, so the engine may only invoke
    [gc_heartbeat]+[server_receive] for a client whose c2s channel is
    empty, and may only deliver the resulting [Stable] messages
    directly to clients whose s2c channel is empty.  Under that
    restriction the synchronous exchange is equivalent to appending
    legal deliveries to the schedule (there is nothing in flight to
    overtake), so FIFO and the context invariants are preserved; a
    heartbeat that {e did} overtake an in-flight update could advance
    the stable frontier past that update's context and crash
    compaction.  [test/test_mc.ml] checks the race. *)
type ('client, 'server, 'c2s) gc_support = {
  gc_heartbeat : 'client -> 'c2s;
      (** The client's current acknowledgement, as a c2s message. *)
  gc_client_frontier : 'client -> int;
      (** The serial the client has pruned to. *)
  gc_server_frontier : 'server -> int;
      (** The serial the server has pruned to. *)
  gc_server_lag : 'server -> int;
      (** Serials past the stable frontier — the retained log length.
          The engines do not call it; it stays only because
          perfbench's [Timed] wrapper builds this record by naming
          every field. *)
  gc_snapshot : 'server -> string;
      (** Serialized stable snapshot ([Snapshot.stable_to_string]).
          The engines do not call it; it stays only because
          perfbench's [Timed] wrapper builds this record by naming
          every field. *)
}

module type PROTOCOL = sig
  val name : string

  (** Whether the server holds a document replica of its own.  The
      Jupiter servers and CRDT relays do; a pure sequencer (the
      decoupled CSS variant) does not, and convergence is then judged
      on the clients only. *)
  val server_is_replica : bool

  type client

  type server

  type c2s
  (** Client-to-server message. *)

  type s2c
  (** Server-to-client message. *)

  (** [fastpath] is the engine run's fast-path configuration record
      ({!Rlist_ot.Fastpath}): the engine passes the {e same} record to
      the server and every client, so its counters aggregate per run.
      Protocols without Algorithm 1 ladders (the CRDT baselines, the
      naive foil) ignore it. *)
  val create_client :
    fastpath:Rlist_ot.Fastpath.t ->
    nclients:int ->
    id:int ->
    initial:Document.t ->
    client

  val create_server :
    fastpath:Rlist_ot.Fastpath.t -> nclients:int -> initial:Document.t -> server

  (** Perform a user intent at a client: execute it locally and
      immediately (optimistic replication) and return the message to
      propagate, if any ([Read] produces none).

      @raise Invalid_argument if the intent's position is out of
      bounds for the client's current document. *)
  val client_generate : client -> Intent.t -> do_outcome * c2s option

  (** Process one client message at the server; returns the messages
      to send, in order, as [(destination client, message)] pairs. *)
  val server_receive : server -> from:int -> c2s -> (int * s2c) list

  val client_receive : client -> s2c -> unit

  (** Process a coalesced batch of client messages — consecutive
      messages from the same channel delivered in one flush.  The
      observable outcome must be identical to receiving the messages
      one by one, in order; implementations are free to exploit the
      batch shape (the CSS server walks a contiguous run through
      Algorithm 1's ladder once).  Engines deliver singleton batches
      through {!server_receive}, so implementations may assume
      [List.length >= 2] but must not rely on it. *)
  val server_receive_batch : server -> from:int -> c2s list -> (int * s2c) list

  (** Batch counterpart of {!client_receive}; same contract as
      {!server_receive_batch}. *)
  val client_receive_batch : client -> s2c list -> unit

  (** The identifier of the operation a message carries, for trace
      labelling by the observability layer; [None] for pure
      acknowledgements and control messages. *)
  val c2s_op_id : c2s -> Op_id.t option

  val s2c_op_id : s2c -> Op_id.t option

  val client_document : client -> Document.t

  val server_document : server -> Document.t

  (** Identifiers of the update operations the replica has processed —
      its state in the sense of Definition 4.5, and the visibility set
      of its next do event. *)
  val client_visible : client -> Op_id.Set.t

  val server_visible : server -> Op_id.Set.t

  (** Cumulative number of primitive transformation-function calls
      performed, for the redundant-OT experiment (paper,
      Section 7.2). *)
  val client_ot_count : client -> int

  val server_ot_count : server -> int

  (** An abstract measure of the replica's metadata footprint (number
      of states plus transitions of its state-space(s), or node count
      for CRDTs), for the compactness experiments (Proposition 6.6). *)
  val client_metadata_size : client -> int

  val server_metadata_size : server -> int

  (** Hooks for the continuous compaction driver; [None] when the
      protocol has no ack-driven pruning machinery. *)
  val gc_support : (client, server, c2s) gc_support option
end
