(** Long-horizon soak driver: millions of operations through one
    engine, sampled in chunks, to measure whether metadata and per-op
    latency stay flat under the continuous GC ({!Rlist_gc}) or grow
    without bound without it.

    The driver runs window-bounded rounds on one engine.  In each
    round every client generates a fixed number of updates (its
    {e window}) through {!Rlist_sim.Engine.Make.apply_event}, with
    intents from {!Rlist_workload.Workload.intent_generator}; before
    each update it issues a read with the profile's [read_fraction]
    ({!Rlist_workload.Workload.params}).  Then
    {!Rlist_sim.Engine.Make.quiesce} drains every channel and settles
    the acks.  At most [nclients * window] updates are ever
    concurrent, so the transform lattice a round builds, and the
    work per update, do not depend on the horizon.  Convergence and
    the weak list specification hold for every FIFO schedule (paper,
    Section 4.4), so a soak needs bounded concurrency, not a latency
    model.

    The windows are 4 updates per client for [Hotspot] (the profile
    that exists to maximize conflicts), 2 for [Typing] and 1 for the
    rest.  Every round has the same shape, so a round's state space
    has the same size whatever the seed: with 4 clients and
    [css-pruned], 135 nodes at window 1, 445 at 2 and 1,605 at 4.  The
    size grows much faster than the window, and the C18 bench needs
    the unpruned control to peak at 4x the GC-on peak or more.  A
    16-update hotspot window (the benchmark's shape) peaks at about
    23,700 nodes, above the control's 19,500 in the C18 smoke run.

    Rounds run straight through chunk boundaries: [chunk] only sets
    the sampling interval.  The schedule, the digest, the GC
    accounting and the metadata peak depend on the seed and the
    horizon alone.  A sample is
    taken at the end of the round that crosses a multiple of
    [chunk], and after the last round.  The engine runs with
    [history:false] — the spec trace and behaviour list are the only
    engine structures that grow with the horizon regardless of GC, and
    a million-op soak cannot afford them.

    The only wall-clock this module sees is the [now] argument, so the
    library stays clock-free (determinism lint); callers pass
    [Unix.gettimeofday].  All measured numbers (metadata, heap,
    digest, GC accounting) are seed-deterministic; only the latency
    samples vary run to run. *)

type sample = {
  x_ops : int;  (** Cumulative updates applied at this sample. *)
  x_us_per_op : float;
      (** Mean wall µs per update since the previous sample. *)
  x_meta : int;
      (** Peak live protocol metadata over the round ends since the
          previous sample.  A single round end would alias with the
          GC cycles: one that fires just before it sees a pruned
          space, one that fires mid-round sees the round's lattice. *)
  x_heap_words : int;  (** [Stdlib.Gc.quick_stat].heap_words. *)
  x_gc_cycles : int;  (** Cumulative compaction cycles. *)
  x_reclaimed : int;  (** Cumulative reclaimed states + log entries. *)
  x_dedup_keys : int;  (** Live dedup keys across the channel shims. *)
}

type result = {
  l_protocol : string;
  l_profile : Rlist_workload.Workload.profile;
  l_updates : int;
  l_chunk : int;
  l_seed : int;
  l_gc : Rlist_gc.policy option;
  l_samples : sample list;  (** Oldest first, one per chunk. *)
  l_meta_peak : int;
  l_heap_peak : int;
  l_p50_us : float;  (** Median of the chunk means. *)
  l_p99_us : float;  (** 99th percentile of the chunk means. *)
  l_flat_meta : float;
      (** Mean live metadata over the last quarter of chunks divided
          by the mean over the first quarter — ~1 when flat, growing
          with the horizon when unbounded. *)
  l_flat_latency : float;  (** Same ratio for the latency samples. *)
  l_digest : string;
      (** Hex digest of the concatenated final documents — identical
          for GC-on and GC-off runs of the same spec (the
          transparency gate). *)
  l_converged : bool;
  l_gc_stats : Rlist_gc.stats option;
  l_elapsed_s : float;
}

(** [run ~now ~protocol ~profile ~nclients ~updates ~chunk ~seed ()]
    soaks a client/server protocol (same names as
    {!Recorded.protocol_names} minus the peer-to-peer ones).  [gc]
    enables the compaction policy; [faults] (default none) wires the
    fault-injected transport with the reliability shim on.
    @raise Invalid_argument on an unknown or peer-to-peer protocol,
    or non-positive [updates]/[chunk]. *)
val run :
  ?gc:Rlist_gc.policy ->
  ?faults:Rlist_net.Faults.spec ->
  now:(unit -> float) ->
  protocol:string ->
  profile:Rlist_workload.Workload.profile ->
  nclients:int ->
  updates:int ->
  chunk:int ->
  seed:int ->
  unit ->
  result

(** One-object JSON rendering (samples included), for
    [BENCH_longrun.json] and the CLI's [--json]. *)
val result_to_json : result -> string

val pp : Format.formatter -> result -> unit
