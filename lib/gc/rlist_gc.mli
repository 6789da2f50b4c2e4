(** Continuous metadata garbage collection: the compaction policy and
    the per-run driver bookkeeping.

    The paper names metadata overhead as Jupiter's open problem: the
    n-ary ordered state space, the server's serialization log, and the
    reliability shim's dedup tables all grow without bound over an
    unbounded execution.  The pieces that bound each of them exist —
    [Pruned_protocol] rebases the space onto the acked-stable frontier
    with [State_space.compact], and the shim ack-prunes its
    retransmission buffer — but a *discipline* has to decide when to
    run them.  This module is that discipline: a declarative {!policy}
    (an op cadence and how much dedup history to retain) and a
    {!Driver} that owns the cadence counter and the reclaimed-metadata
    counters.

    The module is deliberately dependency-free: the engines in
    [lib/sim] consume it, the CLI parses it, and recording headers
    round-trip it through {!to_string}/{!of_string}, so it must sit
    below all of them.

    Determinism contract: a GC cycle is driven entirely by the count of
    applied operations — never by wall-clock time or randomness — and
    the engines run cycles *out of band* (direct protocol calls on
    empty channels, no transport sends, no RNG draws).  Two runs of the
    same seed with GC on and off therefore produce bit-identical
    schedules, behaviours, and final documents; the GC-on run just
    carries less metadata.  [test/test_gc.ml] holds this differentially
    over several hundred seeded workloads. *)

type policy = {
  every_ops : int;
      (** start a cycle after every [n] list operations applied
          anywhere in the system (generates and op-bearing deliveries
          both count) *)
  retain_keys : int;
      (** how many most-recently-delivered dedup keys each shim
          receiver keeps when pruning; the window must cover the
          checkpoint lag (a restored receiver replays keys from its
          last checkpoint) *)
}

val default : policy
(** [every_ops = 64], [retain_keys = 64]. *)

val trigger_name : policy -> string
(** ["ops=64"]: the cadence as recorded in [Gc] decisions and
    [gc_begin] events. *)

val to_string : policy -> string
(** Canonical comma-separated form, e.g. ["ops=64,retain=64"].
    Round-trips through {!of_string}; recording headers store this. *)

val of_string : string -> (policy, string) result
(** Parse ["ops=N" | "retain=N"] comma-separated, any order, each at
    most once; [ops=] is required and [retain=] defaults to
    {!default}'s.  ["default"] is accepted as a synonym for
    {!default}.  The removed keys [meta], [lag] and [snap] (found in
    older recording headers) are rejected with an error that names
    them. *)

val pp : Format.formatter -> policy -> unit

(** Cumulative per-run GC accounting.  None of these feed verdicts,
    digests, or recorded decisions — the GC-on/GC-off digest-equality
    gate depends on that. *)
type stats = {
  cycles : int;
  reclaimed_states : int;  (** state-space nodes freed by compaction *)
  reclaimed_log : int;  (** serialization-log (WAL) entries truncated *)
  reclaimed_keys : int;  (** shim dedup keys pruned *)
  heartbeats : int;  (** out-of-band heartbeats injected *)
  skipped_heartbeats : int;
      (** clients whose c2s channel was busy — their ack rides the
          next in-band update instead *)
  stables_delivered : int;
  skipped_stables : int;
      (** clients whose s2c channel was busy — their prune lags until
          a later cycle *)
  meta_peak : int;  (** high-water mark of live metadata seen at cycles *)
}

val stats_fields : stats -> (string * int) list
(** Stable field-name/value pairs, for JSON rendering and reports. *)

(** The mutable per-run cadence state and counters.  One driver per
    engine; the engine consults {!Driver.due} after every applied
    event and brackets each cycle with {!Driver.begin_cycle} /
    {!Driver.end_cycle}. *)
module Driver : sig
  type t

  val create : policy -> t
  val policy : t -> policy

  val note_ops : t -> int -> unit
  (** Count [n] list operations toward the cadence. *)

  val due : t -> bool
  (** Whether [every_ops] operations have been applied since the last
      cycle began (and no cycle is running).  A pure function of the
      op count: no clock, no RNG, no metadata probes. *)

  val begin_cycle : t -> int
  (** Start a cycle; returns its 1-based index and resets the op
      counter. *)

  val note_heartbeat : t -> unit
  val note_skipped_heartbeat : t -> unit
  val note_stable : t -> unit
  val note_skipped_stable : t -> unit

  val end_cycle :
    t ->
    reclaimed_states:int ->
    reclaimed_log:int ->
    reclaimed_keys:int ->
    meta:int ->
    unit

  val stats : t -> stats
end
