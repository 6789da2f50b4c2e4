(* One directed channel.  [Perfect] is the seed repository's FIFO
   queue, bit-for-bit.  [Lossy] stamps every payload with a per-channel
   sequence number, pushes it through the fault model onto a virtual
   wire (a list sorted by arrival time), and — when the shim is on —
   runs a retransmission/resequencing protocol that restores the
   FIFO-exactly-once contract the Jupiter protocols assume
   (Section 4.4 of the paper; DESIGN.md section 9 has the argument). *)

type config = {
  faults : Faults.spec;
  shim : bool;
  rto : int;
  rng : Random.State.t;
  stats : Stats.t;
  mutable obs : Rlist_obs.Obs.t option;
  mutable recorder : Rlist_obs.Recorder.t option;
}

let config ?(shim = true) ?(rto = 12) ~faults ~seed () =
  if rto < 1 then invalid_arg "Transport.config: rto must be >= 1";
  (match Faults.validate faults with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Transport.config: " ^ msg));
  {
    faults;
    shim;
    rto;
    rng = Random.State.make [| seed; 0x4E37 |];
    stats = Stats.create ();
    obs = None;
    recorder = None;
  }

let stats cfg = cfg.stats

let set_obs cfg obs = cfg.obs <- obs

let set_recorder cfg recorder = cfg.recorder <- recorder

type 'a wire_item = {
  w_seq : int;
  w_payload : 'a;
  w_ready : int;  (* earliest tick the item can be delivered *)
  w_birth : int;  (* tie-break: wire insertion order *)
}

type 'a inflight = {
  i_seq : int;
  i_payload : 'a;
  mutable i_last_sent : int;
  mutable i_attempts : int;
}

type 'a lossy = {
  cfg : config;
  name : string;  (* channel label for wire trace events *)
  key : 'a -> string option;
  weight : 'a -> int;  (* operations carried by a payload *)
  mutable now : int;
  mutable births : int;
  mutable wire : 'a wire_item list;  (* sorted by (w_ready, w_birth) *)
  mutable ack_wire : (int * int) list;  (* (ready tick, cumulative seq) *)
  mutable next_seq : int;  (* sender: next sequence number to assign *)
  mutable unacked : 'a inflight list;  (* sender retransmit buffer, by seq *)
  mutable expected : int;  (* receiver: next seq to hand to the app *)
  mutable resequencer : (int * 'a) list;  (* receiver buffer, by seq *)
  mutable ack_pending : bool;
  seen_keys : (string, unit) Hashtbl.t;
  seen_order : (int * string) Queue.t;
      (* the same keys in delivery (seq) order, so the GC driver can
         prune the oldest without iterating the hash table *)
  mutable was_down : bool;
}

type 'a t = Perfect of 'a Queue.t | Lossy of 'a lossy

let perfect () = Perfect (Queue.create ())

let no_key _ = None

let create ?(key = no_key) ?(weight = fun _ -> 1) ?(name = "wire") cfg =
  Lossy
    {
      cfg;
      name;
      key;
      weight;
      now = 0;
      births = 0;
      wire = [];
      ack_wire = [];
      next_seq = 1;
      unacked = [];
      expected = 1;
      resequencer = [];
      ack_pending = false;
      seen_keys = Hashtbl.create 64;
      seen_order = Queue.create ();
      was_down = false;
    }

let is_lossy = function Perfect _ -> false | Lossy _ -> true

let down l = Faults.down_at l.cfg.faults ~tick:l.now

let roll l p = p > 0.0 && Random.State.float l.cfg.rng 1.0 < p

(* Wire-level observability: trace anomalies the fault model or the
   shim produces (drops, duplicates, jitter, retransmissions, acks) so
   a span analyzer can reconstruct an op's transit, and record the
   corresponding decision in the flight recorder.  Both are single
   [None]-branch no-ops when detached. *)
let emit_wire l ~action ~wseq ~info =
  match l.cfg.obs with
  | Some obs when Rlist_obs.Obs.tracing obs ->
    Rlist_obs.Obs.emit obs
      (Rlist_obs.Event.Wire { channel = l.name; action; wseq; info; tick = l.now })
  | _ -> ()

let record_decision l d =
  match l.cfg.recorder with
  | Some r -> Rlist_obs.Recorder.record r d
  | None -> ()

let wire_insert l item =
  let rec go = function
    | [] -> [ item ]
    | x :: rest ->
      if
        item.w_ready < x.w_ready
        || (item.w_ready = x.w_ready && item.w_birth < x.w_birth)
      then item :: x :: rest
      else x :: go rest
  in
  l.wire <- go l.wire

(* Push one copy of (seq, payload) through the fault model.  May drop
   it, jitter its arrival time, or enqueue an extra copy. *)
let transmit l seq payload =
  let s = l.cfg.stats in
  s.Stats.transmissions <- s.Stats.transmissions + 1;
  s.Stats.op_transmissions <- s.Stats.op_transmissions + l.weight payload;
  if down l then begin
    s.Stats.partition_drops <- s.Stats.partition_drops + 1;
    emit_wire l ~action:"partition_drop" ~wseq:seq ~info:0;
    record_decision l
      (Rlist_obs.Recorder.Transmit
         { channel = l.name; seq; outcome = Rlist_obs.Recorder.Partition_dropped })
  end
  else if roll l l.cfg.faults.Faults.drop then begin
    s.Stats.dropped <- s.Stats.dropped + 1;
    emit_wire l ~action:"drop" ~wseq:seq ~info:0;
    record_decision l
      (Rlist_obs.Recorder.Transmit
         { channel = l.name; seq; outcome = Rlist_obs.Recorder.Dropped })
  end
  else begin
    let enqueue () =
      let jitter =
        if roll l l.cfg.faults.Faults.reorder then begin
          s.Stats.reordered <- s.Stats.reordered + 1;
          1 + Random.State.int l.cfg.rng l.cfg.faults.Faults.delay
        end
        else 0
      in
      let item =
        { w_seq = seq; w_payload = payload; w_ready = l.now + jitter;
          w_birth = l.births }
      in
      l.births <- l.births + 1;
      wire_insert l item;
      jitter
    in
    let jitter = enqueue () in
    if jitter > 0 then emit_wire l ~action:"delay" ~wseq:seq ~info:jitter;
    record_decision l
      (Rlist_obs.Recorder.Transmit
         {
           channel = l.name;
           seq;
           outcome =
             (if jitter > 0 then Rlist_obs.Recorder.Delayed jitter
              else Rlist_obs.Recorder.Sent);
         });
    if roll l l.cfg.faults.Faults.duplicate then begin
      s.Stats.duplicated <- s.Stats.duplicated + 1;
      let jitter = enqueue () in
      emit_wire l ~action:"dup" ~wseq:seq ~info:jitter;
      record_decision l
        (Rlist_obs.Recorder.Transmit
           { channel = l.name; seq; outcome = Rlist_obs.Recorder.Duplicated })
    end
  end

let send t payload =
  match t with
  | Perfect q -> Queue.push payload q
  | Lossy l ->
    let s = l.cfg.stats in
    s.Stats.payloads <- s.Stats.payloads + 1;
    s.Stats.op_payloads <- s.Stats.op_payloads + l.weight payload;
    let seq = l.next_seq in
    l.next_seq <- seq + 1;
    if l.cfg.shim then
      l.unacked <-
        l.unacked
        @ [ { i_seq = seq; i_payload = payload; i_last_sent = l.now;
              i_attempts = 1 } ];
    transmit l seq payload

(* Length of the contiguous run of buffered sequence numbers starting
   at [expected] — deliverable without any wire arrival. *)
let resequencer_run l =
  let rec go n expected = function
    | (seq, _) :: rest when seq = expected -> go (n + 1) (expected + 1) rest
    | _ -> n
  in
  go 0 l.expected l.resequencer

let ready_count l =
  List.fold_left
    (fun n item -> if item.w_ready <= l.now then n + 1 else n)
    0 l.wire

let deliverable = function
  | Perfect q -> Queue.length q
  | Lossy l -> ready_count l + resequencer_run l

(* Application payloads sent but not yet delivered.  With the shim
   every one of them is still recoverable (retransmission), so this is
   exactly [next_seq - expected]; without the shim only what is
   physically on the wire can still arrive. *)
let pending = function
  | Perfect q -> Queue.length q
  | Lossy l ->
    if l.cfg.shim then l.next_seq - l.expected else List.length l.wire

(* Pop the first wire item that is ready at the current tick. *)
let pop_ready l =
  let rec go = function
    | [] -> None, []
    | item :: rest when item.w_ready <= l.now -> Some item, rest
    | item :: rest ->
      let found, remaining = go rest in
      found, item :: remaining
  in
  (* The wire is sorted by readiness, so only the head can be ready —
     but keep the scan robust to future ordering tweaks. *)
  let found, remaining = go l.wire in
  (match found with Some _ -> l.wire <- remaining | None -> ());
  found

let accept_app l ~seq payload =
  let s = l.cfg.stats in
  match l.key payload with
  | Some k when Hashtbl.mem l.seen_keys k ->
    (* Belt-and-braces guard: the payload's operation identifier was
       already delivered on this channel (possible after a reconnect
       with rolled-back sequence numbers). *)
    s.Stats.opid_dup_dropped <- s.Stats.opid_dup_dropped + 1;
    None
  | key ->
    (match key with
    | Some k ->
      Hashtbl.replace l.seen_keys k ();
      Queue.push (seq, k) l.seen_order
    | None -> ());
    s.Stats.delivered <- s.Stats.delivered + 1;
    Some payload

let deliver t =
  match t with
  | Perfect q -> Queue.take_opt q
  | Lossy l ->
    let s = l.cfg.stats in
    if l.cfg.shim then begin
      match l.resequencer with
      | (seq, payload) :: rest when seq = l.expected ->
        l.resequencer <- rest;
        l.expected <- l.expected + 1;
        l.ack_pending <- true;
        accept_app l ~seq payload
      | _ -> (
        match pop_ready l with
        | None -> None
        | Some item ->
          if item.w_seq < l.expected then begin
            (* Already delivered: suppress, but re-acknowledge so a
               lost ack cannot retransmit forever. *)
            s.Stats.dup_dropped <- s.Stats.dup_dropped + 1;
            emit_wire l ~action:"dup_drop" ~wseq:item.w_seq ~info:0;
            l.ack_pending <- true;
            None
          end
          else if item.w_seq > l.expected then begin
            if List.mem_assoc item.w_seq l.resequencer then begin
              s.Stats.dup_dropped <- s.Stats.dup_dropped + 1;
              emit_wire l ~action:"dup_drop" ~wseq:item.w_seq ~info:0
            end
            else begin
              s.Stats.out_of_order <- s.Stats.out_of_order + 1;
              emit_wire l ~action:"ooo" ~wseq:item.w_seq ~info:0;
              let rec insert = function
                | [] -> [ item.w_seq, item.w_payload ]
                | (seq, _) :: _ as all when item.w_seq < seq ->
                  (item.w_seq, item.w_payload) :: all
                | x :: rest -> x :: insert rest
              in
              l.resequencer <- insert l.resequencer
            end;
            None
          end
          else begin
            l.expected <- l.expected + 1;
            l.ack_pending <- true;
            accept_app l ~seq:item.w_seq item.w_payload
          end)
    end
    else begin
      (* Raw unreliable channel: hand over whatever arrives, but keep
         score of how far it strays from FIFO-exactly-once. *)
      match pop_ready l with
      | None -> None
      | Some item ->
        if item.w_seq <> l.expected then
          s.Stats.contract_violations <- s.Stats.contract_violations + 1;
        l.expected <- max l.expected (item.w_seq + 1);
        s.Stats.delivered <- s.Stats.delivered + 1;
        Some item.w_payload
    end

(* Retransmission backs off exponentially (capped) so a long partition
   does not flood the wire the moment it heals. *)
let timeout cfg attempts =
  cfg.rto * (1 lsl min (attempts - 1) 4)

let tick t =
  match t with
  | Perfect _ -> ()
  | Lossy l ->
    let s = l.cfg.stats in
    l.now <- l.now + 1;
    s.Stats.ticks <- s.Stats.ticks + 1;
    let d = down l in
    if l.was_down && not d then
      s.Stats.partitions_healed <- s.Stats.partitions_healed + 1;
    l.was_down <- d;
    (* 1. Consume acknowledgements that have arrived back at the
       sender; they are cumulative, so only the maximum matters. *)
    let ready, in_flight =
      List.partition (fun (ready, _) -> ready <= l.now) l.ack_wire
    in
    l.ack_wire <- in_flight;
    (match ready with
    | [] -> ()
    | _ :: _ ->
      let acked = List.fold_left (fun acc (_, a) -> max acc a) 0 ready in
      l.unacked <- List.filter (fun i -> i.i_seq > acked) l.unacked);
    (* 2. Flush the receiver's pending cumulative ack through the same
       fault model (acks travel the reverse link). *)
    if l.ack_pending then begin
      l.ack_pending <- false;
      let cum = l.expected - 1 in
      if d || roll l l.cfg.faults.Faults.drop then begin
        s.Stats.acks_dropped <- s.Stats.acks_dropped + 1;
        emit_wire l ~action:"ack_drop" ~wseq:cum ~info:0;
        record_decision l
          (Rlist_obs.Recorder.Ack { channel = l.name; seq = cum; dropped = true })
      end
      else begin
        s.Stats.acks_sent <- s.Stats.acks_sent + 1;
        emit_wire l ~action:"ack" ~wseq:cum ~info:0;
        record_decision l
          (Rlist_obs.Recorder.Ack { channel = l.name; seq = cum; dropped = false });
        l.ack_wire <- l.ack_wire @ [ l.now + 1, cum ]
      end
    end;
    (* 3. Retransmit whatever timed out.  The timer models an ideal
       RTT estimator rather than a fixed TCP-style clock: a payload
       still physically in flight (neither dropped nor delivered) is
       never retransmitted, because the virtual wire also absorbs the
       engine scheduler's choice latency, which a fixed timeout would
       misread as loss. *)
    let on_wire seq = List.exists (fun w -> w.w_seq = seq) l.wire in
    List.iter
      (fun i ->
        if
          l.now - i.i_last_sent >= timeout l.cfg i.i_attempts
          && not (on_wire i.i_seq)
        then begin
          i.i_last_sent <- l.now;
          i.i_attempts <- i.i_attempts + 1;
          s.Stats.retransmits <- s.Stats.retransmits + 1;
          emit_wire l ~action:"retransmit" ~wseq:i.i_seq ~info:i.i_attempts;
          record_decision l
            (Rlist_obs.Recorder.Retransmit
               { channel = l.name; seq = i.i_seq; attempts = i.i_attempts });
          transmit l i.i_seq i.i_payload
        end)
      l.unacked

let acks_settled = function
  | Perfect _ -> true
  | Lossy l -> (not l.ack_pending) && List.is_empty l.ack_wire

let now = function Perfect _ -> 0 | Lossy l -> l.now

(* Drop dedup keys for payloads delivered more than [retain] sequence
   numbers ago.  In an uninterrupted session the sequence check alone
   suppresses duplicates (a key is only ever sent under one seqno, and
   retransmits reuse it), so the keys exist for the reconnect path: a
   restored receiver replays the keys from its last checkpoint to
   catch rolled-back seqno reuse.  [retain] therefore only needs to
   cover the checkpoint lag; the GC policy's [retain_keys] documents
   that contract. *)
let prune_delivered t ~retain =
  match t with
  | Perfect _ -> 0
  | Lossy l ->
    let cutoff = l.expected - 1 - retain in
    let removed = ref 0 in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt l.seen_order with
      | Some (seq, key) when seq <= cutoff ->
        ignore (Queue.pop l.seen_order);
        Hashtbl.remove l.seen_keys key;
        incr removed
      | _ -> continue := false
    done;
    !removed

let dedup_keys = function
  | Perfect _ -> 0
  | Lossy l -> Hashtbl.length l.seen_keys

(* --- crash / reconnect ------------------------------------------------- *)

type 'a sender_state = { ck_next_seq : int; ck_unacked : (int * 'a) list }

type 'a receiver_state = {
  ck_expected : int;
  ck_resequencer : (int * 'a) list;
  ck_keys : (int * string) list;  (* (delivery seq, key), seq-sorted *)
}

let lossy_of name = function
  | Perfect _ -> invalid_arg ("Transport." ^ name ^ ": perfect channel")
  | Lossy l -> l

let sender_checkpoint t =
  let l = lossy_of "sender_checkpoint" t in
  {
    ck_next_seq = l.next_seq;
    ck_unacked = List.map (fun i -> i.i_seq, i.i_payload) l.unacked;
  }

let restore_sender t ck =
  let l = lossy_of "restore_sender" t in
  l.next_seq <- ck.ck_next_seq;
  l.unacked <-
    List.map
      (fun (seq, payload) ->
        { i_seq = seq; i_payload = payload; i_last_sent = l.now;
          i_attempts = 1 })
      ck.ck_unacked

let receiver_checkpoint t =
  let l = lossy_of "receiver_checkpoint" t in
  {
    ck_expected = l.expected;
    ck_resequencer = l.resequencer;
    ck_keys =
      (* The queue mirrors the hash table in delivery order, which is
         already deterministic; sorting by seq keeps the checkpoint
         bytes canonical even so. *)
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Queue.fold (fun acc entry -> entry :: acc) [] l.seen_order);
  }

let restore_receiver t ck =
  let l = lossy_of "restore_receiver" t in
  l.expected <- ck.ck_expected;
  l.resequencer <- ck.ck_resequencer;
  l.ack_pending <- false;
  Hashtbl.reset l.seen_keys;
  Queue.clear l.seen_order;
  List.iter
    (fun (seq, k) ->
      Hashtbl.replace l.seen_keys k ();
      Queue.push (seq, k) l.seen_order)
    ck.ck_keys

(* A connection reset: everything in flight (data and acks) is lost.
   The endpoints' shim state survives — or is restored from a
   checkpoint by the caller — and retransmission resynchronizes. *)
let drop_wire t =
  let l = lossy_of "drop_wire" t in
  let s = l.cfg.stats in
  s.Stats.dropped <- s.Stats.dropped + List.length l.wire;
  l.wire <- [];
  l.ack_wire <- []
