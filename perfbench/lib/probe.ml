(* The benchmark's measurement state: a monotonic clock, the
   edit-to-converge tracker fed by the timing wrapper, and the in-memory
   span recorder of traced sessions.

   Everything here is process-global and single-domain: the benchmark
   drives one engine at a time from one domain, and the wrapper
   ({!Timed}) has no other way to reach its caller. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- growable sample buffers ------------------------------------------ *)

(* Kept outside the OCaml heap: their size grows with the number of
   updates a run manages, and [peak_heap_mb] must measure the program,
   not how fast it filled the harness's buffers. *)
module Samples = struct
  open Bigarray

  type t = { mutable data : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { data = Array1.create int c_layout 4096; n = 0 }

  let clear t = t.n <- 0

  let push t v =
    if t.n = Array1.dim t.data then begin
      let bigger = Array1.create int c_layout (2 * t.n) in
      Array1.blit t.data (Array1.sub bigger 0 t.n);
      t.data <- bigger
    end;
    Array1.unsafe_set t.data t.n v;
    t.n <- t.n + 1

  let length t = t.n

  (* Nearest-rank percentiles of the recorded values: sorts a copy
     once and returns the lookup, which gives [0] when there are no
     values.  The copy is in the OCaml heap: read heap figures before
     calling. *)
  let percentiles t =
    let n = t.n in
    let sorted = Array.init n (Array1.get t.data) in
    Array.sort Int.compare sorted;
    fun p ->
      if n = 0 then 0
      else
        let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
        sorted.(max 0 (min (n - 1) (rank - 1)))

  let percentile t p = percentiles t p
end

(* --- edit-to-converge tracking ---------------------------------------- *)

(* Whether latency samples are being kept (the timed phase's untraced
   sessions), as opposed to warm-up, which still runs the wrapper. *)
let measuring = ref false

let converge = Samples.create ()

let local = Samples.create ()

(* Time the benchmark spent in its own reference kernel ({!Host}),
   taken out of every edit-to-converge interval that spans it. *)
let excluded_ns = ref 0

(* Per update, indexed [client].(seq): when its [client_generate] call
   started, and how many replicas still have to apply it.  A session
   resets [expected] (server + the other clients); the slots of a fresh
   engine's operation ids are written at generation before any apply
   can read them. *)
type tracker = {
  mutable expected : int;
  mutable gen_ns : int array array;
  mutable left : int array array;
  mutable unconverged : int;  (** updates generated but not applied everywhere *)
}

let tracker =
  { expected = 0; gen_ns = [||]; left = [||]; unconverged = 0 }

let begin_session ~nclients =
  tracker.expected <- nclients;
  tracker.unconverged <- 0;
  if Array.length tracker.gen_ns < nclients + 1 then begin
    tracker.gen_ns <- Array.init (nclients + 1) (fun _ -> Array.make 1024 0);
    tracker.left <- Array.init (nclients + 1) (fun _ -> Array.make 1024 0)
  end

let grow a need =
  let bigger = Array.make (max need (2 * Array.length a)) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let generated (id : Rlist_model.Op_id.t) ~start ~stop =
  let c = id.client and s = id.seq in
  if s >= Array.length tracker.gen_ns.(c) then begin
    tracker.gen_ns.(c) <- grow tracker.gen_ns.(c) (s + 1);
    tracker.left.(c) <- grow tracker.left.(c) (s + 1)
  end;
  tracker.gen_ns.(c).(s) <- start - !excluded_ns;
  tracker.left.(c).(s) <- tracker.expected;
  tracker.unconverged <- tracker.unconverged + 1;
  if !measuring then Samples.push local (stop - start)

(* One replica (the server, or a client other than the origin) applied
   update [id] at [now]. *)
let applied (id : Rlist_model.Op_id.t) ~now =
  let c = id.client and s = id.seq in
  let left = tracker.left.(c).(s) - 1 in
  tracker.left.(c).(s) <- left;
  if left = 0 then begin
    tracker.unconverged <- tracker.unconverged - 1;
    if !measuring then
      Samples.push converge (now - !excluded_ns - tracker.gen_ns.(c).(s))
  end

(* --- spans ------------------------------------------------------------- *)

(* Span kinds, grouped by the library layer that does the work.  The
   benchmark opens [bench] and [sim] spans around its own calls; the
   wrapper opens [core] and [gc] spans around each protocol call. *)
type kind =
  | Session  (** one document, from input generation to its check *)
  | Gen  (** drawing a session's inputs *)
  | Round  (** one closed-loop window: generate, then quiesce *)
  | Check  (** the correctness gate on a finished document *)
  | Engine_create  (** [Engine.create] *)
  | Engine_generate  (** [Engine.apply_event (Generate _)] *)
  | Engine_quiesce  (** [Engine.quiesce] *)
  | Create  (** [create_client] / [create_server] *)
  | Local  (** [client_generate] *)
  | Server  (** [server_receive] / [server_receive_batch] of updates *)
  | Remote  (** [client_receive] / [client_receive_batch] of updates *)
  | Hook  (** a [gc_support] hook *)
  | Exchange  (** a protocol call carrying only GC control messages *)
  | Meta  (** a metadata-size probe (the GC trigger check) *)

let kinds =
  [| Session; Gen; Round; Check; Engine_create; Engine_generate;
     Engine_quiesce; Create; Local; Server; Remote; Hook; Exchange; Meta |]

let index = function
  | Session -> 0 | Gen -> 1 | Round -> 2 | Check -> 3 | Engine_create -> 4
  | Engine_generate -> 5 | Engine_quiesce -> 6 | Create -> 7 | Local -> 8
  | Server -> 9 | Remote -> 10 | Hook -> 11 | Exchange -> 12 | Meta -> 13

let nkinds = Array.length kinds

let kind_name = function
  | Session -> "bench.session" | Gen -> "bench.gen" | Round -> "bench.round"
  | Check -> "bench.check" | Engine_create -> "sim.create"
  | Engine_generate -> "sim.generate" | Engine_quiesce -> "sim.quiesce"
  | Create -> "core.create" | Local -> "core.local" | Server -> "core.server"
  | Remote -> "core.remote" | Hook -> "gc.hook" | Exchange -> "gc.exchange"
  | Meta -> "gc.meta"

let layer k =
  let name = kind_name k in
  String.sub name 0 (String.index name '.')

(* Whether protocol calls and the benchmark's own calls open spans. *)
let tracing = ref false

(* Per-kind aggregates, reset by [reset_totals]. *)
let total_ns = Array.make nkinds 0
let self_ns = Array.make nkinds 0

let reset_totals () =
  Array.fill total_ns 0 nkinds 0;
  Array.fill self_ns 0 nkinds 0

(* Stored spans, written out when the run ends.  Capped so a long
   traced run keeps a bounded footprint; the aggregates above cover
   every span regardless.  Allocated by the first traced span, so an
   untraced run's [peak_heap_mb] does not carry them. *)
let span_cap = 1 lsl 17
let stored = ref 0
let next_id = ref 0
let sp_id = lazy (Array.make span_cap 0)
let sp_kind = lazy (Array.make span_cap 0)
let sp_parent = lazy (Array.make span_cap 0)
let sp_start = lazy (Array.make span_cap 0)
let sp_stop = lazy (Array.make span_cap 0)

(* The open spans, innermost last. *)
let max_depth = 16
let depth = ref 0
let st_kind = Array.make max_depth 0
let st_id = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0

let enter_at k start =
  let d = !depth in
  if d < max_depth then begin
    st_kind.(d) <- index k;
    st_id.(d) <- !next_id;
    st_start.(d) <- start;
    st_child.(d) <- 0
  end;
  incr next_id;
  depth := d + 1

let leave_at stop =
  let d = !depth - 1 in
  depth := d;
  if d >= 0 && d < max_depth then begin
    let k = st_kind.(d) in
    let dur = stop - st_start.(d) in
    total_ns.(k) <- total_ns.(k) + dur;
    self_ns.(k) <- self_ns.(k) + dur - st_child.(d);
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    if !stored < span_cap then begin
      let i = !stored in
      (Lazy.force sp_id).(i) <- st_id.(d);
      (Lazy.force sp_kind).(i) <- k;
      (Lazy.force sp_parent).(i) <- (if d > 0 then st_id.(d - 1) else -1);
      (Lazy.force sp_start).(i) <- st_start.(d);
      (Lazy.force sp_stop).(i) <- stop;
      stored := i + 1
    end
  end

let enter k = if !tracing then enter_at k (now_ns ())

let leave () = if !tracing then leave_at (now_ns ())

let span k f x =
  if !tracing then begin
    enter_at k (now_ns ());
    let r = f x in
    leave_at (now_ns ());
    r
  end
  else f x

(* The stored spans as tab-separated rows: id, parent id ([-1] for a
   root), kind, start and stop in ns of the monotonic clock. *)
let write_spans oc =
  output_string oc "id\tparent\tkind\tstart_ns\tstop_ns\n";
  for i = 0 to !stored - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" (Lazy.force sp_id).(i)
      (Lazy.force sp_parent).(i)
      (kind_name kinds.((Lazy.force sp_kind).(i)))
      (Lazy.force sp_start).(i) (Lazy.force sp_stop).(i)
  done

let kind_total k = total_ns.(index k)

let kind_self k = self_ns.(index k)

(* Self time of every span kind of one layer, in ns. *)
let layer_self name =
  Array.fold_left
    (fun acc k -> if String.equal (layer k) name then acc + kind_self k else acc)
    0 kinds
