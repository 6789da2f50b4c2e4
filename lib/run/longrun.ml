(* See longrun.mli. *)

open Rlist_model
module Workload = Rlist_workload.Workload

type sample = {
  x_ops : int;
  x_us_per_op : float;
  x_meta : int;
  x_heap_words : int;
  x_gc_cycles : int;
  x_reclaimed : int;
  x_dedup_keys : int;
}

type result = {
  l_protocol : string;
  l_profile : Workload.profile;
  l_updates : int;
  l_chunk : int;
  l_seed : int;
  l_gc : Rlist_gc.policy option;
  l_samples : sample list;
  l_meta_peak : int;
  l_heap_peak : int;
  l_p50_us : float;
  l_p99_us : float;
  l_flat_meta : float;
  l_flat_latency : float;
  l_digest : string;
  l_converged : bool;
  l_gc_stats : Rlist_gc.stats option;
  l_elapsed_s : float;
}

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let i = int_of_float (Float.of_int (n - 1) *. q) in
    sorted.(min (n - 1) (max 0 i))

(* Mean of the last quarter over mean of the first quarter — the
   flatness ratio both the CLI gate and the C18 bench report.  A
   bounded curve hovers near 1; unbounded growth scales with the
   horizon.  With fewer than 4 samples the ratio degenerates to
   last/first. *)
let flatness values =
  match values with
  | [] | [ _ ] -> 1.
  | _ ->
    let arr = Array.of_list values in
    let n = Array.length arr in
    let quarter = max 1 (n / 4) in
    let mean lo hi =
      let sum = ref 0. in
      for i = lo to hi - 1 do
        sum := !sum +. arr.(i)
      done;
      !sum /. Float.of_int (hi - lo)
    in
    let early = mean 0 quarter in
    let late = mean (n - quarter) n in
    if early <= 0. then 1. else late /. early

(* Updates per client per round; see longrun.mli. *)
let window = function
  | Workload.Hotspot -> 4
  | Workload.Typing -> 2
  | Workload.Uniform | Workload.Append_log | Workload.Churn -> 1

let run_cs (type c s c2s s2c)
    (module P : Rlist_sim.Protocol_intf.PROTOCOL
      with type client = c
       and type server = s
       and type c2s = c2s
       and type s2c = s2c) ?gc ~faults ~now ~profile ~nclients ~updates
    ~chunk ~seed () =
  let module E = Rlist_sim.Engine.Make (P) in
  let net = Rlist_net.Transport.config ~shim:true ~faults ~seed () in
  let t = E.create ~net ?gc ~history:false ~nclients () in
  let rng = Random.State.make [| seed |] in
  let intent = Workload.intent_generator profile ~nclients ~rng in
  let read_fraction =
    (Workload.params profile ~updates).Rlist_sim.Schedule.read_fraction
  in
  let window = window profile in
  let generate i =
    if Random.State.float rng 1.0 < read_fraction then
      E.apply_event t (Rlist_sim.Schedule.Generate (i, Intent.Read));
    let doc_length = Document.length (E.client_document t i) in
    E.apply_event t
      (Rlist_sim.Schedule.Generate (i, intent ~client:i ~doc_length))
  in
  let samples = ref [] in
  let applied = ref 0 in
  let meta_peak = ref 0 in
  let heap_peak = ref 0 in
  let started = now () in
  let sampled_ops = ref 0 in
  let sampled_at = ref started in
  let round_meta = ref 0 in
  let sample () =
    let at = now () in
    let heap = (Stdlib.Gc.quick_stat ()).Stdlib.Gc.heap_words in
    if !round_meta > !meta_peak then meta_peak := !round_meta;
    if heap > !heap_peak then heap_peak := heap;
    let gc_cycles, reclaimed =
      match E.gc_stats t with
      | None -> 0, 0
      | Some s ->
        ( s.Rlist_gc.cycles,
          s.Rlist_gc.reclaimed_states + s.Rlist_gc.reclaimed_log
          + s.Rlist_gc.reclaimed_keys )
    in
    samples :=
      {
        x_ops = !applied;
        x_us_per_op =
          (at -. !sampled_at) *. 1e6 /. Float.of_int (!applied - !sampled_ops);
        x_meta = !round_meta;
        x_heap_words = heap;
        x_gc_cycles = gc_cycles;
        x_reclaimed = reclaimed;
        x_dedup_keys = E.dedup_keys t;
      }
      :: !samples;
    sampled_ops := !applied;
    sampled_at := at;
    round_meta := 0
  in
  (* Rounds ignore chunk boundaries, so [chunk] cannot change the
     schedule; a sample closes the round that crosses a multiple of
     it. *)
  while !applied < updates do
    for _ = 1 to window do
      for i = 1 to nclients do
        if !applied < updates then begin
          generate i;
          incr applied
        end
      done
    done;
    ignore (E.quiesce t);
    round_meta := max !round_meta (E.total_metadata_size t);
    if !applied / chunk > !sampled_ops / chunk || !applied = updates then
      sample ()
  done;
  let elapsed = now () -. started in
  let samples = List.rev !samples in
  let finals =
    (if P.server_is_replica then
       [ Document.to_string (E.server_document t) ]
     else [])
    @ List.init nclients (fun i ->
          Document.to_string (E.client_document t (i + 1)))
  in
  let latencies = List.map (fun s -> s.x_us_per_op) samples in
  let sorted = Array.of_list latencies in
  Array.sort Float.compare sorted;
  {
    l_protocol = P.name;
    l_profile = profile;
    l_updates = updates;
    l_chunk = chunk;
    l_seed = seed;
    l_gc = gc;
    l_samples = samples;
    l_meta_peak = !meta_peak;
    l_heap_peak = !heap_peak;
    l_p50_us = percentile sorted 0.5;
    l_p99_us = percentile sorted 0.99;
    l_flat_meta =
      flatness (List.map (fun s -> Float.of_int s.x_meta) samples);
    l_flat_latency = flatness latencies;
    l_digest = Digest.to_hex (Digest.string (String.concat "\x00" finals));
    l_converged = E.converged t;
    l_gc_stats = E.gc_stats t;
    l_elapsed_s = elapsed;
  }

let run ?gc ?(faults = Rlist_net.Faults.none) ~now ~protocol ~profile
    ~nclients ~updates ~chunk ~seed () =
  if updates < 1 then invalid_arg "Longrun.run: need updates >= 1";
  if chunk < 1 then invalid_arg "Longrun.run: need chunk >= 1";
  let go p = run_cs p ?gc ~faults ~now ~profile ~nclients ~updates ~chunk ~seed () in
  match protocol with
  | "css" -> go (module Jupiter_css.Protocol)
  | "cscw" -> go (module Jupiter_cscw.Protocol)
  | "rga" -> go (module Jupiter_rga.Protocol)
  | "naive" -> go (module Jupiter_cscw.Naive_p2p)
  | "css-pruned" -> go (module Jupiter_css.Pruned_protocol)
  | "logoot" -> go (module Jupiter_logoot.Protocol)
  | "css-seq" -> go (module Jupiter_css.Sequencer_protocol)
  | "treedoc" -> go (module Jupiter_treedoc.Protocol)
  | "css-p2p" | "ttf" ->
    invalid_arg "Longrun.run: peer-to-peer protocols are not soakable here"
  | other ->
    invalid_arg (Printf.sprintf "Longrun.run: unknown protocol %S" other)

let result_to_json r =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"protocol\": %S, \"profile\": %S, \"updates\": %d, \"chunk\": %d, \
     \"seed\": %d, \"gc\": %s, \"meta_peak\": %d, \"heap_peak_words\": %d, \
     \"p50_us_per_op\": %.3f, \"p99_us_per_op\": %.3f, \"flat_meta\": %.3f, \
     \"flat_latency\": %.3f, \"digest\": %S, \"converged\": %b, \
     \"elapsed_s\": %.3f"
    r.l_protocol
    (Workload.profile_name r.l_profile)
    r.l_updates r.l_chunk r.l_seed
    (match r.l_gc with
    | None -> "null"
    | Some p -> Printf.sprintf "%S" (Rlist_gc.to_string p))
    r.l_meta_peak r.l_heap_peak r.l_p50_us r.l_p99_us r.l_flat_meta
    r.l_flat_latency r.l_digest r.l_converged r.l_elapsed_s;
  (match r.l_gc_stats with
  | None -> ()
  | Some s ->
    Buffer.add_string b ", \"gc_stats\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "%S: %d" k v)
      (Rlist_gc.stats_fields s);
    Buffer.add_char b '}');
  Buffer.add_string b ", \"samples\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"ops\": %d, \"us_per_op\": %.3f, \"meta\": %d, \"heap_words\": \
         %d, \"gc_cycles\": %d, \"reclaimed\": %d, \"dedup_keys\": %d}"
        s.x_ops s.x_us_per_op s.x_meta s.x_heap_words s.x_gc_cycles
        s.x_reclaimed s.x_dedup_keys)
    r.l_samples;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s/%s: %d ops (chunks of %d, seed %d)%s@,\
     converged:   %b@,\
     digest:      %s@,\
     meta peak:   %d (flatness %.2f)@,\
     heap peak:   %d words@,\
     latency:     p50 %.2f us/op, p99 %.2f us/op (flatness %.2f)@,\
     elapsed:     %.1fs"
    r.l_protocol
    (Workload.profile_name r.l_profile)
    r.l_updates r.l_chunk r.l_seed
    (match r.l_gc with
    | None -> ", gc off"
    | Some p -> Printf.sprintf ", gc %s" (Rlist_gc.to_string p))
    r.l_converged r.l_digest r.l_meta_peak r.l_flat_meta r.l_heap_peak
    r.l_p50_us r.l_p99_us r.l_flat_latency r.l_elapsed_s;
  (match r.l_gc_stats with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "@,gc:          ";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Format.fprintf ppf ", ";
        Format.fprintf ppf "%s %d" k v)
      (Rlist_gc.stats_fields s));
  Format.fprintf ppf "@]"
