(* Host-speed normalisation of the end-to-end timings.

   The benchmark runs on shared hosts whose speed changes in phases that
   last from seconds to minutes and slow memory-bound code by up to
   half (perfbench/README.md, "Noise").  A phase outlasts a run, so no
   estimator over one run's own samples removes it.  A fixed reference
   kernel does: it is part of the benchmark, not of the program, so a
   change to the program cannot move it, and the host's phases slow it
   as they slow the workloads.

   During the timed phase of an end-to-end run the kernel is timed
   between rounds, after [Engine.quiesce]; an update still in flight
   then (one whose message the lossy wire dropped) has the kernel's
   time taken out of its latency.  The phase is cut into blocks
   of one second.  Each block gets the factor
   [nominal_ns / median kernel time in the block], and every time
   measured in the block is multiplied by it: its latency samples, its
   document opens and its working time (the block's wall time minus the
   kernel's).  The reported timings are thus what the run would have
   read on a host that runs the kernel in [nominal_ns]; the raw values
   are printed beside them. *)

(* Roughly the kernel's median on a 2.1 GHz Xeon VM in a fast phase. *)
let nominal_ns = 40_000.0

(* Time the kernel at most this often (about 1% of the run) ... *)
let interval_ns = 5_000_000

(* ... and close a block after this long. *)
let block_ns = 1_000_000_000

module Int_map = Map.Make (Int)

(* Allocation and a small persistent map: the mix of short-lived cons
   cells and tree nodes that the workloads allocate.  Of the kernels
   tried (this one, pointer chasing over 256 KB and 4 MB, a strided
   read-write sweep, pure arithmetic) it tracked both workloads' speed
   best; pure arithmetic did not move with the host at all. *)
let kernel () =
  let l = ref [] in
  for i = 0 to 2000 do
    l := (i * 7919) :: !l;
    if i land 255 = 0 then l := []
  done;
  let m = ref Int_map.empty in
  for i = 0 to 300 do
    m := Int_map.add ((i * 7919) land 1023) i !m
  done;
  ignore (Sys.opaque_identity (!l, !m))

let on = ref false

(* The samples whose entries are normalised, and per closed block their
   lengths when it closed and its factor, latest first. *)
let tracked : Probe.Samples.t array ref = ref [||]
let blocks : (int array * float) list ref = ref []

let block_start = ref 0
let next_kernel = ref 0
let kernel_ns = ref 0 (* kernel time in the open block *)
let kernel_times = Probe.Samples.create () (* the open block's kernel runs *)

(* Working time of the closed blocks, raw and normalised. *)
let work_ns = ref 0
let scaled_ns = ref 0.0

(* Start the timed phase: [samples] are the ones to normalise, all
   empty. *)
let start samples =
  on := true;
  tracked := samples;
  blocks := [];
  Probe.Samples.clear kernel_times;
  kernel_ns := 0;
  work_ns := 0;
  scaled_ns := 0.0;
  block_start := Probe.now_ns ();
  next_kernel := !block_start

let close_block now =
  let factor =
    if Probe.Samples.length kernel_times > 0 then
      nominal_ns
      /. float_of_int (Probe.Samples.percentile kernel_times 0.5)
    else match !blocks with (_, f) :: _ -> f | [] -> 1.0
  in
  let work = now - !block_start - !kernel_ns in
  work_ns := !work_ns + work;
  scaled_ns := !scaled_ns +. (factor *. float_of_int work);
  blocks := (Array.map Probe.Samples.length !tracked, factor) :: !blocks;
  Probe.Samples.clear kernel_times;
  kernel_ns := 0;
  block_start := now

(* Between rounds: time the kernel when it is due, close the block when
   it is full. *)
let tick () =
  if !on then begin
    let now = Probe.now_ns () in
    let now =
      if now < !next_kernel then now
      else begin
        kernel ();
        let stop = Probe.now_ns () in
        Probe.Samples.push kernel_times (stop - now);
        kernel_ns := !kernel_ns + (stop - now);
        Probe.excluded_ns := !Probe.excluded_ns + (stop - now);
        next_kernel := stop + interval_ns;
        stop
      end
    in
    if now - !block_start >= block_ns then close_block now
  end

(* End the timed phase, closing the last, partial block. *)
let finish () =
  if !on then begin
    close_block (Probe.now_ns ());
    on := false
  end

(* A copy of tracked [samples] with every entry multiplied by its
   block's factor. *)
let normalised samples =
  let k =
    let rec find i =
      if !tracked.(i) == samples then i else find (i + 1)
    in
    find 0
  in
  let out = Probe.Samples.create () in
  let from = ref 0 in
  List.iter
    (fun (marks, factor) ->
      for i = !from to marks.(k) - 1 do
        let v = Bigarray.Array1.get samples.Probe.Samples.data i in
        Probe.Samples.push out (Float.to_int (Float.round (factor *. float_of_int v)))
      done;
      from := marks.(k))
    (List.rev !blocks);
  out

(* The closed blocks' factors, after [finish]: median and range. *)
let summary () =
  let f = Array.of_list (List.map snd !blocks) in
  Array.sort Float.compare f;
  let n = Array.length f in
  Printf.sprintf "host factor %.3f median, %.3f to %.3f over %d blocks"
    f.(n / 2) f.(0) f.(n - 1) n
