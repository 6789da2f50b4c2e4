(* The benchmark's own input generator.

   A run is a sequence of document sessions.  Session [k]'s random
   draws are pre-generated from [(seed, workload, k)] before the
   session starts, and each draw is resolved into an intent against the
   live document length only when it is applied — the same draws give
   the same intents on any correct implementation, because every
   replica's document is the same at quiescence.  Nothing here comes
   from [lib/workload] or the engine's random drivers, so a change to
   those cannot change what the benchmark feeds the program. *)

open Rlist_model

type workload = Typing | Hotspot | Many_docs

let all = [ Typing; Hotspot; Many_docs ]

let name = function
  | Typing -> "typing"
  | Hotspot -> "hotspot"
  | Many_docs -> "many-docs"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* The shape of one document session. *)
type shape = {
  nclients : int;
  per_client : int;  (** updates each client generates per round *)
  rounds : int;  (** rounds per session *)
  initial_len : int;  (** characters in the session's initial document *)
  read_permille : int;  (** chance of a read before an update *)
  lossy : bool;  (** lossy wire with the reliability shim, else perfect *)
}

let shape = function
  | Typing ->
    { nclients = 4; per_client = 2; rounds = 500; initial_len = 30_000;
      read_permille = 50; lossy = true }
  | Hotspot ->
    { nclients = 4; per_client = 16; rounds = 20; initial_len = 2_000;
      read_permille = 50; lossy = false }
  | Many_docs ->
    { nclients = 3; per_client = 1; rounds = 12; initial_len = 0;
      read_permille = 0; lossy = false }

let window s = s.nclients * s.per_client

let updates_per_session s = window s * s.rounds

(* The lossy wire of [typing]: 5% drop, 5% duplication, 10% reorder
   with up to 4 ticks of jitter. *)
let faults =
  { Rlist_net.Faults.none with drop = 0.05; duplicate = 0.05; reorder = 0.1;
    delay = 4 }

let tag = function Typing -> 1 | Hotspot -> 2 | Many_docs -> 3

(* Warm-up sessions draw from their own stream, disjoint from the
   measured sessions' indices. *)
let warmup_index k = -1 - k

(* One pre-drawn slot per update, in round order: client [i] of round
   [r] takes slots [r * window + j * nclients + (i - 1)] for its [j]-th
   update, so the clients interleave within a round. *)
type draws = {
  read : Bytes.t;  (** ['r'] when a read precedes the update *)
  roll : int array;  (** action choice, in [0, 1000) *)
  pos : int array;  (** 30 random bits, resolved against the live length *)
  chr : Bytes.t;  (** the character an insert types *)
  net_seed : int;  (** the fault model's RNG seed *)
  cursors : int array;  (** per-client start cursor, as 30 random bits *)
}

let rng w ~seed ~index = Random.State.make [| seed; tag w; index |]

let draw w ~seed ~index =
  let s = shape w in
  let n = updates_per_session s in
  let st = rng w ~seed ~index in
  let read =
    Bytes.init n (fun _ ->
        if Random.State.int st 1000 < s.read_permille then 'r' else '-')
  in
  let roll = Array.init n (fun _ -> Random.State.int st 1000) in
  let pos = Array.init n (fun _ -> Random.State.bits st) in
  let chr =
    Bytes.init n (fun _ -> Char.chr (Char.code 'a' + Random.State.int st 26))
  in
  let net_seed = Random.State.bits st in
  let cursors = Array.init (s.nclients + 1) (fun _ -> Random.State.bits st) in
  { read; roll; pos; chr; net_seed; cursors }

(* The initial text of every session of one run. *)
let initial_text w ~seed =
  let st = rng w ~seed ~index:max_int in
  String.init (shape w).initial_len (fun _ ->
      Char.chr (Char.code 'a' + Random.State.int st 26))

(* [min bound (trailing zeros of bits)]: a geometric position, P(p) =
   2^-(p+1), biased towards the front of the document. *)
let geometric bits ~bound =
  let rec go p b = if p >= bound || b land 1 = 1 then p else go (p + 1) (b lsr 1) in
  go 0 (bits lor (1 lsl 30))

(* Per-session resolver state: the typing cursors. *)
type resolver = { w : workload; d : draws; cursor : int array }

let resolver w d =
  let len = (shape w).initial_len in
  { w; d; cursor = Array.map (fun b -> if len = 0 then 0 else b mod (len + 1)) d.cursors }

let reads_before r slot = Char.equal (Bytes.get r.d.read slot) 'r'

(* The update of [slot], by [client], against a document of [len]
   characters.  Always valid for that length. *)
let resolve r ~slot ~client ~len =
  let roll = r.d.roll.(slot) and pos = r.d.pos.(slot) in
  let c = Bytes.get r.d.chr slot in
  match r.w with
  | Typing ->
    (* Type at the cursor; backspace; now and then jump elsewhere and
       type.  Clamped each time: remote edits move text under it. *)
    let cursor = min r.cursor.(client) len in
    if roll < 750 || len = 0 then begin
      r.cursor.(client) <- cursor + 1;
      Intent.Insert (c, cursor)
    end
    else if roll < 900 && cursor > 0 then begin
      r.cursor.(client) <- cursor - 1;
      Intent.Delete (cursor - 1)
    end
    else begin
      let target = pos mod (len + 1) in
      r.cursor.(client) <- target + 1;
      Intent.Insert (c, target)
    end
  | Hotspot ->
    if len > 0 && roll < 450 then Intent.Delete (geometric pos ~bound:(len - 1))
    else Intent.Insert (c, geometric pos ~bound:len)
  | Many_docs ->
    if len > 0 && roll < 300 then Intent.Delete (pos mod len)
    else Intent.Insert (c, pos mod (len + 1))

(* An FNV-1a-style hash (63-bit) over the shape and the first two sessions' draws: equal
   fingerprints mean two runs fed the same input streams (sessions
   beyond are drawn by the same rule from the same seed). *)
let fingerprint w ~seed =
  let h = ref 0x0bf29ce484222325 in
  let mix v = h := (!h lxor v) * 0x100000001b3 in
  let s = shape w in
  List.iter mix
    [ s.nclients; s.per_client; s.rounds; s.initial_len; s.read_permille;
      Bool.to_int s.lossy ];
  String.iter (fun c -> mix (Char.code c)) (initial_text w ~seed);
  for index = 0 to 1 do
    let d = draw w ~seed ~index in
    Bytes.iter (fun c -> mix (Char.code c)) d.read;
    Array.iter mix d.roll;
    Array.iter mix d.pos;
    Bytes.iter (fun c -> mix (Char.code c)) d.chr;
    mix d.net_seed;
    Array.iter mix d.cursors
  done;
  Printf.sprintf "%016x" (!h land max_int)
