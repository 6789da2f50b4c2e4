type policy = { every_ops : int; retain_keys : int }

let default = { every_ops = 64; retain_keys = 64 }
let trigger_name p = Printf.sprintf "ops=%d" p.every_ops

let to_string p =
  Printf.sprintf "%s,retain=%d" (trigger_name p) p.retain_keys

let of_string s =
  let s = String.trim s in
  if s = "default" then Ok default
  else begin
    let fields = String.split_on_char ',' s in
    let parse acc field =
      match acc with
      | Error _ as e -> e
      | Ok (ops, retain) -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "gc policy: expected key=value in %S" field)
        | Some i -> (
          let key = String.trim (String.sub field 0 i) in
          let value = String.sub field (i + 1) (String.length field - i - 1) in
          match key, int_of_string_opt (String.trim value) with
          | ("meta" | "lag" | "snap"), _ ->
            Error
              (Printf.sprintf
                 "gc policy: %s= was removed; a policy is ops=N[,retain=N]" key)
          | ("ops" | "retain"), None ->
            Error (Printf.sprintf "gc policy: %S is not an integer" value)
          | "ops", _ when Option.is_some ops -> Error "gc policy: ops given twice"
          | "retain", _ when Option.is_some retain ->
            Error "gc policy: retain given twice"
          | "ops", Some n when n < 1 ->
            Error "gc policy: ops must be positive"
          | "retain", Some n when n < 0 ->
            Error "gc policy: retain must be non-negative"
          | "ops", Some n -> Ok (Some n, retain)
          | "retain", Some n -> Ok (ops, Some n)
          | k, _ -> Error (Printf.sprintf "gc policy: unknown key %S" k)))
    in
    match List.fold_left parse (Ok (None, None)) fields with
    | Error _ as e -> e
    | Ok (None, _) -> Error "gc policy: ops=N is required"
    | Ok (Some every_ops, retain) ->
      Ok
        {
          every_ops;
          retain_keys = Option.value retain ~default:default.retain_keys;
        }
  end

let pp ppf p = Format.pp_print_string ppf (to_string p)

type stats = {
  cycles : int;
  reclaimed_states : int;
  reclaimed_log : int;
  reclaimed_keys : int;
  heartbeats : int;
  skipped_heartbeats : int;
  stables_delivered : int;
  skipped_stables : int;
  meta_peak : int;
}

let stats_fields s =
  [
    "cycles", s.cycles;
    "reclaimed_states", s.reclaimed_states;
    "reclaimed_log", s.reclaimed_log;
    "reclaimed_keys", s.reclaimed_keys;
    "heartbeats", s.heartbeats;
    "skipped_heartbeats", s.skipped_heartbeats;
    "stables_delivered", s.stables_delivered;
    "skipped_stables", s.skipped_stables;
    "meta_peak", s.meta_peak;
  ]

module Driver = struct
  type t = {
    d_policy : policy;
    mutable ops_since : int;
    mutable in_cycle : bool;
    mutable s : stats;
  }

  let zero_stats =
    {
      cycles = 0;
      reclaimed_states = 0;
      reclaimed_log = 0;
      reclaimed_keys = 0;
      heartbeats = 0;
      skipped_heartbeats = 0;
      stables_delivered = 0;
      skipped_stables = 0;
      meta_peak = 0;
    }

  let create policy =
    { d_policy = policy; ops_since = 0; in_cycle = false; s = zero_stats }

  let policy t = t.d_policy
  let note_ops t n = t.ops_since <- t.ops_since + n
  let due t = (not t.in_cycle) && t.ops_since >= t.d_policy.every_ops

  let begin_cycle t =
    t.in_cycle <- true;
    t.ops_since <- 0;
    t.s <- { t.s with cycles = t.s.cycles + 1 };
    t.s.cycles

  let note_heartbeat t = t.s <- { t.s with heartbeats = t.s.heartbeats + 1 }

  let note_skipped_heartbeat t =
    t.s <- { t.s with skipped_heartbeats = t.s.skipped_heartbeats + 1 }

  let note_stable t =
    t.s <- { t.s with stables_delivered = t.s.stables_delivered + 1 }

  let note_skipped_stable t =
    t.s <- { t.s with skipped_stables = t.s.skipped_stables + 1 }

  let end_cycle t ~reclaimed_states ~reclaimed_log ~reclaimed_keys ~meta =
    t.in_cycle <- false;
    t.s <-
      {
        t.s with
        reclaimed_states = t.s.reclaimed_states + reclaimed_states;
        reclaimed_log = t.s.reclaimed_log + reclaimed_log;
        reclaimed_keys = t.s.reclaimed_keys + reclaimed_keys;
        meta_peak = max t.s.meta_peak meta;
      }

  let stats t = t.s
end
