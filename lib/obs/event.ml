(* See event.mli. *)

type replica = string

type t =
  | Generate of {
      replica : replica;
      op_id : string option;
      intent : string;
      queue : int;
      tick : int;
    }
  | Send of {
      src : replica;
      dst : replica;
      op_id : string option;
      bytes : int;
      queue : int;
      tick : int;
    }
  | Deliver of {
      replica : replica;
      src : replica;
      op_id : string option;
      transforms : int;
      queue : int;
      tick : int;
    }
  | Transform of {
      replica : replica;
      count : int;
    }
  | Apply of {
      replica : replica;
      op_id : string option;
      doc_len : int;
      tick : int;
    }
  | Wire of {
      channel : string;
      action : string;
      wseq : int;
      info : int;
      tick : int;
    }
  | State_space_grow of {
      replica : replica;
      level : int;
      states : int;
      transitions : int;
    }
  | Span of {
      name : string;
      dur_ns : float;
    }
  | Gc_begin of {
      cycle : int;
      trigger : string;
      meta : int;
      tick : int;
    }
  | Gc_end of {
      cycle : int;
      reclaimed_states : int;
      reclaimed_log : int;
      reclaimed_keys : int;
      meta : int;
      skipped : int;
      tick : int;
    }

let kind = function
  | Generate _ -> "generate"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Transform _ -> "transform"
  | Apply _ -> "apply"
  | Wire _ -> "wire"
  | State_space_grow _ -> "state_space_grow"
  | Span _ -> "span"
  | Gc_begin _ -> "gc_begin"
  | Gc_end _ -> "gc_end"

let op_id = function
  | Generate { op_id; _ } | Send { op_id; _ } | Deliver { op_id; _ }
  | Apply { op_id; _ } ->
    op_id
  | Transform _ | Wire _ | State_space_grow _ | Span _ | Gc_begin _ | Gc_end _
    ->
    None

let tick = function
  | Generate { tick; _ } | Send { tick; _ } | Deliver { tick; _ }
  | Apply { tick; _ } | Wire { tick; _ } | Gc_begin { tick; _ }
  | Gc_end { tick; _ } ->
    Some tick
  | Transform _ | State_space_grow _ | Span _ -> None

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let opt_id = function
  | None -> "null"
  | Some id -> Printf.sprintf "\"%s\"" (escape id)

let to_jsonl ~seq e =
  let head = Printf.sprintf "{\"seq\": %d, \"type\": \"%s\", " seq (kind e) in
  let body =
    match e with
    | Generate { replica; op_id; intent; queue; tick } ->
      Printf.sprintf
        "\"replica\": \"%s\", \"op\": %s, \"intent\": \"%s\", \"queue\": %d, \
         \"tick\": %d"
        (escape replica) (opt_id op_id) (escape intent) queue tick
    | Send { src; dst; op_id; bytes; queue; tick } ->
      Printf.sprintf
        "\"src\": \"%s\", \"dst\": \"%s\", \"op\": %s, \"bytes\": %d, \
         \"queue\": %d, \"tick\": %d"
        (escape src) (escape dst) (opt_id op_id) bytes queue tick
    | Deliver { replica; src; op_id; transforms; queue; tick } ->
      Printf.sprintf
        "\"replica\": \"%s\", \"src\": \"%s\", \"op\": %s, \"transforms\": \
         %d, \"queue\": %d, \"tick\": %d"
        (escape replica) (escape src) (opt_id op_id) transforms queue tick
    | Transform { replica; count } ->
      Printf.sprintf "\"replica\": \"%s\", \"count\": %d" (escape replica)
        count
    | Apply { replica; op_id; doc_len; tick } ->
      Printf.sprintf
        "\"replica\": \"%s\", \"op\": %s, \"doc_len\": %d, \"tick\": %d"
        (escape replica) (opt_id op_id) doc_len tick
    | Wire { channel; action; wseq; info; tick } ->
      Printf.sprintf
        "\"channel\": \"%s\", \"action\": \"%s\", \"wseq\": %d, \"info\": \
         %d, \"tick\": %d"
        (escape channel) (escape action) wseq info tick
    | State_space_grow { replica; level; states; transitions } ->
      Printf.sprintf
        "\"replica\": \"%s\", \"level\": %d, \"states\": %d, \
         \"transitions\": %d"
        (escape replica) level states transitions
    | Span { name; dur_ns } ->
      Printf.sprintf "\"name\": \"%s\", \"dur_ns\": %.0f" (escape name)
        dur_ns
    | Gc_begin { cycle; trigger; meta; tick } ->
      Printf.sprintf
        "\"cycle\": %d, \"trigger\": \"%s\", \"meta\": %d, \"tick\": %d"
        cycle (escape trigger) meta tick
    | Gc_end
        {
          cycle;
          reclaimed_states;
          reclaimed_log;
          reclaimed_keys;
          meta;
          skipped;
          tick;
        } ->
      Printf.sprintf
        "\"cycle\": %d, \"reclaimed_states\": %d, \"reclaimed_log\": %d, \
         \"reclaimed_keys\": %d, \"meta\": %d, \"skipped\": %d, \
         \"tick\": %d"
        cycle reclaimed_states reclaimed_log reclaimed_keys meta skipped tick
  in
  head ^ body ^ "}"

let pp ppf e = Format.pp_print_string ppf (to_jsonl ~seq:0 e)

(* --- JSONL decoding ------------------------------------------------ *)

(* The trace format is deliberately flat: every line is one JSON
   object whose values are strings, numbers, or null.  A few dozen
   lines of scanner therefore decode it without a JSON dependency. *)

type jv =
  | Jstr of string
  | Jnum of float
  | Jnull

exception Bad_line

let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Bad_line else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (peek () = ' ' || peek () = '\t') do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise Bad_line;
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | c -> Buffer.add_char b c);
        advance ();
        loop ()
      | c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Jstr (parse_string ())
    | 'n' ->
      pos := !pos + 4;
      Jnull
    | 't' ->
      pos := !pos + 4;
      Jnum 1.0
    | 'f' ->
      pos := !pos + 5;
      Jnum 0.0
    | _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match peek () with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        advance ()
      done;
      if !pos = start then raise Bad_line;
      (match float_of_string_opt (String.sub line start (!pos - start)) with
      | Some f -> Jnum f
      | None -> raise Bad_line)
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = '}' then []
  else begin
    let rec members () =
      skip_ws ();
      let key = parse_string () in
      expect ':';
      let v = parse_value () in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' ->
        advance ();
        members ()
      | '}' -> ()
      | _ -> raise Bad_line
    in
    members ();
    List.rev !fields
  end

let fstr fields key =
  match List.assoc_opt key fields with
  | Some (Jstr s) -> s
  | _ -> raise Bad_line

let fint fields key =
  match List.assoc_opt key fields with
  | Some (Jnum f) -> int_of_float f
  | _ -> raise Bad_line

let ffloat fields key =
  match List.assoc_opt key fields with
  | Some (Jnum f) -> f
  | _ -> raise Bad_line

let fopt fields key =
  match List.assoc_opt key fields with
  | Some (Jstr s) -> Some s
  | _ -> None

let of_jsonl line =
  match parse_fields line with
  | exception Bad_line -> None
  | fields -> (
    try
      let seq = fint fields "seq" in
      let e =
        match fstr fields "type" with
        | "generate" ->
          Generate
            {
              replica = fstr fields "replica";
              op_id = fopt fields "op";
              intent = fstr fields "intent";
              queue = fint fields "queue";
              tick = fint fields "tick";
            }
        | "send" ->
          Send
            {
              src = fstr fields "src";
              dst = fstr fields "dst";
              op_id = fopt fields "op";
              bytes = fint fields "bytes";
              queue = fint fields "queue";
              tick = fint fields "tick";
            }
        | "deliver" ->
          Deliver
            {
              replica = fstr fields "replica";
              src = fstr fields "src";
              op_id = fopt fields "op";
              transforms = fint fields "transforms";
              queue = fint fields "queue";
              tick = fint fields "tick";
            }
        | "transform" ->
          Transform
            { replica = fstr fields "replica"; count = fint fields "count" }
        | "apply" ->
          Apply
            {
              replica = fstr fields "replica";
              op_id = fopt fields "op";
              doc_len = fint fields "doc_len";
              tick = fint fields "tick";
            }
        | "wire" ->
          Wire
            {
              channel = fstr fields "channel";
              action = fstr fields "action";
              wseq = fint fields "wseq";
              info = fint fields "info";
              tick = fint fields "tick";
            }
        | "state_space_grow" ->
          State_space_grow
            {
              replica = fstr fields "replica";
              level = fint fields "level";
              states = fint fields "states";
              transitions = fint fields "transitions";
            }
        | "span" ->
          Span { name = fstr fields "name"; dur_ns = ffloat fields "dur_ns" }
        | "gc_begin" ->
          Gc_begin
            {
              cycle = fint fields "cycle";
              trigger = fstr fields "trigger";
              meta = fint fields "meta";
              tick = fint fields "tick";
            }
        | "gc_end" ->
          Gc_end
            {
              cycle = fint fields "cycle";
              reclaimed_states = fint fields "reclaimed_states";
              reclaimed_log = fint fields "reclaimed_log";
              reclaimed_keys = fint fields "reclaimed_keys";
              meta = fint fields "meta";
              skipped = fint fields "skipped";
              tick = fint fields "tick";
            }
        | _ -> raise Bad_line
      in
      Some (seq, e)
    with Bad_line -> None)
