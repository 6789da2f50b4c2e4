open Rlist_model

type event =
  | Generate of int * Intent.t
  | Deliver_to_server of int
  | Deliver_to_client of int

type t = event list

let pp_event ppf = function
  | Generate (i, intent) ->
    Format.fprintf ppf "c%d: %a" i Intent.pp intent
  | Deliver_to_server i -> Format.fprintf ppf "deliver c%d->server" i
  | Deliver_to_client i -> Format.fprintf ppf "deliver server->c%d" i

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_event) t

let update_count t =
  List.length
    (List.filter
       (function
         | Generate (_, Intent.Read) -> false
         | Generate _ -> true
         | Deliver_to_server _ | Deliver_to_client _ -> false)
       t)

let final_reads ~nclients =
  List.init nclients (fun i -> Generate (i + 1, Intent.Read))

type random_params = {
  updates : int;
  read_fraction : float;
  delete_fraction : float;
  deliver_bias : float;
}

let default_params =
  {
    updates = 40;
    read_fraction = 0.1;
    delete_fraction = 0.3;
    deliver_bias = 0.55;
  }

let validate ~nclients t =
  let in_range i = 1 <= i && i <= nclients in
  let rec go k = function
    | [] -> Ok ()
    | ( Generate (i, _)
      | Deliver_to_server i
      | Deliver_to_client i )
      :: _
      when not (in_range i) ->
      Error (Printf.sprintf "event %d refers to client %d of %d" k i nclients)
    | _ :: rest -> go (k + 1) rest
  in
  go 0 t
