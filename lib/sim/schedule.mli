(** Schedules: the temporal skeleton of an execution.

    A schedule (paper, Definition 4.7) fixes when each user operation
    is generated and when each message is delivered, independent of
    replica behaviour.  Two protocols run under the same schedule can
    then be compared event by event — the setting of the equivalence
    theorem (Theorem 7.1). *)

open Rlist_model

type event =
  | Generate of int * Intent.t
      (** [Generate (i, intent)]: client [i] performs a user intent. *)
  | Deliver_to_server of int
      (** Deliver the oldest pending message from client [i]'s channel
          to the server. *)
  | Deliver_to_client of int
      (** Deliver the oldest pending server message to client [i]. *)

type t = event list

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit

(** Number of [Generate] events carrying updates (inserts/deletes). *)
val update_count : t -> int

(** [final_reads ~nclients] appends one [Read] per client — handy for
    giving the specification checkers read events at quiescence. *)
val final_reads : nclients:int -> t

(** Statically checkable sanity: client numbers within range.  (Queue
    emptiness and position validity are only checkable at run time.) *)
val validate : nclients:int -> t -> (unit, string) result

(** Parameters for random schedule generation (see
    [Engine.Make.run_random]). *)
type random_params = {
  updates : int;  (** Total update intents to generate. *)
  read_fraction : float;  (** Chance that a generated intent is a read. *)
  delete_fraction : float;  (** Chance that an update is a deletion
                                (when the document is non-empty). *)
  deliver_bias : float;  (** Chance of delivering a pending message
                             rather than generating, when both are
                             possible.  Low values produce highly
                             concurrent executions. *)
}

val default_params : random_params
