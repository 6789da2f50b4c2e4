(** Workload profiles for collaborative-editing simulations.

    A profile describes {e how} users edit; instantiating it with an
    RNG yields a stateful intent generator that plugs into
    [Engine.run_random] and into the soak driver's rounds
    ([Rlist_run.Longrun]).  The profiles model the editing behaviours
    collaborative-text-editing papers exercise: interactive typing,
    mixed revising, everyone fighting over one hot region, append-only
    logging, and uniformly random churn. *)

open Rlist_model

type profile =
  | Uniform  (** Positions uniform over the document; ~30% deletes. *)
  | Typing  (** Each client keeps a cursor: mostly consecutive inserts,
                occasional backspace, rare cursor jumps. *)
  | Hotspot  (** All clients edit near the front of the document
                 (geometric positions) — maximal conflict rate. *)
  | Append_log  (** Inserts only, always at the end of the document. *)
  | Churn  (** Half deletions: the document stays short while the
               operation history grows. *)

val all_profiles : profile list

val profile_name : profile -> string

val profile_of_name : string -> profile option

(** [intent_generator profile ~nclients ~rng] creates the stateful
    per-client generator.  Every produced intent is valid for the
    document length passed in. *)
val intent_generator :
  profile ->
  nclients:int ->
  rng:Random.State.t ->
  client:int ->
  doc_length:int ->
  Intent.t

(** Scheduling parameters that suit the profile (concurrency level,
    read mix) with the given number of updates.  The soak driver
    takes only [read_fraction] from them; its concurrency is set by
    its per-profile round window instead of [deliver_bias]. *)
val params : profile -> updates:int -> Rlist_sim.Schedule.random_params
