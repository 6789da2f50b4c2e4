(* The correctness gate on one finished document.

   It holds when every replica has the same document and when the
   element set adds up: each element the session's inserts created is
   present exactly once unless one of its deletes removed it, each
   initial element is present unless deleted, and nothing else is
   there.  The accounting is taken from outside the engine — the
   element an insert created is read back from the generating client's
   document, the element a delete removes is read before the delete is
   applied — so it does not trust the protocol's own bookkeeping. *)

open Rlist_model

type t = {
  initial : int;
  inserted : unit Op_id.Table.t;
  deleted : unit Op_id.Table.t;
}

let create initial =
  {
    initial = Document.length initial;
    inserted = Op_id.Table.create 256;
    deleted = Op_id.Table.create 256;
  }

let inserted t (e : Element.t) = Op_id.Table.replace t.inserted e.id ()

let deleted t (e : Element.t) = Op_id.Table.replace t.deleted e.id ()

(* [docs] are the final replica documents, the reference first;
   [unconverged] counts updates some replica never applied.  [None]
   when the gate holds, else the first violation found. *)
let check t ~docs ~unconverged =
  match docs with
  | [] -> Some "no replicas"
  | reference :: others -> (
    let present (e : Element.t) =
      (Op_id.is_initial e.id || Op_id.Table.mem t.inserted e.id)
      && not (Op_id.Table.mem t.deleted e.id)
    in
    let expected =
      t.initial + Op_id.Table.length t.inserted - Op_id.Table.length t.deleted
    in
    if not (List.for_all (Document.equal reference) others) then
      Some "replicas differ"
    else if Document.has_duplicates reference then Some "duplicate element"
    else if unconverged > 0 then
      Some (Printf.sprintf "%d updates not applied at every replica" unconverged)
    else
      match Seq.find (fun e -> not (present e)) (Document.to_seq reference) with
      | Some e -> Some (Format.asprintf "unexpected element %a" Element.pp e)
      | None ->
        if Document.length reference <> expected then
          Some
            (Printf.sprintf "%d elements, expected %d"
               (Document.length reference) expected)
        else None)
