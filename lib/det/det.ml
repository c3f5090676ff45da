(* Deterministic, sorted views over [Hashtbl].

   [Hashtbl.iter]/[Hashtbl.fold] enumerate buckets in an order that
   depends on insertion history, so any result that reaches output, the
   event heap, or resource teardown through them is a latent
   reproducibility bug. seusslint bans the raw iterators tree-wide; code
   goes through these wrappers (or carries an explicit allow comment for
   a provably order-insensitive use).

   Keys are ordered by polymorphic [compare]. Bindings hidden by
   [Hashtbl.add] shadowing are included like the raw iterators would —
   the codebase only uses [replace], so in practice keys are unique. *)

let bindings_by cmp tbl =
  (* seusslint: allow hashtbl-order — this wrapper is the sanctioned sort point *)
  let raw = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> cmp a b) raw

let bindings tbl = bindings_by compare tbl

let keys tbl = List.map fst (bindings tbl)

let iter f tbl = List.iter (fun (k, v) -> f k v) (bindings tbl)

let fold f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings tbl)
