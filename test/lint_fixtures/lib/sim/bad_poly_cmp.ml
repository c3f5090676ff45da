(* Fixture: polymorphic comparison in a hot layer — a bare [compare],
   [=] against a structured operand, [min], [Stdlib.max] and
   [Hashtbl.hash]. *)

let worst a b = if compare a b < 0 then b else a
let is_origin p = p = "origin"
let clamp v = min v 100
let widest a b = Stdlib.max a b
let bucket k = Hashtbl.hash k land 7

(* Monomorphic comparisons and (=) on immediates are fine. *)
let ok a b = Int.compare a b < 0 && Int.max a b = b && a <> 0
