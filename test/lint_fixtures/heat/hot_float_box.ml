(* Fixture: a float-arithmetic result stored into a record field. *)

type acc = { mutable sum : float; mutable count : int }

(* seussheat: hot — fixture hot root *)
let bump a v = a.sum <- a.sum +. v

(* The same store into an all-float record is unboxed (the record is one
   flat float block), so it is not flagged. *)
type sums = { mutable flat_sum : float; mutable flat_max : float }

(* seussheat: hot — fixture hot root *)
let add s v = s.flat_sum <- s.flat_sum +. v
