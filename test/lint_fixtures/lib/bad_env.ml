(* Fixture: library code reading the process environment. *)
let armed () = Sys.getenv_opt "SEUSS_HB" = Some "1"
let home () = Sys.getenv "HOME"
let everything () = Unix.environment ()
