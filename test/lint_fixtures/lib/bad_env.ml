(* Fixture: library code reading the process environment. *)
let armed () = Sys.getenv_opt "SEUSS_CHECK" = Some "1"
let home () = Sys.getenv "HOME"
let everything () = Unix.environment ()
