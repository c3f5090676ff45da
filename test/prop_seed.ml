(* The property batteries' base seed. SEUSS_PROP_SEED overrides each
   suite's own default, so one variable rotates every battery. A
   malformed value stops the suite with exit 2 and names the variable,
   never falling back to the default in silence. *)

let var = "SEUSS_PROP_SEED"

let base ~default =
  match Sys.getenv_opt var with
  | None | Some "" -> default
  | Some s -> (
      match Int64.of_string_opt (String.trim s) with
      | Some v -> v
      | None ->
          Printf.eprintf "malformed %s=%S: expected an integer seed\n" var s;
          exit 2)
