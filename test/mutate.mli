(** Seeded byte mutations of valid inputs for the fuzz batteries. *)

val mutant : string list -> string QCheck.Gen.t
(** One to six random edits of a random member of the corpus. *)

val rand : seed:int64 -> string -> Random.State.t
(** The random state the battery of the given name draws from. *)

val minijs_name : string
(** The MiniJS battery's name, which picks its random stream. *)

val minijs_corpus : string list
(** Valid MiniJS programs, the MiniJS battery's corpus. *)
