(** The experiment subcommands of [seussctl], one row each: [seussctl]
    builds a subcommand per row plus [all] and [info] from {!rows}, and
    the arm sweep (test/test_arms.ml) runs the same rows through {!run}. *)

open Cmdliner

val pos_int : int Arg.conv
val nonneg_int : int Arg.conv
val pos_float : float Arg.conv
val seed_arg : int64 Term.t

type row = {
  name : string;  (** the subcommand *)
  doc : string;
  term : string Term.t;
      (** its flags, plus [--json] and [--csv PATH], which every row
          takes; evaluates to what it prints: the experiment's report as
          text, or as JSON with [--json] *)
  quick : string list;
      (** argument lines (without [--seed]) that [seussctl all] runs and
          joins with ["\n"] into the row's section *)
  full : string list;  (** the same for [all --full], the paper's scale *)
}

val rows : row list
(** In the section order of [seussctl all]. *)

val words : string -> string list
(** An argument line split on spaces. *)

val run : row -> string list -> string
(** [run row args]: what [seussctl row.name args] prints. Exceptions
    from the experiment propagate; arguments that do not parse raise
    [Failure] after Cmdliner's message on stderr. *)
