(** Run the complete reproduction: every table and figure, rendered as
    one report. *)

type scale = Quick | Full
(** [Quick] trims counts/ladders for a fast smoke run (a few minutes on
    one core); [Full] uses the paper's parameters (475-invocation
    microbenchmarks, 88 GB density sweeps, 300 s bursts at all three
    periods). *)

type experiment = {
  name : string;  (** the [seussctl] subcommand *)
  doc : string;  (** its one-line doc *)
  section : scale -> seed:int64 -> string;
      (** run the experiment at [scale] and render its section of
          {!run}'s report, announcing it on stderr *)
}

val registry : experiment list
(** Every experiment-producing [seussctl] subcommand, in report order —
    the single source of the CLI's experiment docs, of the list printed
    by [seussctl info] and of the sections of {!run}. *)

val doc : string -> string option
(** Look a subcommand's doc up in {!registry}. *)

val run : ?scale:scale -> ?seed:int64 -> unit -> string
(** Every {!registry} section in order, each followed by a blank line. *)
