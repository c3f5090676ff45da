(** The lexer golden dump's format: each source with its tokens, their
    line and column, or the [Lex_error] it raises. *)

val render_source : string -> string
(** The dump block of one source under the current lexer. *)

val sources_of_dump : string -> string list
(** The sources of a dump, in order. *)
