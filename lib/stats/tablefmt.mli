(** Fixed-width text tables, used to render the paper's Tables 1-3. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** Column headers with per-column alignment. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the arity differs from the header. *)

val add_separator : t -> unit
(** A horizontal rule between row groups. *)

val render : t -> string
