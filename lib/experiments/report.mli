(** The result every experiment returns, and its three writers.

    A report is a title and a list of sections: prose (text only), named
    params (JSON only), tables and raw blocks. A table's columns are
    declared once, each with a JSON/CSV key, an optional text header and
    a cell accessor, so the writers all print the same cells:
    {!to_text} the underlined title and the prose, tables and raw blocks
    in order; {!to_json} one canonical JSON object (keys in order, floats
    round-tripping bit-exactly) of the params and tables, then the raw
    blocks; {!to_csv} the report's one table. *)

type align = Stats.Tablefmt.align = Left | Right

type cell =
  | Int of int
  | Float of { v : float; dp : int; unit : string }
      (** text: [dp] decimals ([%g] when negative), then the unit, after a
          space when it begins with a letter (["7.5 ms"], ["1.3/s"]); CSV:
          six decimals; JSON: the number *)
  | Int64 of int64  (** a byte count or a seed; a string in JSON *)
  | Bool of bool  (** [1]/[0] in CSV *)
  | Text of string
  | Absent  (** ["-"] in text and CSV; no member in JSON *)

val f : ?unit:string -> int -> float -> cell
(** [f ~unit dp v] is [Float { v; dp; unit }]. *)

val ms : float -> cell
(** Seconds as ["7.5 ms"]. *)

val mb : int64 -> cell
(** Bytes as ["2.0 MB"]. *)

val per_s : float -> cell
(** A rate as ["1.3/s"]. *)

type 'r column

val col :
  ?head:string ->
  ?align:align ->
  ?json:bool ->
  ?csv:bool ->
  string ->
  ('r -> cell) ->
  'r column
(** [col ~head key cell]: keyed [key] in JSON and CSV (in neither when
    [""], or where [~json:false] or [~csv:false]), and shown in text
    under [head] when given ([align] defaults to [Right]). *)

type section

val text : string -> section
(** Prose, a plot or a timeline: text only. *)

val params : (string * cell) list -> section
(** Parameters of the run: JSON only. *)

val table : string -> 'r column list -> 'r list -> section
(** In JSON, the list of row objects under the key. *)

val named : 'r column list -> (string * 'r) list -> section
(** In JSON, each row object under its own name. *)

val nested :
  string ->
  'r column list ->
  string ->
  'c column list ->
  ('r -> 'c list) ->
  'r list ->
  section
(** [nested key cols sub_key sub_cols children rows]: text and CSV print
    one record per child after its row's cells, and text rules off each
    row's group; JSON lists the children under [sub_key] in each row. *)

val raw : string -> section
(** Printed as is, in text and after the JSON object. *)

val comparison : (string * cell * cell) list -> section
(** The paper-vs-measured table ([quantities]): one (quantity, paper,
    measured) row each, plus the measured (else paper) unit in JSON and
    CSV. *)

val failed_calls : int -> section
(** The line a direct-node experiment adds for the calls not served on
    their expected path (see {!Harness.invoke}); none for 0. *)

type t = { title : string; sections : section list }

val to_text : t -> string
val to_json : t -> string

val to_csv : t -> string
(** @raise Invalid_argument unless the report has one table. *)
