(** The one marker grammar every pass shares.

    A marker is a comment [<marker> <verb> [<arg>] [—|--|- <reason>]]
    (a doc-comment's leading [*] is tolerated); the separator before the
    reason is optional. It covers the comment's own lines and the line
    after it. A pass supplies its marker word and a verb table; parsing,
    validation, coverage, suppression and the [bad-allow] /
    [unused-allow] meta-rules are shared. *)

type arg =
  | No_arg
  | Rule  (** a rule id, which must belong to the scanning pass *)
  | Word  (** any single word, e.g. a lock class *)

type verb = {
  verb : string;
  arg : arg;
  reason : bool;
      (** a reason is required; when [false], any text after the
          argument makes the marker malformed *)
  unused : string -> string;
      (** the [unused-allow] message for a dead marker, given its arg *)
}

type grammar = {
  word : string;  (** e.g. ["seussheat:"] *)
  verbs : verb list;
  malformed : string;  (** the [bad-allow] message for an unknown verb *)
}

type t = {
  m_verb : string;
  m_arg : string;  (** [""] for a verb without an argument *)
  m_file : string;
  m_line : int;  (** first covered line: where the comment starts *)
  m_last : int;  (** last covered line: the one after the comment *)
  mutable m_used : bool;
}

val scan :
  grammar ->
  rules:Rules.id list ->
  foreign:(Rules.id -> string) ->
  Source.t ->
  t list * Source.violation list
(** The file's well-formed markers, in source order, and a [bad-allow]
    for every malformed one. A [Rule] argument must be one of [rules];
    a catalogued rule of another pass is reported as belonging to
    [foreign rule]. *)

val covers : t -> file:string -> int -> bool

val covering : t list -> file:string -> int -> t option
(** The nearest marker covering the line: the last in source order, so
    each of several consecutive markers claims its own line. *)

val with_verb : string -> t list -> t list

val suppress : t list -> Source.violation list -> Source.violation list
(** Drop each violation covered by a marker whose argument is its rule
    (or that has no argument), marking the nearest such marker used. *)

val unused : grammar -> t list -> Source.violation list
(** [unused-allow] for every marker never marked used. *)
