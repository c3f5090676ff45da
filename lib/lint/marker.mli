(** Allow comments: [(* seusslint: allow <rule> [—|--|-] <reason> *)].

    A doc-comment's leading [*] is tolerated, and the separator before
    the reason is optional. A comment covers its own lines and the line
    after it. *)

type t

val scan : Source.t -> t list * Source.violation list
(** The file's well-formed allow comments, in source order, and a
    [bad-allow] for every malformed one: an unknown verb or rule, or no
    reason. *)

val suppress : t list -> Source.violation list -> Source.violation list
(** Drop each violation covered by an allow comment naming its rule,
    marking the nearest such comment used. *)

val unused : t list -> Source.violation list
(** [unused-allow] for every allow comment never marked used. *)
