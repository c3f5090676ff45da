(** The pass table: base and heat, in that order. Rule
    ownership, seusslint's [--pass] values, [--list-rules] sections,
    [--time] labels and dispatch all derive from it. *)

val all : Pass.t list

val pass_of : Rules.id -> string
(** The name of the pass enforcing a rule. *)

val program : dirs:string list -> Source.t list -> Pass.program
(** The shared state of one run over loaded sources and the directories
    walked in full to find them ({!Source.scanned_dirs}): the call graph
    is built at most once, by the first pass that needs it. *)

val check : Pass.program -> Pass.t -> Source.violation list
(** Run one pass; its violations plus a [parse-error] per unparsable
    file, sorted. *)

val merge :
  (Pass.t * Source.violation list) list -> (Pass.t * Source.violation) list
(** Several passes' results as one sorted report, each violation with
    the pass that produced it. Passes can surface the same finding (an
    [ambiguous-resolve] collision, a [parse-error]); it is reported
    once, attributed to the first pass in table order. *)

val check_tree :
  ?strip_prefix:string -> Pass.t -> string list -> Source.violation list
(** [check] over {!Source.load_tree}. *)

val check_file : ?rel:string -> string -> Source.violation list
(** The base pass over one file; [rel] overrides its repo-relative path. *)
