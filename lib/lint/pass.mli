(** A lint pass and the program it runs over.

    Each pass is one entry of the table in {!Passes}: its name, the
    rules it enforces, its marker grammar, how to suppress its rules,
    and the analysis itself. *)

type t = {
  name : string;  (** the [--pass] value *)
  rules : Rules.id list;
  marker : Marker.grammar;
  hint : string;
      (** how to suppress this pass's rules, e.g. ["a seussheat: cold
          marker"], for reports about a marker in the wrong pass *)
  check : program -> Source.violation list;
      (** the pass's violations, unsorted; parse errors are reported by
          the framework *)
}

and program = {
  sources : Source.t list;
  graph : Graph.t Lazy.t;  (** built on first use, once per run *)
  passes : t list;  (** the whole table, for cross-pass hints *)
}

val owner : program -> Rules.id -> t
(** The pass enforcing a rule. *)

val markers : program -> t -> Marker.t list * Source.violation list
(** Every source's markers for the pass, and the [bad-allow]s. *)
