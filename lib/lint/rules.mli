(** The seusslint rule catalogue.

    Every rule guards one way simulation determinism, resource safety or
    liveness has actually broken (or nearly broken) in this codebase.
    Which pass enforces a rule is recorded in the pass table
    ({!Passes}). *)

type id =
  | Bare_random  (** [Random.*] outside the seeded PRNG plumbing *)
  | Wallclock  (** [Unix.gettimeofday] / [Sys.time] inside lib/ *)
  | Hashtbl_order
      (** a raw [Hashtbl] bucket-order enumerator ([iter], [fold],
          [filter_map_inplace], [to_seq], [to_seq_keys],
          [to_seq_values]) inside lib/ *)
  | Physical_eq  (** [==] / [!=] inside lib/ *)
  | Stdout_print  (** [print_*] / [Printf.printf] inside lib/ *)
  | Frame_site  (** frame acquire/release outside the audited site list *)
  | Ambient_env
      (** [Sys.getenv] / [Unix.environment] inside lib/, outside the
          run configuration *)
  | Heat_closure  (** a closure allocated inside a hot function body *)
  | Heat_alloc
      (** tuple/record/array/constructor/ref construction, or a call to
          a known-allocating stdlib function, on a hot path *)
  | Heat_string
      (** string building — [^], [String.concat], [Printf]/[Format] —
          on a hot path *)
  | Heat_float_box
      (** a float arithmetic result stored into a record field, which
          boxes unless the record is all-float *)
  | Heat_poly_cmp
      (** polymorphic [compare]/[=]/[min]/[max]/[Hashtbl.hash] on a hot
          path *)
  | Heat_partial
      (** partial application on a hot path: a closure per call *)

val all : id list
(** The catalogue, in [--list-rules] order. *)

val name : id -> string
(** Stable kebab-case identifier, as printed and as written in allow
    comments. *)

val of_name : string -> id option

val describe : id -> string
(** One-paragraph rationale for [--list-rules]. *)

(** {1 Meta-diagnostics}

    Emitted by the checkers themselves and never suppressible — an
    annotation that is wrong or dead is itself the defect reported. *)

val bad_allow : string
(** ["bad-allow"]: a malformed marker comment, or one naming an unknown
    verb or rule. *)

val unused_allow : string
(** ["unused-allow"]: an annotation that suppresses or names nothing. *)

val parse_error : string
(** ["parse-error"]: the file failed to parse at all. *)

val ambiguous_resolve : string
(** ["ambiguous-resolve"]: a reference whose suffix-2 key is defined in
    two or more files (same module basename), so interprocedural
    resolution conflates distinct modules. *)

val stale_root : string
(** ["stale-hot-root"]: a {!Hotroots.registry} entry whose file was
    scanned but defines no top-level binding of that name, or is
    missing from a scanned directory, so the root seeds nothing. *)
