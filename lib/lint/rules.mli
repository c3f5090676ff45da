(** The seusslint rule catalogue.

    Every rule guards one way simulation determinism, resource safety or
    liveness has actually broken (or nearly broken) in this codebase.
    Which pass enforces a rule is recorded in the pass table
    ({!Passes}). *)

type id =
  | Bare_random  (** [Random.*] outside the seeded PRNG plumbing *)
  | Wallclock  (** [Unix.gettimeofday] / [Sys.time] inside lib/ *)
  | Hashtbl_order  (** raw [Hashtbl.iter]/[Hashtbl.fold] inside lib/ *)
  | Physical_eq  (** [==] / [!=] inside lib/ *)
  | Stdout_print  (** [print_*] / [Printf.printf] inside lib/ *)
  | Frame_site  (** frame acquire/release outside the audited site list *)
  | Ambient_env
      (** [Sys.getenv] / [Unix.environment] inside lib/, outside the
          run configuration *)
  | Block_in_handler
      (** a may-block call reachable from an atomic context (fault hook,
          reporter callback, heap comparator, crash handler) *)
  | Lock_order
      (** semaphore lock classes acquired in a cyclic order, or a
          [Semaphore.create] missing its [seussdead: lock] annotation *)
  | Unreleased_acquire
      (** a bare [Semaphore.acquire] whose function never releases the
          same lock class *)
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
  | Own_escape
      (** an acquired resource never released on any reachable path, at
          a site not registered as an ownership transfer *)
  | Own_exn_leak
      (** a raise while a resource acquired in the same function is
          still owned on that path *)
  | Own_double_release
      (** a second release of a resource already released on the path *)
  | Own_use_after_destroy
      (** a liveness-requiring UC operation after [Uc.destroy] *)
  | Own_unbalanced
      (** branch arms that disagree about releasing a pre-branch
          resource *)

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
(** ["bad-allow"]: malformed/unknown allow, lock or atomic comment. *)

val unused_allow : string
(** ["unused-allow"]: an annotation that suppresses or names nothing. *)

val parse_error : string
(** ["parse-error"]: the file failed to parse at all. *)

val ambiguous_resolve : string
(** ["ambiguous-resolve"]: a reference whose suffix-2 key is defined in
    two or more files (same module basename), so interprocedural
    resolution conflates distinct modules. *)
