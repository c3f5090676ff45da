(** The seusslint rule catalogue.

    Every rule guards one way simulation determinism, resource safety or
    liveness has actually broken (or nearly broken) in this codebase.
    The {!syntactic} rules are decidable per-file on names alone and are
    enforced by {!Check}; the {!deadlock} rules need the interprocedural
    call graph built by {!Deadlock} over the whole tree, the {!heat}
    rules flag allocation/boxing reachable from the registered hot roots
    ({!Hotroots}), enforced by {!Heat}, and the {!own} rules track
    acquire/release typestate for frames, snapshot references and
    unikernel contexts, enforced by {!Own}. *)

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

val syntactic : id list
(** Rules enforced per-file by the base pass ({!Check.check_file}). *)

val deadlock : id list
(** Rules enforced by the interprocedural pass ({!Deadlock.check_tree}). *)

val heat : id list
(** Rules enforced by the hot-path pass ({!Heat.check_tree}),
    suppressed with [(* seussheat: cold — <reason> *)] markers. *)

val own : id list
(** Rules enforced by the ownership pass ({!Own.check_tree}),
    suppressed with [(* seussown: transfer — <reason> *)] markers. *)

val all : id list
(** [syntactic @ deadlock @ heat @ own]. *)

val pass_of : id -> string
(** The seusslint pass that enforces the rule: ["base"], ["deadlock"],
    ["heat"] or ["own"]. *)

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
