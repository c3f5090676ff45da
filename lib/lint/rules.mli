(** The seusslint rule catalogue.

    Every rule guards one way simulation determinism, resource safety or
    host speed has actually broken (or nearly broken) in this codebase. *)

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
  | Poly_cmp
      (** polymorphic [compare]/[=]/[min]/[max]/[Hashtbl.hash] in
          lib/sim, lib/mem, lib/obs or lib/workload *)

val all : id list
(** The catalogue, in [--list-rules] order. *)

val name : id -> string
(** Stable kebab-case identifier, as printed and as written in allow
    comments. *)

val of_name : string -> id option

val describe : id -> string
(** One-paragraph rationale for [--list-rules]. *)

(** {1 Meta-diagnostics}

    Emitted by the checker itself and never suppressible — an allow
    comment that is wrong or dead is itself the defect reported. *)

val bad_allow : string
(** ["bad-allow"]: a malformed allow comment, or one naming an unknown
    rule or giving no reason. *)

val unused_allow : string
(** ["unused-allow"]: an allow comment that suppresses nothing. *)

val parse_error : string
(** ["parse-error"]: the file failed to parse at all. *)
