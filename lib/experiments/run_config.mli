(** How one run is armed: the sanitizers, the fault plane, working-set
    prefault and the snapshot store, as one typed record.

    This is the only place the library reads the environment. A binary
    parses the [SEUSS_*] variables ({!of_env}) and hands the record to
    {!Harness}, which applies it through the explicit arguments of
    [Sim.Engine.create], [Sim.Hb], [Faults.Fault] and [Seuss.Config].
    Harness entry points called without a record parse the environment
    themselves.

    One contract holds for every variable: absent, empty, [0] and the
    other off spellings ([false]/[no]/[off]) all mean {!default}, so an
    off run is byte-identical to an unarmed one. A value that does not
    parse is an error naming the variable, never a silent fallback. *)

type t = {
  tie_seed : int64 option;
      (** [SEUSS_SHUFFLE_SEED]: seeds the engine's same-timestamp tie
          shuffler *)
  hb : bool;  (** [SEUSS_HB]: the happens-before race checker *)
  deadlock : bool;  (** [SEUSS_DEADLOCK]: the wait-for-graph detector *)
  own : bool;  (** [SEUSS_OWN]: the engine-exit ownership census *)
  fault_rate : float;
      (** [SEUSS_FAULT_RATE]: every injection site at this rate, in
          [\[0, 1\]]; [0] installs no plan *)
  fault_seed : int64 option;
      (** [SEUSS_FAULT_SEED]: overrides the fault-plan seed the harness
          derives from the run seed *)
  prefault : bool;
      (** [SEUSS_PREFAULT]: force working-set prefault on for
          harness-built nodes *)
  snap_cache_bytes : int64;
      (** [SEUSS_SNAP_CACHE]: snapshot-store byte budget for
          harness-built nodes, plain or with a binary [k]/[m]/[g]
          suffix; [0] leaves the store disarmed *)
  snap_policy : Seuss.Config.snap_policy option;
      (** [SEUSS_SNAP_POLICY]: [lru] or [ws] *)
}

val default : t
(** Nothing armed. *)

val vars : string list
(** The 9 variable names {!parse} reads, in record order. *)

val parse : (string * string) list -> (t, string) result
(** Build a run configuration from [(variable, value)] bindings.
    Bindings for other names are ignored. Values are trimmed and
    case-insensitive. [Error] names the first malformed variable. *)

val of_env : unit -> (t, string) result
(** {!parse} over the process environment. *)

val parse_bytes : string -> int64 option
(** The [SEUSS_SNAP_CACHE] byte-size syntax, also used by command-line
    flags: a non-negative count with an optional binary [k]/[m]/[g]
    suffix. [None] when malformed. *)
