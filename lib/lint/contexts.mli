(** The audited atomic-context list for the seussdead pass.

    Atomic contexts are callbacks invoked in the middle of an update
    (memory fault hooks, log clocks, race and deadlock reporters). A
    [Sleep]/[Suspend] there parks a process mid-update, or, outside any
    process, is an unhandled effect that aborts the run, so {!Deadlock}
    reports any may-block call reachable from one as
    [block-in-handler]. *)

type callback_arg =
  | Label of string  (** the (possibly optional) labelled argument *)
  | Positional of int  (** 0-based index among unlabelled arguments *)

type registrar = {
  file : string;  (** repo-relative defining file *)
  suffix : string;
      (** last two components of the registrar's path, e.g.
          ["Log.create"] *)
  arg : callback_arg;  (** which argument is the atomic callback *)
  desc : string;  (** human description for reports *)
}

val registrars : registrar list
(** An entry whose file is scanned but no longer defines the binding,
    or is missing from a scanned directory, is a [stale-registrar]
    finding. *)

val binding : registrar -> string
(** The top-level binding [file] defines: [suffix]'s last component. *)

val registrar_of : suffix:string -> registrar option
(** Look a call target up by its last two path components
    (e.g. ["Log.create"]). *)
