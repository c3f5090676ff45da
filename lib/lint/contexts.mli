(** The audited atomic-context list for the seussdead pass.

    Atomic contexts are callbacks the engine invokes outside any effect
    handler (memory fault hooks, reporter callbacks, log clocks): a
    [Sleep]/[Suspend] performed there is an unhandled effect and aborts
    the simulation, so {!Deadlock} reports any may-block call reachable
    from one as [block-in-handler]. *)

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
