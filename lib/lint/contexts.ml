(* The audited atomic-context list for the seussdead pass.

   An "atomic context" is a callback invoked in the middle of an
   update: a memory fault hook fires under a page-table update, a log's
   clock runs inside every emit, a race reporter runs inside the access
   it reports, and a deadlock reporter runs during quiescence analysis.
   Reached from a process, which runs under the engine's effect
   handler, a Sleep/Suspend there parks the process mid-update and lets
   other processes run against the half-done state; reached outside
   any process (a deadlock reporter), it is an unhandled effect and the
   run aborts. Either way, no may-block call may be reachable from one.

   [registrars] are the functions whose callback argument becomes
   atomic. The deadlock pass treats the callback expression at every
   call site of a registrar (matched by its last two path components) as
   an atomic region: a function literal is analyzed in place, a function
   name is analyzed through its interprocedural summary. A function
   installed as an atomic callback far from its definition is marked
   with (* seussdead: atomic <reason> *) on its definition instead. Each
   row names its defining file, so a registrar that is renamed or
   deleted without its row is a stale-registrar finding. *)

(* Which argument of a registrar is the atomic callback. *)
type callback_arg =
  | Label of string  (** the (possibly optional) labelled argument *)
  | Positional of int  (** 0-based index among unlabelled arguments *)

type registrar = {
  file : string;
  suffix : string;
  arg : callback_arg;
  desc : string;
}

let registrars =
  [
    { file = "lib/mem/addr_space.ml"; suffix = "Addr_space.set_fault_hook";
      arg = Positional 1; desc = "memory fault hook" };
    { file = "lib/sim/hb.ml"; suffix = "Hb.add_reporter";
      arg = Positional 1; desc = "race reporter" };
    { file = "lib/sim/engine.ml"; suffix = "Engine.add_deadlock_reporter";
      arg = Positional 1; desc = "deadlock reporter" };
    { file = "lib/obs/log.ml"; suffix = "Log.create";
      arg = Label "clock"; desc = "log clock callback" };
  ]

let binding r =
  let dot = String.rindex r.suffix '.' in
  String.sub r.suffix (dot + 1) (String.length r.suffix - dot - 1)

let registrar_of ~suffix =
  List.find_opt (fun r -> String.equal r.suffix suffix) registrars
