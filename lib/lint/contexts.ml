(* The audited atomic-context list for the seussdead pass.

   An "atomic context" is code the engine runs outside any effect
   handler: heap comparators fire inside Heap.push/pop during event
   dispatch, fault hooks fire under a page-table update, reporter
   callbacks fire during quiescence analysis, and crash handlers fire
   while the process handler is unwinding. Performing Sleep/Suspend
   there is an unhandled effect — the simulation aborts — so no
   may-block call may be reachable from one.

   [registrars] are the functions whose callback argument becomes
   atomic. The deadlock pass treats the callback expression at every
   call site of a registrar (matched by its last two path components) as
   an atomic region: a function literal is analyzed in place, a function
   name is analyzed through its interprocedural summary. A function
   installed as an atomic callback far from its definition is marked
   with (* seussdead: atomic <reason> *) on its definition instead. *)

(* Which argument of a registrar is the atomic callback. *)
type callback_arg =
  | Label of string  (** the (possibly optional) labelled argument *)
  | Positional of int  (** 0-based index among unlabelled arguments *)

(* (last two components of the registrar's path, callback argument,
   human description for reports) *)
let registrars : (string * callback_arg * string) list =
  [
    ("Heap.create", Label "cmp", "heap comparator");
    ("Addr_space.set_fault_hook", Positional 1, "memory fault hook");
    ("Hb.add_reporter", Positional 1, "race reporter");
    ("Engine.add_deadlock_reporter", Positional 1, "deadlock reporter");
    ("Engine.spawn_supervised", Label "on_crash", "crash handler");
    ("Log.create", Label "clock", "log clock callback");
  ]

let registrar_of ~suffix =
  List.find_opt (fun (s, _, _) -> String.equal s suffix) registrars
