(* Fixture: a justified seussdead suppression — must lint clean. *)

(* seussdead: allow block-in-handler — the clock is read only from a process that owns the log *)
let log () = Obs.Log.create ~clock:(fun () -> Sim.Engine.yield (); 0.0) ()
