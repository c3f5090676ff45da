(* A simulated process that raises, left uncaught: the runtime's
   top-level handler must print the process name and the inner
   exception on stderr (a runtest rule in this directory checks it). *)

let () =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine ~name:"planted" (fun () ->
      Sim.Engine.sleep 1.0;
      invalid_arg "planted cause");
  Sim.Engine.run engine
