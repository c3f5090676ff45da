(* A simulated process that raises, left uncaught: stderr must name the
   process and the inner exception, and under OCAMLRUNPARAM=b trace back
   to the raise on line 9 (runtest rules in this directory check both). *)

let () =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine ~name:"planted" (fun () ->
      Sim.Engine.sleep 1.0;
      raise (Invalid_argument "planted cause") (* raised in this frame *));
  Sim.Engine.run engine
