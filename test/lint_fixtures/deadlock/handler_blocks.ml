(* Fixture: may-block calls reachable from atomic contexts — every
   region here must trip block-in-handler. *)

let lock = Sim.Semaphore.create 1

(* Blocks transitively: with_permit suspends when the permit is taken. *)
let slow_clock () = Sim.Semaphore.with_permit lock (fun () -> 0.0)

(* A log's clock runs inside every Log.emit — must not block. *)
let log () = Obs.Log.create ~clock:slow_clock ()

(* A fault hook literal that sleeps — blocks directly. *)
let hook space =
  Mem.Addr_space.set_fault_hook space (fun _ _ -> Sim.Engine.sleep 1e-6)

(* seussdead: atomic runs from a deadlock reporter *)
let drain_on_report ch = ignore (Sim.Channel.recv ch)
