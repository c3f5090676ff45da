(* Fixture: may-block calls reachable from atomic contexts — every
   region here must trip block-in-handler. *)

let lock = Sim.Semaphore.create 1 (* seussdead: lock fixture.handler *)

(* Blocks transitively: with_permit suspends when the permit is taken. *)
let slow_compare a b =
  Sim.Semaphore.with_permit lock (fun () -> compare a b)

(* A comparator runs inside Heap.create's handler — must not block. *)
let heap () = Sim.Heap.create ~cmp:slow_compare ()

(* A fault hook literal that sleeps — blocks directly. *)
let hook space =
  Mem.Addr_space.set_fault_hook space (fun _ _ -> Sim.Engine.sleep 1e-6)

(* seussdead: atomic runs from the crash-unwind path *)
let drain_on_crash ch = ignore (Sim.Channel.recv ch)
