type t = {
  env : Osenv.t;
  target : Node.t;
  (* One TCP connection to the VM: transfers serialize on it. *)
  conn_lock : Sim.Semaphore.t;
}

let create env target =
  { env; target; conn_lock = Sim.Semaphore.create 1 }

let transfer t =
  Sim.Semaphore.with_permit t.conn_lock (fun () ->
      Sim.Engine.sleep Cost.shim_per_message)

let invoke t fn ~args =
  transfer t;
  let result = Node.invoke t.target fn ~args in
  transfer t;
  result

let deploy_idle t runtime =
  transfer t;
  let ok = Node.deploy_idle t.target runtime in
  transfer t;
  ok
