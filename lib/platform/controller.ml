type backend =
  | Seuss_backend of Seuss.Shim.t
  | Linux_backend of Baselines.Linux_node.t
  | Pool_backend of Baselines.Pool_node.t

type fn_spec = { fn_id : string; action : Baselines.Backend_intf.action }

type t = {
  backend : backend;
  pipeline : Sim.Semaphore.t;
  mutable count : int;
}

let control_plane_overhead = 6.5e-3

let create _engine backend =
  { backend; pipeline = Sim.Semaphore.create 1; count = 0 }

let backend t = t.backend

let control_plane t =
  Sim.Semaphore.with_permit t.pipeline (fun () ->
      Sim.Engine.sleep control_plane_overhead)

let invoke_custom t ~fn_id ~action ~source =
  t.count <- t.count + 1;
  control_plane t;
  match t.backend with
  | Seuss_backend shim -> (
      let fn =
        { Seuss.Node.fn_id; runtime = Unikernel.Image.Node; source }
      in
      match Seuss.Shim.invoke shim fn ~args:Workloads.args_literal with
      | Ok _, _ -> Ok ()
      | Error `Timeout, _ -> Error "timeout"
      | Error `Overloaded, _ -> Error "overloaded"
      | Error `No_runtime, _ -> Error "no runtime"
      | Error (`Compile_error m), _ -> Error ("compile: " ^ m)
      | Error (`Runtime_error m), _ -> Error ("runtime: " ^ m))
  | Linux_backend node -> (
      let fn = { Baselines.Linux_node.fn_id; action } in
      match Baselines.Linux_node.invoke node fn with
      | Ok (), _ -> Ok ()
      | Error `Timeout, _ -> Error "timeout"
      | Error `Connection_failed, _ -> Error "connection failed"
      | Error `Overloaded, _ -> Error "overloaded")
  | Pool_backend node -> (
      match Baselines.Pool_node.invoke node ~fn_id ~action with
      | Ok () -> Ok ()
      | Error `Overloaded -> Error "overloaded")

let invoke t spec =
  invoke_custom t ~fn_id:spec.fn_id ~action:spec.action
    ~source:(Workloads.source_of_action spec.action)

let requests t = t.count
