(* A long-lived simulated SEUSS node for the host probes and the output
   check: each use spawns one process on the fixture's engine and drives
   the engine to quiescence, so the engine is reused across calls. *)

type t = {
  engine : Sim.Engine.t;
  env : Seuss.Osenv.t;
  node : Seuss.Node.t;
  base : Seuss.Snapshot.t;
}

let run_on engine f =
  let result = ref None in
  Sim.Engine.spawn engine ~name:"probe" (fun () -> result := Some (f ()));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> failwith "fixture: probe did not finish"

let run fx f = run_on fx.engine f

let create () =
  let engine = Sim.Engine.create ~seed:99L () in
  let env =
    Seuss.Osenv.create
      ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib (16 * 1024)))
      engine
  in
  let node = Seuss.Node.create env in
  run_on engine (fun () -> Seuss.Node.start node);
  match Seuss.Node.base_snapshot node Unikernel.Image.Node with
  | Some base -> { engine; env; node; base }
  | None -> failwith "fixture: node booted without a base snapshot"

let fn i =
  {
    Seuss.Node.fn_id = Workload.Fnset.fn_id i;
    runtime = Unikernel.Image.Node;
    source = Workload.Fnset.source i;
  }

(* The function's answer from the host interpreter alone: the reference
   every SEUSS path must reproduce. *)
let reference i =
  match
    Interp.Minijs.load ~host:Interp.Builtins.null_host (Workload.Fnset.source i)
  with
  | Error e -> Error e
  | Ok prog ->
      Interp.Minijs.run_main prog ~args_literal:Platform.Workloads.args_literal

(* Serve each function cold, then hot from the idle UC it leaves, then
   warm from its function snapshot once the idle UC is dropped, and
   compare every reply with [reference]. Returns the mismatches. *)
let check_outputs fx fns =
  let node_path = function
    | Seuss.Node.Cold -> "cold"
    | Warm -> "warm"
    | Hot -> "hot"
  in
  run fx (fun () ->
      List.concat_map
        (fun i ->
          let expected = reference i in
          let serve want =
            match
              Seuss.Node.invoke fx.node (fn i)
                ~args:Platform.Workloads.args_literal
            with
            | _, path when node_path path <> want ->
                [ Printf.sprintf "%s: expected a %s call, got %s" (fn i).fn_id
                    want (node_path path) ]
            | Ok out, _ when expected = Ok out -> []
            | Ok out, _ ->
                [ Printf.sprintf "%s (%s): replied %S" (fn i).fn_id want out ]
            | Error _, _ ->
                [ Printf.sprintf "%s (%s): call failed" (fn i).fn_id want ]
          in
          let cold = serve "cold" in
          let hot = serve "hot" in
          Seuss.Node.drop_idle fx.node ~fn_id:(fn i).fn_id;
          cold @ hot @ serve "warm")
        fns)
