let container_private_pages =
  Process_backend.private_pages_per_process + 1_890 (* + ~7.4 MB overhead *)

let creation_base_time = 0.541
let creation_per_container = 0.5e-3
let concurrency_penalty = 0.15
let deletion_time = 0.300

type t = {
  env : Seuss.Osenv.t;
  bridge : Net.Bridge.t;
  image : Mem.Page_table.t;
  mutable inflight_creations : int;
  mutable containers : int;
  mutable spaces : Mem.Addr_space.t list;
}

let create env bridge =
  let image_space = Mem.Addr_space.create env.Seuss.Osenv.frames in
  ignore
    (Mem.Addr_space.write_range image_space ~vpn:0
       ~pages:Process_backend.shared_image_pages);
  Mem.Addr_space.freeze image_space;
  {
    env;
    bridge;
    image = Mem.Addr_space.table image_space;
    inflight_creations = 0;
    containers = 0;
    spaces = [];
  }

let creation_latency t =
  let population =
    creation_base_time
    +. (creation_per_container *. float_of_int t.containers)
  in
  let concurrency =
    1.0 +. (concurrency_penalty *. float_of_int (max 0 (t.inflight_creations - 1)))
  in
  population *. concurrency

(* One `docker run`: daemon work growing with both the container
   population (§7: 541 ms empty -> ~1.5 s past 1,000 containers) and the
   number of concurrent creations, plus a veth attach whose broadcast is
   processed once per attached endpoint. *)
(* Creation latency is mostly dockerd lock/IO waiting, not compute:
   only a small slice occupies a core, the rest is wall-clock sleep.
   Charging it all as CPU would make concurrent creations compound
   through the core queue, which the real system does not do. *)
let creation_cpu_slice = 0.08

let create_container_space t =
  t.inflight_creations <- t.inflight_creations + 1;
  let finish result =
    t.inflight_creations <- t.inflight_creations - 1;
    result
  in
  match
    let latency = creation_latency t in
    Seuss.Osenv.burn t.env (Float.min creation_cpu_slice latency);
    Sim.Engine.sleep (Float.max 0.0 (latency -. creation_cpu_slice));
    Net.Bridge.add_endpoint t.bridge;
    Mem.Addr_space.of_table ~mapped_hint:Process_backend.shared_image_pages
      t.env.Seuss.Osenv.frames t.image
  with
  | exception Mem.Frame.Out_of_memory -> finish None
  | space -> (
      try
        ignore
          (Mem.Addr_space.write_range space
             ~vpn:Process_backend.shared_image_pages
             ~pages:container_private_pages);
        t.containers <- t.containers + 1;
        finish (Some space)
      with Mem.Frame.Out_of_memory ->
        Mem.Addr_space.release space;
        Net.Bridge.remove_endpoint t.bridge;
        finish None)

let create_container_raw t =
  match create_container_space t with
  | Some space ->
      t.spaces <- space :: t.spaces;
      true
  | None -> false

let destroy_container_raw t space =
  Seuss.Osenv.burn t.env 0.02;
  Sim.Engine.sleep (deletion_time -. 0.02);
  Net.Bridge.remove_endpoint t.bridge;
  (match space with Some s -> Mem.Addr_space.release s | None -> ());
  t.containers <- t.containers - 1

let marginal_bytes t () =
  if t.containers = 0 then 0L
  else
    Int64.div
      (Mem.Frame.used_bytes t.env.Seuss.Osenv.frames)
      (Int64.of_int t.containers)

let backend t =
  {
    Backend_intf.name = "Docker w/ overlay2 fs";
    create_instance = (fun () -> create_container_raw t);
    instance_count = (fun () -> t.containers);
    marginal_bytes = marginal_bytes t;
  }
