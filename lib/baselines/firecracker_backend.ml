(* Guest kernel + rootfs + Node.js, nothing shared: 88 GB / ~195 MB
   lands at the paper's ~450 instances. *)
let vm_pages = 50_000

let boot_time = 3.1

let device_parallelism = 4

type t = {
  env : Seuss.Osenv.t;
  setup : Sim.Semaphore.t;
  mutable count : int;
  mutable spaces : Mem.Addr_space.t list;
}

let create env =
  { env; setup = Sim.Semaphore.create device_parallelism; count = 0; spaces = [] }

let create_instance t () =
  let space = Mem.Addr_space.create t.env.Seuss.Osenv.frames in
  match
    Sim.Semaphore.with_permit t.setup (fun () ->
        Seuss.Osenv.burn t.env boot_time;
        Mem.Addr_space.write_range space ~vpn:0 ~pages:vm_pages)
  with
  | _stats ->
      t.spaces <- space :: t.spaces;
      t.count <- t.count + 1;
      true
  | exception Mem.Frame.Out_of_memory ->
      Mem.Addr_space.release space;
      false

let destroy_instance t =
  match t.spaces with
  | [] -> ()
  | space :: rest ->
      t.spaces <- rest;
      Mem.Addr_space.release space;
      t.count <- t.count - 1

let marginal_bytes t () =
  if t.count = 0 then 0L
  else
    Int64.div
      (Mem.Frame.used_bytes t.env.Seuss.Osenv.frames)
      (Int64.of_int t.count)

let backend t =
  {
    Backend_intf.name = "Firecracker microVM";
    create_instance = create_instance t;
    instance_count = (fun () -> t.count);
    marginal_bytes = marginal_bytes t;
  }
