type kind = Firecracker | Process

type config = { cache_limit : int }

let default_config = { cache_limit = 1024 }

(* Importing function code into a new instance, and per-request handling
   inside it: the OpenWhisk operating point. *)
let init_time = 0.055
let dispatch_time = 1.2e-3

type stats = {
  creates : int;
  warm_hits : int;
  evictions : int;
  errors : int;
}

type instance = {
  mutable i_fn : string;
  mutable busy : bool;
  mutable dead : bool;
}

type t = {
  env : Seuss.Osenv.t;
  cfg : config;
  kind : kind;
  backend : Backend_intf.t;
  destroy : unit -> unit;
  warm : (string, instance Queue.t) Hashtbl.t;
  (* Idle instances in rough LRU order (stale entries re-validated). *)
  lru : instance Queue.t;
  mutable total : int;
  mutable s_creates : int;
  mutable s_warm : int;
  mutable s_evictions : int;
  mutable s_errors : int;
}

let create ?config ~kind env =
  let cfg = Option.value config ~default:default_config in
  let backend, destroy =
    match kind with
    | Firecracker ->
        let b = Firecracker_backend.create env in
        ( Firecracker_backend.backend b,
          fun () -> Firecracker_backend.destroy_instance b )
    | Process ->
        let b = Process_backend.create env in
        (Process_backend.backend b, fun () -> Process_backend.destroy_instance b)
  in
  {
    env;
    cfg;
    kind;
    backend;
    destroy;
    warm = Hashtbl.create 1024;
    lru = Queue.create ();
    total = 0;
    s_creates = 0;
    s_warm = 0;
    s_evictions = 0;
    s_errors = 0;
  }

let kind t = t.kind
let instance_count t = t.total

let idle_count t =
  Det.fold
    (fun _ q acc ->
      Queue.fold (fun acc i -> if i.dead || i.busy then acc else acc + 1) acc q)
    t.warm 0

let stats t =
  {
    creates = t.s_creates;
    warm_hits = t.s_warm;
    evictions = t.s_evictions;
    errors = t.s_errors;
  }

(* {1 Cache bookkeeping} *)

let pop_warm t fn_id =
  match Hashtbl.find_opt t.warm fn_id with
  | None -> None
  | Some q ->
      let rec take () =
        match Queue.take_opt q with
        | None -> None
        | Some i -> if i.dead || i.busy then take () else Some i
      in
      take ()

let push_warm t i =
  let q =
    match Hashtbl.find_opt t.warm i.i_fn with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.warm i.i_fn q;
        q
  in
  Queue.add i q;
  Queue.add i t.lru

(* Marking [dead] (rather than splicing queues) lets pop_warm and the
   LRU scan skip stale entries lazily. *)
let evict_one_idle t =
  let rec scan () =
    match Queue.take_opt t.lru with
    | None -> false
    | Some i ->
        if i.dead || i.busy then scan ()
        else begin
          i.dead <- true;
          t.destroy ();
          t.total <- t.total - 1;
          t.s_evictions <- t.s_evictions + 1;
          true
        end
  in
  scan ()

(* {1 Invocation} *)

let run t i action =
  i.busy <- true;
  Seuss.Osenv.burn t.env dispatch_time;
  (match action with
  | Backend_intf.Nop -> Seuss.Osenv.burn t.env 0.3e-3
  | Backend_intf.Cpu_ms ms -> Seuss.Osenv.burn t.env (ms /. 1000.0)
  | Backend_intf.Io_call (_url, delay) -> Sim.Engine.sleep delay);
  i.busy <- false;
  push_warm t i;
  Ok ()

let create_one t ~fn_id =
  if t.backend.Backend_intf.create_instance () then begin
    t.total <- t.total + 1;
    t.s_creates <- t.s_creates + 1;
    (* Import the function's code into the fresh instance. *)
    Seuss.Osenv.burn t.env init_time;
    Some { i_fn = fn_id; busy = false; dead = false }
  end
  else None

let overloaded t =
  t.s_errors <- t.s_errors + 1;
  Error `Overloaded

let invoke t ~fn_id ~action =
  match pop_warm t fn_id with
  | Some i ->
      t.s_warm <- t.s_warm + 1;
      run t i action
  | None -> (
      if t.total >= t.cfg.cache_limit then ignore (evict_one_idle t);
      if t.total >= t.cfg.cache_limit then overloaded t
      else
        match create_one t ~fn_id with
        | Some i -> run t i action
        | None ->
            (* Out of memory: reclaim one idle instance and retry once. *)
            if evict_one_idle t then
              match create_one t ~fn_id with
              | Some i -> run t i action
              | None -> overloaded t
            else overloaded t)
