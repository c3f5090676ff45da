type config = { container_cache_limit : int; stemcell_count : int }

let default_config = { container_cache_limit = 1024; stemcell_count = 0 }

(* How long a request waits for its container, and how often it looks
   for free capacity meanwhile. *)
let invoke_timeout = 60.0
let capacity_retry_interval = 0.1

(* /init (importing function code into Node.js) and invocation-server
   request handling: the OpenWhisk operating point. *)
let init_time = 0.055
let dispatch_time = 1.2e-3

type fn = { fn_id : string; action : Backend_intf.action }

type invoke_error = [ `Timeout | `Connection_failed | `Overloaded ]

type path = Create | Stemcell | Warm_container

type stats = {
  creates : int;
  stemcell_hits : int;
  warm_hits : int;
  evictions : int;
  errors : int;
}

type container = {
  c_id : int;
  mutable c_fn : string option;
  space : Mem.Addr_space.t;
  listener : Net.Tcp.listener;
  mutable busy : bool;
  mutable dead : bool;
}

type t = {
  env : Seuss.Osenv.t;
  cfg : config;
  br : Net.Bridge.t;
  docker : Docker_backend.t;
  warm : (string, container Queue.t) Hashtbl.t;
  stemcells : container Queue.t;
  (* Idle containers in rough LRU order (stale entries re-validated). *)
  lru : container Queue.t;
  mutable total : int;
  mutable s_creates : int;
  mutable s_stemcell : int;
  mutable s_warm : int;
  mutable s_evictions : int;
  mutable s_errors : int;
}

let create ?(config = default_config) env =
  let br = Net.Bridge.create ~rng:(Sim.Prng.split env.Seuss.Osenv.rng) () in
  {
    env;
    cfg = config;
    br;
    docker = Docker_backend.create env br;
    warm = Hashtbl.create 1024;
    stemcells = Queue.create ();
    lru = Queue.create ();
    total = 0;
    s_creates = 0;
    s_stemcell = 0;
    s_warm = 0;
    s_evictions = 0;
    s_errors = 0;
  }

let config t = t.cfg
let container_count t = t.total

let stats t =
  {
    creates = t.s_creates;
    stemcell_hits = t.s_stemcell;
    warm_hits = t.s_warm;
    evictions = t.s_evictions;
    errors = t.s_errors;
  }

(* {1 Container lifecycle} *)

let new_container t ~fn_id =
  match Docker_backend.create_container_space t.docker with
  | None -> None
  | Some space ->
      let c =
        {
          c_id = Seuss.Osenv.fresh_id t.env;
          c_fn = fn_id;
          space;
          listener = Net.Tcp.listener ~port:(Seuss.Osenv.fresh_port t.env);
          busy = false;
          dead = false;
        }
      in
      (* The container's invocation server answers requests arriving over
         the bridge. It parks in accept between requests, and past the
         end of a run that keeps the container cached — a daemon by
         design, not a stranded waiter. It ends once [destroy_container]
         shuts its listener. *)
      Sim.Engine.spawn t.env.Seuss.Osenv.engine
        ~name:(Printf.sprintf "container-%d" c.c_id)
        ~daemon:true
        (fun () ->
          let rec loop () =
            match Net.Tcp.accept_opt c.listener with
            | None -> ()
            | Some conn ->
                (match Net.Tcp.recv conn with
                | Some _ -> if not c.dead then Net.Tcp.send conn "OK"
                | None -> ());
                Net.Tcp.close conn;
                loop ()
          in
          loop ());
      t.total <- t.total + 1;
      t.s_creates <- t.s_creates + 1;
      Some c

(* Shutting the listener ends the invocation server: at once if it is
   between requests (the one engine event this path adds), else after
   the request in hand. *)
let destroy_container t c =
  if not c.dead then begin
    c.dead <- true;
    Net.Tcp.shutdown c.listener;
    Docker_backend.destroy_container_raw t.docker (Some c.space);
    t.total <- t.total - 1
  end

let pop_warm t fn_id =
  match Hashtbl.find_opt t.warm fn_id with
  | None -> None
  | Some q ->
      let rec take () =
        match Queue.take_opt q with
        | None -> None
        | Some c -> if c.dead || c.busy then take () else Some c
      in
      take ()

let push_warm t c =
  match c.c_fn with
  | None -> Queue.add c t.stemcells
  | Some fn_id ->
      let q =
        match Hashtbl.find_opt t.warm fn_id with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace t.warm fn_id q;
            q
      in
      Queue.add c q;
      Queue.add c t.lru

let evict_one_idle t =
  let rec scan () =
    match Queue.take_opt t.lru with
    | None -> false
    | Some c ->
        if c.dead || c.busy then scan ()
        else begin
          (* Remove it from its warm queue as well. *)
          (match c.c_fn with
          | Some fn_id -> (
              match Hashtbl.find_opt t.warm fn_id with
              | Some q ->
                  let fresh = Queue.create () in
                  (* seusslint: allow physical-eq — removing this exact container record from the queue *)
                  Queue.iter (fun x -> if x != c then Queue.add x fresh) q;
                  Hashtbl.replace t.warm fn_id fresh
              | None -> ())
          | None -> ());
          destroy_container t c;
          t.s_evictions <- t.s_evictions + 1;
          true
        end
  in
  scan ()

(* Make a stemcell in the background (OpenWhisk refills the pool as it
   is consumed; this competes with foreground creations, §7). *)
let rec replenish_stemcells t =
  if
    t.cfg.stemcell_count > 0
    && Queue.length t.stemcells < t.cfg.stemcell_count
    && t.total < t.cfg.container_cache_limit
  then
    Sim.Engine.spawn t.env.Seuss.Osenv.engine ~name:"stemcell-refill" (fun () ->
        match new_container t ~fn_id:None with
        | Some c ->
            Queue.add c t.stemcells;
            replenish_stemcells t
        | None -> ())

let start t =
  (* Pre-create the stemcell pool 16-wide (deployment-time warmup). *)
  if t.cfg.stemcell_count > 0 then begin
    let engine = t.env.Seuss.Osenv.engine in
    let remaining = ref t.cfg.stemcell_count in
    let workers = ref 16 in
    let done_ = Sim.Ivar.create () in
    for _ = 1 to 16 do
      Sim.Engine.spawn engine ~name:"stemcell-warmup" (fun () ->
          let rec go () =
            if !remaining > 0 then begin
              decr remaining;
              (match new_container t ~fn_id:None with
              | Some c -> Queue.add c t.stemcells
              | None -> ());
              go ()
            end
          in
          go ();
          decr workers;
          if !workers = 0 then Sim.Ivar.fill done_ ())
    done;
    Sim.Ivar.read done_
  end

(* {1 Invocation} *)

let run_in_container t c action =
  c.busy <- true;
  let finish result =
    c.busy <- false;
    (match result with
    | Ok () -> push_warm t c
    | Error _ ->
        t.s_errors <- t.s_errors + 1;
        destroy_container t c);
    result
  in
  match Net.Bridge.connect t.br c.listener with
  | None -> finish (Error `Connection_failed)
  | Some conn -> (
      Seuss.Osenv.burn t.env dispatch_time;
      Net.Tcp.send conn "RUN";
      (match action with
      | Backend_intf.Nop -> Seuss.Osenv.burn t.env 0.3e-3
      | Backend_intf.Cpu_ms ms -> Seuss.Osenv.burn t.env (ms /. 1000.0)
      | Backend_intf.Io_call (url, _delay) -> (
          match Seuss.Osenv.resolve t.env url with
          | None -> Sim.Engine.sleep 0.25 (* unreachable: still blocks *)
          | Some listener -> (
              match
                Net.Http.get ~link:Net.Netconf.lan listener ~path:url
                  ~timeout:invoke_timeout
              with
              | Ok _ | Error _ -> ())));
      match Net.Tcp.recv_timeout conn ~timeout:invoke_timeout with
      | Some (Some _) ->
          Net.Tcp.close conn;
          finish (Ok ())
      | Some None | None ->
          Net.Tcp.close conn;
          finish (Error `Timeout))

let init_container t c fn_id =
  Seuss.Osenv.burn t.env init_time;
  (* Importing code dirties container-private pages. *)
  (try
     ignore
       (Mem.Addr_space.write_range c.space
          ~vpn:
            (Process_backend.shared_image_pages
            + Docker_backend.container_private_pages)
          ~pages:600)
   with Mem.Frame.Out_of_memory -> ());
  c.c_fn <- Some fn_id

let rec acquire_capacity t ~deadline =
  if t.total < t.cfg.container_cache_limit then true
  else if evict_one_idle t then true
  else if Sim.Engine.now t.env.Seuss.Osenv.engine >= deadline then false
  else begin
    Sim.Engine.sleep capacity_retry_interval;
    acquire_capacity t ~deadline
  end

let invoke t fn =
  match pop_warm t fn.fn_id with
  | Some c ->
      t.s_warm <- t.s_warm + 1;
      (run_in_container t c fn.action, Warm_container)
  | None -> (
      match Queue.take_opt t.stemcells with
      | Some c when not c.dead ->
          t.s_stemcell <- t.s_stemcell + 1;
          replenish_stemcells t;
          init_container t c fn.fn_id;
          (run_in_container t c fn.action, Stemcell)
      | _ ->
          let deadline =
            Sim.Engine.now t.env.Seuss.Osenv.engine +. invoke_timeout
          in
          if not (acquire_capacity t ~deadline) then begin
            t.s_errors <- t.s_errors + 1;
            (Error `Overloaded, Create)
          end
          else begin
            match new_container t ~fn_id:(Some fn.fn_id) with
            | None ->
                t.s_errors <- t.s_errors + 1;
                (Error `Overloaded, Create)
            | Some c ->
                init_container t c fn.fn_id;
                (run_in_container t c fn.action, Create)
          end)
