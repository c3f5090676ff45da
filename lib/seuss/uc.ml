type status = Running | Dead

type t = {
  uc_id : int;
  env : Osenv.t;
  image : Unikernel.Image.t;
  space : Mem.Addr_space.t;
  listener : Net.Tcp.listener;
  uc_port : int;
  source : Snapshot.t option;
  breakpoints : string Sim.Channel.t;
  mutable resume_gate : unit Sim.Ivar.t;
  mutable guest : Unikernel.Guest.state option;
  mutable conn : Net.Tcp.conn option;
  mutable st : status;
  mutable released : bool;
  mutable guest_live : bool;  (* the guest process has not ended *)
  mutable used_at : float;
}

let id t = t.uc_id
let port t = t.uc_port
let status t = t.st
let source_snapshot t = t.source

let guest_state t =
  match t.guest with
  | Some g when t.st = Running -> g
  | _ -> invalid_arg "Uc.guest_state: guest not available"

let hypercalls env t =
  {
    Unikernel.Hypercall.clock_wall = (fun () -> Sim.Engine.now env.Osenv.engine);
    console_write = ignore;
    poll = Sim.Engine.yield;
    net_outbound = (fun url -> Osenv.outbound env url);
    breakpoint =
      (fun label ->
        (* A released UC's host never resumes it: run on, to the shut
           listener. *)
        if not t.released then begin
          let gate = Sim.Ivar.create () in
          t.resume_gate <- gate;
          Sim.Channel.send t.breakpoints label;
          Sim.Ivar.read gate
        end);
    halt = (fun _reason -> ());
  }

let guest_env env t =
  {
    Unikernel.Guest.image = t.image;
    space = t.space;
    listener = t.listener;
    hypercalls = hypercalls env t;
    rng = Sim.Prng.split env.Osenv.rng;
    cpu_burn = Osenv.burn env;
  }

let make env ~image ~space ~source =
  let uc_port = Osenv.fresh_port env in
  let listener = Net.Tcp.listener ~port:uc_port in
  let t =
    {
      uc_id = Osenv.fresh_id env;
      env;
      image;
      space;
      listener;
      uc_port;
      source;
      breakpoints = Sim.Channel.create ();
      resume_gate = Sim.Ivar.create ();
      guest = None;
      conn = None;
      st = Running;
      released = false;
      guest_live = false;
      used_at = Sim.Engine.now env.Osenv.engine;
    }
  in
  (* Feed the node's telemetry from the fault handler: counters for
     both fault kinds, and one event per faulting write range that
     copied shared frames (the snapshot-stack signal; zero-fills are
     boot noise at event granularity). The hook runs inside the
     faulting write, mid-update, so in an atomic section. *)
  let cow_faults =
    Obs.Metrics.counter env.Osenv.metrics "mem_cow_faults_total"
  and zero_fills =
    Obs.Metrics.counter env.Osenv.metrics "mem_zero_fills_total"
  in
  Mem.Addr_space.set_fault_hook space (fun fault pages ->
      (* No closure per fault for [Engine.atomic]: enter and leave by
         hand, also on the exception path. *)
      Sim.Engine.atomic_enter env.Osenv.engine ~what:"Uc fault hook";
      match
        match fault with
        | Mem.Addr_space.Cow_copy ->
            Obs.Metrics.add cow_faults pages;
            Osenv.emit env (Obs.Event.Cow_fault { uc_id = t.uc_id; pages })
        | Mem.Addr_space.Zero_fill -> Obs.Metrics.add zero_fills pages
        | Mem.Addr_space.No_fault -> ()
      with
      | () -> Sim.Engine.atomic_leave env.Osenv.engine
      | exception exn ->
          Sim.Engine.atomic_leave env.Osenv.engine;
          raise exn);
  Net.Proxy.register env.Osenv.proxy ~port:uc_port listener;
  Osenv.note_uc_created env;
  t

(* The guest runs as its own simulation process. A guest that exhausts
   node memory mid-write simply halts: the invocation waiting on it
   observes a timeout, the node destroys the UC, memory is reclaimed.
   Otherwise it ends once [destroy] has shut its listener: OCaml frees a
   process's stack only when the process ends, so a guest left parked
   would hold its stack for the rest of the host process. *)
let spawn_guest t body =
  t.guest_live <- true;
  (* An idle UC's guest parks awaiting requests until the UC is
     destroyed, or past the end of a run that keeps the UC cached — a
     daemon by design, not a stranded waiter. *)
  Sim.Engine.spawn t.env.Osenv.engine
    ~name:(Printf.sprintf "uc-%d-guest" t.uc_id)
    ~daemon:true
    (fun () ->
      (try body () with
      | Mem.Frame.Out_of_memory -> t.st <- Dead
      | Invalid_argument _ when t.st = Dead ->
          (* The UC was destroyed out from under the guest (its address
             space is gone); the guest simply stops. *)
          ());
      t.guest_live <- false;
      if t.released then Osenv.note_orphan_ended t.env)

let boot env image =
  Sim.Trace.mark "uc.boot";
  Osenv.burn env Cost.uc_create;
  let space = Mem.Addr_space.create env.Osenv.frames in
  let t = make env ~image ~space ~source:None in
  spawn_guest t (fun () ->
      let genv = guest_env env t in
      let state =
        Unikernel.Guest.boot ~on_ready:(fun s -> t.guest <- Some s) genv
      in
      Unikernel.Guest.serve state);
  t

let deploy env (snap : Snapshot.t) =
  if Snapshot.is_deleted snap then invalid_arg "Uc.deploy: deleted snapshot";
  Sim.Trace.span
    (Printf.sprintf "uc.deploy from '%s'" snap.Snapshot.name)
    (fun () -> Osenv.burn env Cost.deploy_total);
  let space =
    Mem.Addr_space.of_table ~mapped_hint:snap.Snapshot.total_pages
      env.Osenv.frames snap.Snapshot.table
  in
  Snapshot.addref snap;
  let t = make env ~image:snap.Snapshot.image ~space ~source:(Some snap) in
  spawn_guest t (fun () ->
      let genv = guest_env env t in
      let state = Unikernel.Guest.restore genv snap.Snapshot.guest in
      t.guest <- Some state;
      Unikernel.Guest.serve state);
  t

let await_breakpoint t ~timeout = Sim.Channel.recv_timeout t.breakpoints ~timeout

let resume t = Sim.Ivar.fill t.resume_gate ()

let rec connect t = Sim.Trace.span "uc.connect" (fun () -> connect_inner t)
and connect_inner t =
  match t.conn with
  | Some conn when not (Net.Tcp.is_closed conn) -> true
  | _ -> (
      if t.st = Dead then false
      else
        match Net.Proxy.connect t.env.Osenv.proxy ~port:t.uc_port with
        | None -> false
        | Some conn ->
            t.conn <- Some conn;
            true)

let send t cmd =
  match t.conn with
  | Some conn when not (Net.Tcp.is_closed conn) ->
      Net.Tcp.send conn (Unikernel.Driver.encode_command cmd);
      true
  | _ -> false

let rec request t cmd ~timeout =
  let label =
    match cmd with
    | Unikernel.Driver.Run _ -> "uc.request run"
    | Unikernel.Driver.Init _ -> "uc.request init"
    | Unikernel.Driver.Ping -> "uc.request ping"
    | Unikernel.Driver.Warm_net -> "uc.request warm_net"
    | Unikernel.Driver.Warm_exec -> "uc.request warm_exec"
    | Unikernel.Driver.Checkpoint -> "uc.request checkpoint"
  in
  Sim.Trace.span label (fun () -> request_inner t cmd ~timeout)

and request_inner t cmd ~timeout =
  match t.conn with
  | Some conn when not (Net.Tcp.is_closed conn) -> (
      Net.Tcp.send conn (Unikernel.Driver.encode_command cmd);
      match Net.Tcp.recv_timeout conn ~timeout with
      | None -> Error `Timeout
      | Some None -> Error `Closed
      | Some (Some m) -> (
          match Unikernel.Driver.decode_reply m.Net.Tcp.data with
          | Ok reply -> Ok reply
          | Error _ -> Error `Closed))
  | _ -> Error `No_connection

let capture t ~env ~name =
  Sim.Trace.span
    (Printf.sprintf "snapshot.capture '%s'" name)
    (fun () ->
      let snap =
        Snapshot.capture ~env ~name ~parent:t.source ~image:t.image
          ~space:t.space ~guest:(guest_state t)
      in
      Osenv.emit env
        (Obs.Event.Snapshot_capture
           {
             name;
             pages = snap.Snapshot.diff_pages;
             bytes = Snapshot.diff_bytes snap;
           });
      snap)

let start_ws_record t = Mem.Addr_space.start_trace t.space

let take_ws_record t = Mem.Addr_space.take_trace t.space

let prefault t ~vpns =
  (* Install first, bill second: [Addr_space.prefault] never yields, so
     every page is resident before the guest's restore path can run;
     the batch's core time is burned once the pages are in place. *)
  let stats = Mem.Addr_space.prefault t.space ~vpns in
  Osenv.burn t.env (Cost.prefault_time stats);
  let snapshot =
    match t.source with Some s -> s.Snapshot.name | None -> "<boot>"
  in
  Osenv.emit t.env
    (Obs.Event.Ws_prefault
       {
         uc_id = t.uc_id;
         snapshot;
         pages = stats.Mem.Addr_space.requested;
         cow_copied = stats.Mem.Addr_space.prefault_cow_copies;
         zero_filled = stats.Mem.Addr_space.prefault_zero_fills;
       });
  stats

(* Status and resource ownership are separate concerns: a guest that
   dies on its own (OOM mid-write) flips [st] to [Dead] without passing
   through [destroy], so release must key on its own flag or the dead
   UC's frames and snapshot reference leak forever. *)
let destroy t =
  if t.st = Running then begin
    t.st <- Dead;
    Osenv.burn t.env Cost.destroy
  end;
  if not t.released then begin
    t.released <- true;
    Osenv.note_uc_released t.env;
    (match t.conn with Some conn -> Net.Tcp.close conn | None -> ());
    t.conn <- None;
    Net.Proxy.unregister t.env.Osenv.proxy ~port:t.uc_port;
    Mem.Addr_space.release t.space;
    (match t.source with Some snap -> Snapshot.decref snap | None -> ());
    (* End the guest process. A guest parked on its connection is woken
       by the FIN sent above and returns at its next accept. One parked
       in accept is woken by the shutdown, and one parked at a
       breakpoint by the gate's fill, each an engine event only then;
       being released, it parks at no later breakpoint. *)
    Net.Tcp.shutdown t.listener;
    ignore (Sim.Ivar.try_fill t.resume_gate ());
    if t.guest_live then Osenv.note_orphan_started t.env;
    t.guest <- None
  end

let private_pages t =
  Mem.Addr_space.lifetime_zero_fills t.space
  + Mem.Addr_space.lifetime_cow_copies t.space

let footprint_bytes t =
  Int64.add
    (Mem.Mconfig.bytes_of_pages (private_pages t))
    (Int64.of_int (Mem.Page_table.structure_bytes (Mem.Addr_space.table t.space)))

let touch_lru t = t.used_at <- Sim.Engine.now t.env.Osenv.engine

let is_released t = t.released
let table t = Mem.Addr_space.table t.space
