type t = {
  engine : Sim.Engine.t;
  frames : Mem.Frame.t;
  proxy : Net.Proxy.t;
  cpu : Sim.Semaphore.t;
  rng : Sim.Prng.t;
  mutable next_port : int;
  mutable next_id : int;
  hosts : (string, Net.Tcp.listener) Hashtbl.t;
  hosts_cell : Sim.Hb.cell;
  log : Obs.Log.t;
  metrics : Obs.Metrics.t;
  mutable ucs_created : int;
  mutable ucs_released : int;
  mutable orphan_guests : int;
  mutable pins : int;
}

let default_cores = 16

(* The clock runs inside every emit, mid-update, so in an atomic
   section. *)
let create_log engine =
  Obs.Log.create
    ~clock:(fun () ->
      Sim.Engine.atomic engine ~what:"log clock" Sim.Engine.now engine)
    ()

let create ?budget_bytes engine =
  let log = create_log engine in
  (* On a checked engine, surface the checkers' findings on this node's
     event log so they land in exported timelines. Race reporters
     accumulate on the shared checker, so in a multi-node cluster every
     node's log receives every race — a race is a cross-node fact and
     no single node owns it. Each stranded waiter the engine finds at
     quiescence, and each lock-order cycle its semaphores found, becomes
     a San_deadlock event; this hook is registered before any node of
     this env registers its census, so the log reads them first. The
     reporter runs in Hb's race-reporter section and the hook in the
     engine's quiescence-hook section, so neither emit may suspend. *)
  if Sim.Engine.checked engine then begin
    Sim.Hb.add_reporter engine (fun (r : Sim.Hb.race) ->
        Obs.Log.emit log
          (Obs.Event.San_race
             {
               cell = r.cell;
               kind = Sim.Hb.kind_name r.kind;
               first_pid = r.first_pid;
               second_pid = r.second_pid;
             }));
    Sim.Engine.at_quiescence engine (fun () ->
        List.iter
          (fun (s : Sim.Engine.stranded) ->
            Obs.Log.emit log
              (Obs.Event.San_deadlock
                 {
                   resource = s.resource;
                   proc = s.proc;
                   pid = s.pid;
                   spawned_at = s.spawned_at;
                   waiting_since = s.waiting_since;
                   in_cycle = s.in_cycle;
                 }))
          (Sim.Engine.stranded_waiters engine))
  end;
  {
    engine;
    frames = Mem.Frame.create ?budget_bytes ();
    proxy = Net.Proxy.create ();
    cpu = Sim.Semaphore.create default_cores;
    rng = Sim.Prng.split (Sim.Engine.rng engine);
    next_port = 10_000;
    next_id = 0;
    hosts = Hashtbl.create 8;
    hosts_cell = Sim.Hb.cell ~name:"osenv.hosts";
    log;
    metrics = Obs.Metrics.create ();
    ucs_created = 0;
    ucs_released = 0;
    orphan_guests = 0;
    pins = 0;
  }

let note_uc_created t = t.ucs_created <- t.ucs_created + 1
let note_uc_released t = t.ucs_released <- t.ucs_released + 1
let note_orphan_started t = t.orphan_guests <- t.orphan_guests + 1
let note_orphan_ended t = t.orphan_guests <- t.orphan_guests - 1
let note_pin t = t.pins <- t.pins + 1
let note_unpin t = t.pins <- t.pins - 1

let emit t ev = Obs.Log.emit t.log ev

let burn t seconds =
  if seconds > 0.0 then
    Sim.Semaphore.with_permit t.cpu (fun () -> Sim.Engine.sleep seconds)

let fresh_port t =
  t.next_port <- t.next_port + 1;
  t.next_port

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let register_host t name listener =
  Sim.Hb.write t.hosts_cell;
  Hashtbl.replace t.hosts name listener

let resolve t url =
  Sim.Hb.read t.hosts_cell;
  (* Longest registered prefix wins; among equal-length matches (only
     possible via duplicate registration) the lexicographically smallest
     prefix, so the answer never depends on bucket layout. *)
  Det.fold
    (fun prefix listener best ->
      let plen = String.length prefix in
      let matches =
        String.length url >= plen && String.sub url 0 plen = prefix
      in
      match (matches, best) with
      | false, _ -> best
      | true, Some (len, _) when len >= plen -> best
      | true, _ -> Some (plen, listener))
    t.hosts None
  |> Option.map snd

let outbound t url =
  match resolve t url with
  | None -> None
  | Some listener -> Net.Proxy.outbound t.proxy listener
