type handle = {
  id : int;
  env : Seuss.Osenv.t;
  node : Seuss.Node.t;
  mutable inflight : int;
  mutable alive : bool;
}

type source = Local of Seuss.Node.path | Remote_fetch | Cluster_cold

type stats = {
  local_invocations : int;
  remote_fetches : int;
  cluster_colds : int;
  bytes_transferred : int64;
  fetch_retries : int;
  failovers : int;
  degraded_colds : int;
  node_crashes : int;
  registry_evictions : int;
}

type t = {
  engine : Sim.Engine.t;
  reg : Registry.t;
  members : handle array;
  log : Obs.Log.t;
  mutable cursor : int;
  mutable s_local : int;
  mutable s_fetches : int;
  mutable s_colds : int;
  mutable s_bytes : int64;
  mutable s_retries : int;
  mutable s_failovers : int;
  mutable s_degraded : int;
  mutable s_crashes : int;
  mutable s_evictions : int;
}

let gib = Int64.of_int (Mem.Mconfig.mib 1024)

(* Remote-fetch retry budget: a failed fetch is retried after an
   exponentially-backed-off, jittered pause before the cluster gives up
   and degrades to a local cold start. *)
let max_fetch_attempts = 3
let backoff_base = 0.05

let create ?(nodes = 4) ?(budget_per_node = Int64.mul 16L gib) ?config engine
    =
  if nodes < 1 then invalid_arg "Cluster.create: need at least one node";
  let members =
    Array.init nodes (fun id ->
        let env = Seuss.Osenv.create ~budget_bytes:budget_per_node engine in
        let node = Seuss.Node.create ?config env in
        Seuss.Node.start node;
        { id; env; node; inflight = 0; alive = true })
  in
  {
    engine;
    reg = Registry.create ();
    members;
    log = Seuss.Osenv.create_log engine;
    cursor = 0;
    s_local = 0;
    s_fetches = 0;
    s_colds = 0;
    s_bytes = 0L;
    s_retries = 0;
    s_failovers = 0;
    s_degraded = 0;
    s_crashes = 0;
    s_evictions = 0;
  }

let nodes t = Array.to_list (Array.map (fun m -> m.node) t.members)
let registry t = t.reg
let log t = t.log

let alive_count t =
  Array.fold_left (fun n m -> if m.alive then n + 1 else n) 0 t.members

let is_alive t id =
  id >= 0 && id < Array.length t.members && t.members.(id).alive

let stats t =
  {
    local_invocations = t.s_local;
    remote_fetches = t.s_fetches;
    cluster_colds = t.s_colds;
    bytes_transferred = t.s_bytes;
    fetch_retries = t.s_retries;
    failovers = t.s_failovers;
    degraded_colds = t.s_degraded;
    node_crashes = t.s_crashes;
    registry_evictions = t.s_evictions;
  }

let transfer_time snapshot =
  let bytes = Int64.to_float (Seuss.Snapshot.diff_bytes snapshot) in
  let link = Net.Netconf.lan in
  (2.0 *. link.Net.Netconf.latency) +. (bytes /. link.Net.Netconf.bandwidth)

let evict t ~fn_id ~node_id ~reason =
  Registry.evict t.reg ~fn_id ~node_id;
  t.s_evictions <- t.s_evictions + 1;
  Obs.Log.emit t.log (Obs.Event.Registry_evict { fn_id; node_id; reason })

(* {1 Crash and repair} *)

let crash_node t id =
  if id < 0 || id >= Array.length t.members then
    invalid_arg "Cluster.crash_node: no such node";
  let victim = t.members.(id) in
  if victim.alive then begin
    victim.alive <- false;
    t.s_crashes <- t.s_crashes + 1;
    Obs.Log.emit t.log (Obs.Event.Node_crash { node_id = id });
    (* Evict every holder entry the dead node owned... *)
    List.iter
      (fun fn_id -> evict t ~fn_id ~node_id:id ~reason:"node crash")
      (Registry.held_by t.reg ~node_id:id);
    (* ...then repair: surviving nodes re-publish local snapshots for
       functions the registry no longer locates anywhere. *)
    Array.iter
      (fun m ->
        if m.alive then begin
          let republished = ref 0 in
          List.iter
            (fun (fn_id, snap) ->
              if Registry.locate t.reg ~fn_id = [] then begin
                Registry.publish t.reg ~fn_id ~node_id:m.id snap;
                incr republished
              end)
            (Seuss.Node.snapshot_inventory m.node);
          if !republished > 0 then
            Obs.Log.emit t.log
              (Obs.Event.Registry_repair
                 { node_id = m.id; republished = !republished })
        end)
      t.members
  end

(* Fault plane: the [Node_crash] site kills a plan-chosen victim — never
   the last node standing, so the cluster degrades rather than dies. *)
let maybe_inject_crash t fn_id =
  if Faults.Fault.fire Node_crash ~detail:(fun () -> fn_id) then
    match Faults.Fault.current () with
    | None -> ()
    | Some plan ->
        let alive =
          Array.to_list t.members |> List.filter (fun m -> m.alive)
        in
        if List.length alive > 1 then
          let victim = List.nth alive (Faults.Fault.pick plan (List.length alive)) in
          crash_node t victim.id

(* {1 Routing} *)

(* Least-loaded among members satisfying [pred], ties broken round-robin
   from [cursor] (without advancing it — callers advance once per
   routing decision so dead nodes don't skew the rotation). *)
let least_loaded_among t pred =
  let n = Array.length t.members in
  let best = ref None in
  for i = 0 to n - 1 do
    let m = t.members.((t.cursor + i) mod n) in
    if pred m then
      match !best with
      | None -> best := Some m
      | Some b -> if m.inflight < b.inflight then best := Some m
  done;
  !best

(* Route an invocation: the natural least-loaded choice, failing over to
   a live node (with a typed event) when the natural choice is dead. *)
let pick_member t fn_id =
  let natural = least_loaded_among t (fun _ -> true) in
  let chosen = least_loaded_among t (fun m -> m.alive) in
  t.cursor <- (t.cursor + 1) mod Array.length t.members;
  match (natural, chosen) with
  | Some nat, Some m when not nat.alive ->
      t.s_failovers <- t.s_failovers + 1;
      Obs.Log.emit t.log
        (Obs.Event.Failover { fn_id; from_node = nat.id; to_node = m.id });
      Some m
  | _, chosen -> chosen

(* {1 Remote fetch} *)

type fetch_outcome = Fetched | No_holder | Unreachable

let backoff_pause attempt =
  let jitter =
    match Faults.Fault.current () with
    | Some plan -> Faults.Fault.jitter plan
    | None -> 0.0
  in
  backoff_base *. Float.of_int (1 lsl attempt) *. (1.0 +. jitter)

let fetch_with_retry t member (fn : Seuss.Node.fn) =
  let fn_id = fn.Seuss.Node.fn_id in
  match Seuss.Node.base_snapshot member.node fn.Seuss.Node.runtime with
  | None -> No_holder
  | Some local_base ->
      let rec attempt_fetch attempt =
        (* Re-locate every attempt: eviction may have exposed another
           holder, and crashed holders are dropped lazily here. *)
        let holders =
          List.filter
            (fun l -> l.Registry.node_id <> member.id)
            (Registry.locate t.reg ~fn_id)
        in
        List.iter
          (fun l ->
            if not (is_alive t l.Registry.node_id) then
              evict t ~fn_id ~node_id:l.Registry.node_id ~reason:"dead holder")
          holders;
        let usable =
          List.filter (fun l -> is_alive t l.Registry.node_id) holders
        in
        match usable with
        | [] -> if holders = [] then No_holder else Unreachable
        | holder :: _ ->
            let stale =
              (* Fault plane: the registry entry is stale — the holder
                 no longer has the snapshot it advertised. *)
              if Faults.Fault.fire Registry_stale ~detail:(fun () -> fn_id)
              then begin
                evict t ~fn_id ~node_id:holder.Registry.node_id ~reason:"stale";
                true
              end
              else false
            in
            let outcome =
              if stale then `Failed
              else
                match
                  Seuss.Snapshot.import ~env:member.env
                    ~name:("fetched-" ^ fn_id) ~local_base
                    ~remote:holder.Registry.snapshot
                    ~transfer_time:(transfer_time holder.Registry.snapshot)
                with
                | snap ->
                    Seuss.Node.install_snapshot member.node ~fn_id snap;
                    Registry.publish t.reg ~fn_id ~node_id:member.id snap;
                    t.s_fetches <- t.s_fetches + 1;
                    t.s_bytes <-
                      Int64.add t.s_bytes
                        (Seuss.Snapshot.diff_bytes holder.Registry.snapshot);
                    `Ok
                | exception Mem.Frame.Out_of_memory -> `Oom
                | exception Invalid_argument _ -> `Failed
            in
            (match outcome with
            | `Ok -> Fetched
            | `Oom ->
                (* Backing off cannot free the *local* memory the import
                   needs; degrade immediately, as before the retry path
                   existed. *)
                Unreachable
            | `Failed ->
                if attempt + 1 >= max_fetch_attempts then Unreachable
                else begin
                  let backoff = backoff_pause attempt in
                  t.s_retries <- t.s_retries + 1;
                  Obs.Log.emit t.log
                    (Obs.Event.Fetch_retry
                       { fn_id; attempt = attempt + 1; backoff });
                  Sim.Engine.sleep backoff;
                  attempt_fetch (attempt + 1)
                end)
      in
      attempt_fetch 0

(* {1 Invocation} *)

let publish_if_captured t member fn_id =
  match Seuss.Node.function_snapshot member.node fn_id with
  | Some snap -> Registry.publish t.reg ~fn_id ~node_id:member.id snap
  | None -> ()

let invoke_unregistered t (fn : Seuss.Node.fn) ~args =
  maybe_inject_crash t fn.Seuss.Node.fn_id;
  match least_loaded_among t (fun m -> m.alive) with
  | None -> (Error `Overloaded, Cluster_cold)
  | Some member ->
      t.cursor <- (t.cursor + 1) mod Array.length t.members;
      member.inflight <- member.inflight + 1;
      let had_local =
        Option.is_some
          (Seuss.Node.function_snapshot member.node fn.Seuss.Node.fn_id)
      in
      let result, path = Seuss.Node.invoke member.node fn ~args in
      member.inflight <- member.inflight - 1;
      let source =
        match path with
        | Seuss.Node.Cold when not had_local ->
            t.s_colds <- t.s_colds + 1;
            Cluster_cold
        | p ->
            t.s_local <- t.s_local + 1;
            Local p
      in
      (result, source)

let invoke t (fn : Seuss.Node.fn) ~args =
  let fn_id = fn.Seuss.Node.fn_id in
  maybe_inject_crash t fn_id;
  match pick_member t fn_id with
  | None -> (Error `Overloaded, Cluster_cold)
  | Some member ->
      member.inflight <- member.inflight + 1;
      let finish result =
        member.inflight <- member.inflight - 1;
        result
      in
      let has_local =
        Option.is_some (Seuss.Node.function_snapshot member.node fn_id)
      in
      let fetch =
        if has_local then No_holder else fetch_with_retry t member fn
      in
      (* All holders unreachable: degrade to a local cold start rather
         than fail the invocation. *)
      if fetch = Unreachable then begin
        t.s_degraded <- t.s_degraded + 1;
        Obs.Log.emit t.log (Obs.Event.Degraded_cold { fn_id })
      end;
      let result, path = Seuss.Node.invoke member.node fn ~args in
      (match (result, path) with
      | Ok _, Seuss.Node.Cold -> publish_if_captured t member fn_id
      | _ -> ());
      let source =
        if fetch = Fetched then Remote_fetch
        else
          match path with
          | Seuss.Node.Cold when not has_local ->
              t.s_colds <- t.s_colds + 1;
              Cluster_cold
          | p ->
              t.s_local <- t.s_local + 1;
              Local p
      in
      finish (result, source)
