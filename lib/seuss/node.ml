type fn = {
  fn_id : string;
  runtime : Unikernel.Image.runtime;
  source : string;
}

type path = Cold | Warm | Hot

type invoke_error =
  [ `Compile_error of string
  | `Runtime_error of string
  | `Timeout
  | `No_runtime
  | `Overloaded ]

type stats = {
  cold : int;
  warm : int;
  hot : int;
  errors : int;
  retries : int;
  reclaimed_ucs : int;
  snapshots_captured : int;
}

(* Per-invocation phase accumulator, flushed into the Invoke_finish
   event: deploy (UC deploy + connect), import (source import + compile
   + function-snapshot capture, cold only), run (guest execution). *)
type phases = {
  mutable p_deploy : float;
  mutable p_import : float;
  mutable p_run : float;
}

type t = {
  node_env : Osenv.t;
  cfg : Config.t;
  mutable in_flight : int;
  mutable bases : (Unikernel.Image.runtime * Snapshot.t) list;
  (* Armed when [Config.snapshot_cache_bytes > 0L]: the content-addressed
     byte-budgeted store owns the function snapshots and [fn_snapshots]
     is kept as its exact mirror (the store's on_evict callback removes
     mirror entries). Unarmed (the default), the store does not exist and
     every path below is byte-identical to a build without it. *)
  mutable store : Snapstore.t option;
  fn_snapshots : (string, Snapshot.t) Hashtbl.t;
  idle : (string, Uc.t Queue.t) Hashtbl.t;
  (* FIFO of (fn_id, uc) for oldest-first reclamation; entries go stale
     when a UC is taken for a hot invocation, so consumers re-validate. *)
  idle_order : (string * Uc.t) Queue.t;
  mutable idle_total : int;
  mutable last_uc : Uc.t option;
  (* Cached registry handles for the per-invocation hot path; the
     per-(path, runtime) invocation counters are looked up on demand. *)
  c_errors_cold : Obs.Metrics.counter;
  c_errors_warm : Obs.Metrics.counter;
  c_errors_hot : Obs.Metrics.counter;
  c_retried : Obs.Metrics.counter;
  c_reclaimed : Obs.Metrics.counter;
  c_oom_wakes : Obs.Metrics.counter;
  c_captured : Obs.Metrics.counter;
}

let path_label = function Cold -> "cold" | Warm -> "warm" | Hot -> "hot"

let obs_path = function
  | Cold -> Obs.Event.Cold
  | Warm -> Obs.Event.Warm
  | Hot -> Obs.Event.Hot

let config t = t.cfg
let env t = t.node_env

let free_bytes t = Mem.Frame.free_bytes t.node_env.Osenv.frames

let count_invocation t path runtime =
  Obs.Metrics.inc
    (Obs.Metrics.counter t.node_env.Osenv.metrics
       ~labels:
         [
           ("path", path_label path);
           ("runtime", Unikernel.Image.runtime_name runtime);
         ]
       "node_invocations_total")

let count_error t path =
  Obs.Metrics.inc
    (match path with
    | Cold -> t.c_errors_cold
    | Warm -> t.c_errors_warm
    | Hot -> t.c_errors_hot)

let base_snapshot t runtime = List.assoc_opt runtime t.bases

let function_snapshot t fn_id = Hashtbl.find_opt t.fn_snapshots fn_id

let snapstore t = t.store

(* The invocation paths' snapshot lookup: when the store is armed it is
   the source of truth (hit/miss counting, recency touch); unarmed, the
   plain mirror read. [function_snapshot] stays a policy-neutral read
   for inspection tools. *)
let lookup_snapshot t fn_id =
  match t.store with
  | Some s -> Snapstore.lookup s fn_id
  | None -> Hashtbl.find_opt t.fn_snapshots fn_id

let snapshot_count t = Hashtbl.length t.fn_snapshots

let snapshot_inventory t =
  (* Sorted by fn_id so consumers (registry repair, the snapshots
     dashboard) see a reproducible inventory. *)
  Det.bindings t.fn_snapshots

let install_snapshot t ~fn_id snap =
  if Hashtbl.mem t.fn_snapshots fn_id then
    ignore (Snapshot.try_delete ~env:t.node_env snap)
  else begin
    Hashtbl.replace t.fn_snapshots fn_id snap;
    Obs.Metrics.inc t.c_captured;
    (* The store's budget sweep may evict members right here — including,
       under a budget smaller than one snapshot, the one just inserted
       (on_evict keeps the mirror exact either way). *)
    match t.store with
    | Some s -> Snapstore.insert s ~fn_id snap
    | None -> ()
  end

let idle_uc_count t = t.idle_total

let idle_ucs t =
  Det.fold
    (fun _ q acc -> Queue.fold (fun acc uc -> uc :: acc) acc q)
    t.idle []

(* The node's counters live in the registry; [stats] is a view over it
   (summed across the per-runtime labels), not parallel bookkeeping. *)
let stats t =
  let m = t.node_env.Osenv.metrics in
  let inv p =
    Obs.Metrics.sum_counters m ~where:[ ("path", p) ] "node_invocations_total"
  in
  {
    cold = inv "cold";
    warm = inv "warm";
    hot = inv "hot";
    errors = Obs.Metrics.sum_counters m "node_errors_total";
    retries = Obs.Metrics.sum_counters m "node_invoke_retries_total";
    reclaimed_ucs = Obs.Metrics.sum_counters m "node_ucs_reclaimed_total";
    snapshots_captured =
      Obs.Metrics.sum_counters m "node_snapshots_captured_total";
  }

(* {1 Idle-UC cache} *)

let push_idle t fn_id uc =
  if t.cfg.Config.cache_idle_ucs && Uc.status uc = Uc.Running then begin
    Uc.touch_lru uc;
    let q =
      match Hashtbl.find_opt t.idle fn_id with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.replace t.idle fn_id q;
          q
    in
    Queue.add uc q;
    Queue.add (fn_id, uc) t.idle_order;
    t.idle_total <- t.idle_total + 1
  end
  else Uc.destroy uc

let pop_idle t fn_id =
  match Hashtbl.find_opt t.idle fn_id with
  | None -> None
  | Some q ->
      let rec take () =
        match Queue.take_opt q with
        | None -> None
        | Some uc ->
            t.idle_total <- t.idle_total - 1;
            if Uc.status uc = Uc.Running then Some uc
            else begin
              (* Died in the cache (guest OOM): reclaim its frames and
                 snapshot reference on the way past. *)
              Uc.destroy uc;
              take ()
            end
      in
      take ()

let drop_idle t ~fn_id =
  match Hashtbl.find_opt t.idle fn_id with
  | None -> ()
  | Some q ->
      Queue.iter
        (fun uc ->
          Uc.destroy uc;
          t.idle_total <- t.idle_total - 1)
        q;
      Queue.clear q

(* Destroy the oldest idle entry; [true] iff a live UC was reclaimed
   (entries gone stale — taken hot or already destroyed — are skipped). *)
let reclaim_oldest t =
  let fn_id, uc = Queue.take t.idle_order in
  Osenv.burn t.node_env Cost.oom_scan;
  match Hashtbl.find_opt t.idle fn_id with
  (* seusslint: allow physical-eq — queue membership of this exact UC record *)
  | Some q when Queue.fold (fun found u -> found || u == uc) false q ->
      let fresh = Queue.create () in
      (* seusslint: allow physical-eq — removing this exact UC record from the queue *)
      Queue.iter (fun u -> if u != uc then Queue.add u fresh) q;
      Hashtbl.replace t.idle fn_id fresh;
      t.idle_total <- t.idle_total - 1;
      if Uc.status uc = Uc.Running then begin
        Uc.destroy uc;
        Obs.Metrics.inc t.c_reclaimed;
        Osenv.emit t.node_env (Obs.Event.Uc_reclaim { uc_id = Uc.id uc; fn_id });
        true
      end
      else begin
        (* Already dead in the cache: no live UC reclaimed, but its
           resources still need draining. *)
        Uc.destroy uc;
        false
      end
  | _ -> false

(* The paper's trivial OOM daemon: reclaim idle UCs, oldest first, while
   free memory sits below the headroom. *)
let reclaim_idle_ucs t =
  let reclaimed = ref 0 in
  let continue_ () =
    Int64.compare (free_bytes t) Config.oom_headroom_bytes < 0
    && not (Queue.is_empty t.idle_order)
  in
  if continue_ () then begin
    Obs.Metrics.inc t.c_oom_wakes;
    Osenv.emit t.node_env (Obs.Event.Oom_wake { free_bytes = free_bytes t })
  end;
  while continue_ () do
    if reclaim_oldest t then incr reclaimed
  done;
  !reclaimed

(* An injected OOM storm: a sudden external allocation spike forces the
   daemon to evict the whole idle-UC cache, not just down to headroom —
   subsequent repeats of the affected functions degrade hot -> warm. *)
let storm_reclaim t =
  let reclaimed = ref 0 in
  if not (Queue.is_empty t.idle_order) then begin
    Obs.Metrics.inc t.c_oom_wakes;
    Osenv.emit t.node_env (Obs.Event.Oom_wake { free_bytes = free_bytes t })
  end;
  while not (Queue.is_empty t.idle_order) do
    if reclaim_oldest t then incr reclaimed
  done;
  !reclaimed

(* {1 Node startup: boot, AO, base snapshot capture} *)

let apply_ao t uc =
  let timeout = Config.invoke_timeout in
  match t.cfg.Config.ao with
  | Config.Ao_none ->
      (* Capture right at driver start: no connection has ever touched
         this guest. *)
      `Capture_now
  | (Config.Ao_network | Config.Ao_full) as level ->
      Uc.resume uc;
      if not (Uc.connect uc) then `Failed "AO: cannot connect"
      else begin
        let ao_request cmd label =
          match Uc.request uc cmd ~timeout with
          | Ok (Unikernel.Driver.Ok_reply _) -> Ok ()
          | Ok (Unikernel.Driver.Err_reply m) ->
              Error (Printf.sprintf "AO %s failed: %s" label m)
          | Ok Unikernel.Driver.Pong -> Ok ()
          | Error _ -> Error (Printf.sprintf "AO %s failed" label)
        in
        let result =
          match ao_request Unikernel.Driver.Warm_net "network" with
          | Error _ as e -> e
          | Ok () ->
              if level = Config.Ao_full then
                ao_request Unikernel.Driver.Warm_exec "interpreter"
              else Ok ()
        in
        match result with
        | Error msg -> `Failed msg
        | Ok () -> (
            ignore (Uc.send uc Unikernel.Driver.Checkpoint);
            match Uc.await_breakpoint uc ~timeout with
            | Some "checkpoint" -> `Capture_now
            | Some other -> `Failed ("unexpected breakpoint: " ^ other)
            | None -> `Failed "checkpoint timeout")
      end

let start t =
  List.iter
    (fun image ->
      let uc = Uc.boot t.node_env image in
      match Uc.await_breakpoint uc ~timeout:60.0 with
      | Some "driver-started" -> (
          match apply_ao t uc with
          | `Capture_now ->
              let name =
                Printf.sprintf "%s-base"
                  (Unikernel.Image.runtime_name image.Unikernel.Image.runtime)
              in
              let snap = Uc.capture uc ~env:t.node_env ~name in
              t.bases <- (image.Unikernel.Image.runtime, snap) :: t.bases;
              Uc.resume uc;
              Uc.destroy uc
          | `Failed msg ->
              Uc.destroy uc;
              failwith ("Node.start: " ^ msg))
      | Some other ->
          Uc.destroy uc;
          failwith ("Node.start: unexpected breakpoint " ^ other)
      | None ->
          Uc.destroy uc;
          failwith "Node.start: boot timeout")
    t.cfg.Config.runtimes

(* {1 Invocation paths} *)

let now t = Sim.Engine.now t.node_env.Osenv.engine

(* Consult the fault plane at one of this node's injection sites; when
   the site fires, count and emit it so the failure timeline is visible
   in [seussctl events]. No plan installed (or rate 0) => always false,
   with zero PRNG draws, and [detail] is called only when the site
   fires. *)
let inject t site detail =
  if Faults.Fault.fire site ~detail then begin
    Osenv.emit t.node_env
      (Obs.Event.Fault_injected
         { site = Faults.Fault.site_name site; detail = detail () });
    true
  end
  else false

let headroom_check t =
  if inject t Faults.Fault.Oom_storm (fun () -> "allocation spike") then
    ignore (storm_reclaim t);
  if Int64.compare (free_bytes t) Config.oom_headroom_bytes < 0 then
    ignore (reclaim_idle_ucs t)

let run_on_uc t ph uc ~args =
  let t0 = now t in
  (* Fault plane: kill the guest just as the request is handed to it —
     the request then fails with a lost connection, exactly what a
     mid-request UC death looks like from the node side. *)
  if inject t Faults.Fault.Uc_kill (fun () -> Printf.sprintf "uc-%d" (Uc.id uc))
  then Uc.destroy uc;
  let result =
    match
      Uc.request uc (Unikernel.Driver.Run args)
        ~timeout:Config.invoke_timeout
    with
    | Ok (Unikernel.Driver.Ok_reply result) -> Ok result
    | Ok (Unikernel.Driver.Err_reply msg) -> Error (`Runtime_error msg)
    | Ok Unikernel.Driver.Pong -> Error (`Runtime_error "protocol confusion")
    | Error `Timeout -> Error `Timeout
    | Error (`Closed | `No_connection) -> Error `Timeout
  in
  ph.p_run <- ph.p_run +. (now t -. t0);
  result

let finish t path fn uc result =
  t.last_uc <- Some uc;
  (match result with
  | Ok _ -> push_idle t fn.fn_id uc
  | Error _ ->
      count_error t path;
      Uc.destroy uc);
  result

let warm_invoke t ph fn snap ~args =
  Sim.Trace.mark "node.path warm";
  headroom_check t;
  let t0 = now t in
  match Uc.deploy t.node_env snap with
  | exception Mem.Frame.Out_of_memory ->
      ignore (reclaim_idle_ucs t);
      count_error t Warm;
      Error `Overloaded
  | uc ->
      (* REAP-style warm deploys: replay the snapshot's recorded working
         set before the guest runs, or — on the snapshot's first warm
         invocation — record it for every deploy after. The deploy just
         above has not yielded yet, so the batch install lands before
         the guest's restore writes can fault. *)
      let recording =
        t.cfg.Config.prefault_working_set
        &&
        match Snapshot.working_set snap with
        | Some ws ->
            ignore (Uc.prefault uc ~vpns:ws);
            false
        | None ->
            Uc.start_ws_record uc;
            true
      in
      if not (Uc.connect uc) then begin
        Uc.destroy uc;
        count_error t Warm;
        Error `Timeout
      end
      else begin
        ph.p_deploy <- ph.p_deploy +. (now t -. t0);
        let result = run_on_uc t ph uc ~args in
        if recording then begin
          let ws = Uc.take_ws_record uc in
          if Result.is_ok result && Array.length ws > 0 then begin
            Snapshot.record_working_set snap ws;
            Osenv.emit t.node_env
              (Obs.Event.Ws_record
                 { snapshot = snap.Snapshot.name; pages = Array.length ws })
          end
        end;
        finish t Warm fn uc result
      end

(* Between the snapshot lookup and [Uc.deploy]'s addref the warm path
   yields (headroom sweep, deploy burn); a concurrent cold path's insert
   could meanwhile evict this very snapshot and deploy would then hit a
   deleted template. Pinning it as a dependent for the duration makes it
   invisible to every eviction sweep. *)
let warm_invoke_pinned t ph fn snap ~args =
  Snapshot.addref snap;
  Osenv.note_pin t.node_env;
  Fun.protect
    ~finally:(fun () ->
      Osenv.note_unpin t.node_env;
      Snapshot.decref snap)
    (fun () -> warm_invoke t ph fn snap ~args)

let cold_invoke t ph fn ~args =
  Sim.Trace.mark "node.path cold";
  match base_snapshot t fn.runtime with
  | None ->
      count_error t Cold;
      Error `No_runtime
  | Some base -> (
      headroom_check t;
      let t0 = now t in
      match Uc.deploy t.node_env base with
      | exception Mem.Frame.Out_of_memory ->
          ignore (reclaim_idle_ucs t);
          count_error t Cold;
          Error `Overloaded
      | uc ->
          if not (Uc.connect uc) then begin
            Uc.destroy uc;
            count_error t Cold;
            Error `Timeout
          end
          else begin
            ph.p_deploy <- ph.p_deploy +. (now t -. t0);
            let t1 = now t in
            if not (Uc.send uc (Unikernel.Driver.Init fn.source)) then begin
              Uc.destroy uc;
              count_error t Cold;
              Error `Timeout
            end
            else begin
              match
                Sim.Trace.span "node.await compile breakpoint" (fun () ->
                    Uc.await_breakpoint uc ~timeout:Config.invoke_timeout)
              with
              | Some "compile-ok" ->
                  (* The guest is parked at the post-compile breakpoint:
                     capture the function snapshot, then resume and run. *)
                  if
                    t.cfg.Config.cache_function_snapshots
                    && not (Hashtbl.mem t.fn_snapshots fn.fn_id)
                  then begin
                    (* Fault plane: a failed capture loses the function
                       snapshot (the invocation itself still succeeds);
                       the next miss pays the cold path again. *)
                    let detail () = fn.fn_id in
                    if not (inject t Faults.Fault.Capture_fail detail) then begin
                      let snap =
                        Uc.capture uc ~env:t.node_env ~name:("fn-" ^ fn.fn_id)
                      in
                      install_snapshot t ~fn_id:fn.fn_id snap
                    end
                  end;
                  Uc.resume uc;
                  ph.p_import <- ph.p_import +. (now t -. t1);
                  finish t Cold fn uc (run_on_uc t ph uc ~args)
              | Some label
                when String.length label >= 12
                     && String.sub label 0 12 = "compile-err:" ->
                  Uc.resume uc;
                  Uc.destroy uc;
                  count_error t Cold;
                  Error
                    (`Compile_error
                      (String.sub label 12 (String.length label - 12)))
              | Some other ->
                  Uc.destroy uc;
                  count_error t Cold;
                  Error (`Compile_error ("unexpected breakpoint " ^ other))
              | None ->
                  Uc.destroy uc;
                  count_error t Cold;
                  Error `Timeout
            end
          end)

(* A hot UC died out from under the request: retry internally on the
   warm (or cold) path. The invocation keeps its first-attempted [Hot]
   path in the counters — only the separate retry counter moves — and
   the client never sees the intermediate failure. *)
let retry_after_hot_death t ph fn ~args =
  Obs.Metrics.inc t.c_retried;
  Osenv.emit t.node_env (Obs.Event.Invoke_retry { fn_id = fn.fn_id });
  match lookup_snapshot t fn.fn_id with
  | Some snap -> warm_invoke_pinned t ph fn snap ~args
  | None -> cold_invoke t ph fn ~args

let hot_invoke t ph uc fn ~args =
  Sim.Trace.mark "node.path hot";
  let t0 = now t in
  if Uc.connect uc then begin
    ph.p_deploy <- ph.p_deploy +. (now t -. t0);
    match run_on_uc t ph uc ~args with
    | Error _ when Uc.status uc = Uc.Dead ->
        (* The guest died mid-request (not a guest-level error reply):
           fall back rather than surface a transient to the caller. *)
        retry_after_hot_death t ph fn ~args
    | result -> finish t Hot fn uc result
  end
  else begin
    Uc.destroy uc;
    retry_after_hot_death t ph fn ~args
  end

let invoke t fn ~args =
  let t0 = now t in
  t.in_flight <- t.in_flight + 1;
  Osenv.emit t.node_env (Obs.Event.Invoke_start { fn_id = fn.fn_id });
  let ph = { p_deploy = 0.0; p_import = 0.0; p_run = 0.0 } in
  let result, path =
    Sim.Trace.span ("node.invoke " ^ fn.fn_id) (fun () ->
        match pop_idle t fn.fn_id with
        | Some uc ->
            count_invocation t Hot fn.runtime;
            (hot_invoke t ph uc fn ~args, Hot)
        | None -> (
            match lookup_snapshot t fn.fn_id with
            | Some snap ->
                count_invocation t Warm fn.runtime;
                (warm_invoke_pinned t ph fn snap ~args, Warm)
            | None ->
                count_invocation t Cold fn.runtime;
                (cold_invoke t ph fn ~args, Cold)))
  in
  t.in_flight <- t.in_flight - 1;
  let total = now t -. t0 in
  let service = ph.p_deploy +. ph.p_import +. ph.p_run in
  Osenv.emit t.node_env
    (Obs.Event.Invoke_finish
       {
         fn_id = fn.fn_id;
         path = obs_path path;
         queue = Float.max 0.0 (total -. service);
         deploy = ph.p_deploy;
         import = ph.p_import;
         run = ph.p_run;
         total;
         ok = Result.is_ok result;
       });
  (result, path)

let last_served_uc t = t.last_uc
let in_flight t = t.in_flight

(* Orderly teardown, for leak audits: destroy every idle UC, then delete
   function snapshots (their dependents are now zero), then bases. After
   shutdown the node holds no frames — a consistent allocator reports
   [used_frames = 0]. *)
let shutdown t =
  (match t.last_uc with Some uc -> Uc.destroy uc | None -> ());
  t.last_uc <- None;
  (* Destroy in sorted-key order: frees recycle through the allocator's
     free list, so teardown order must not depend on bucket layout. *)
  Det.iter (fun _ q -> Queue.iter Uc.destroy q) t.idle;
  Hashtbl.reset t.idle;
  Queue.clear t.idle_order;
  t.idle_total <- 0;
  (match t.store with
  | Some s -> Snapstore.drain s
  | None ->
      Det.iter
        (fun _ snap -> ignore (Snapshot.try_delete ~env:t.node_env snap))
        t.fn_snapshots);
  Hashtbl.reset t.fn_snapshots;
  List.iter
    (fun (_, base) -> ignore (Snapshot.try_delete ~env:t.node_env base))
    t.bases;
  t.bases <- []

(* {1 Ownership census}

   At engine quiescence, count every resource the node still holds
   beyond its deliberate caches, against the runtime ground truth — the
   frame allocator, snapshot dependent counts, the UC create/destroy
   ledger — so every acquire without its release surfaces. With
   Frame.check_live, Snapshot.decref's dependents check and
   Page_table.check_alive (which catch double releases and uses after
   release where they happen) it is the ownership guarantee. *)

type census = {
  leaked_frames : int;
  snapshot_ref_mismatch : int;
  pinned_windows : int;
  leaked_ucs : int;
}

(* Every UC the node knowingly holds and has not released: the idle
   cache (dead-but-undrained entries count as held — the node still owns
   their release). The last-served UC is not counted: at quiescence it
   is either in the cache or released, so counting it would only hide a
   served UC that was never destroyed. *)
let accounted_ucs t =
  List.filter (fun uc -> not (Uc.is_released uc)) (idle_ucs t)

let census t =
  let env = t.node_env in
  let ucs = accounted_ucs t in
  let snaps =
    List.map snd t.bases @ List.map snd (snapshot_inventory t)
  in
  (* One family listing every live table the node knows about — base
     and function snapshots plus held UC address spaces — so shared
     leaves are counted once and the implied live-frame count is exact.
     Any surplus the allocator reports belongs to a table nobody can
     ever release. *)
  let tables =
    List.map (fun (s : Snapshot.t) -> s.Snapshot.table) snaps
    @ List.map Uc.table ucs
  in
  let implied = Mem.Page_table.expected_refcounts tables in
  let leaked_frames =
    Mem.Frame.used_frames env.Osenv.frames - Hashtbl.length implied
  in
  (* Expected dependents of a snapshot: held UCs deployed from it plus
     child snapshots captured over it (names are unique per node, so
     name equality identifies the snapshot without physical compare). *)
  let expected_deps (s : Snapshot.t) =
    let from_ucs =
      List.length
        (List.filter
           (fun uc ->
             match Uc.source_snapshot uc with
             | Some src -> String.equal src.Snapshot.name s.Snapshot.name
             | None -> false)
           ucs)
    and from_children =
      List.length
        (List.filter
           (fun (c : Snapshot.t) ->
             match c.Snapshot.parent with
             | Some p -> String.equal p.Snapshot.name s.Snapshot.name
             | None -> false)
           snaps)
    in
    from_ucs + from_children
  in
  let snapshot_ref_mismatch =
    List.fold_left
      (fun acc s -> acc + (Snapshot.dependents s - expected_deps s))
      0 snaps
  in
  (* A released UC whose guest process has not ended leaks too: the
     process holds its stack until it ends. *)
  let leaked_ucs =
    env.Osenv.ucs_created - env.Osenv.ucs_released - List.length ucs
    + env.Osenv.orphan_guests
  in
  {
    leaked_frames;
    snapshot_ref_mismatch;
    pinned_windows = env.Osenv.pins;
    leaked_ucs;
  }

let census_clean c =
  c.leaked_frames = 0
  && c.snapshot_ref_mismatch = 0
  && c.pinned_windows = 0
  && c.leaked_ucs = 0

(* One engine's census ledger: how many nodes it has named, and the
   nonzero censuses found at quiescence, newest first. It exists only
   on a checked engine. *)
type ledger = { mutable named : int; mutable leaks : (string * census) list }

let ledger_key : ledger Sim.Engine.key = Sim.Engine.new_key ()

let leaks engine =
  match Sim.Engine.get_global engine ledger_key with
  | Some l -> List.rev l.leaks
  | None -> []

(* On a checked engine, name the node by its creation order there (so a
   report does not depend on the runs before it) and register its
   quiescence hook. *)
let arm_census t =
  let engine = t.node_env.Osenv.engine in
  if Sim.Engine.checked engine then begin
    let ledger =
      match Sim.Engine.get_global engine ledger_key with
      | Some l -> l
      | None ->
          let l = { named = 0; leaks = [] } in
          Sim.Engine.set_global engine ledger_key (Some l);
          l
    in
    let name = Printf.sprintf "node%d" ledger.named in
    ledger.named <- ledger.named + 1;
    Sim.Engine.at_quiescence engine (fun () ->
        let c = census t in
        (* Emit only on a nonzero count: a healthy armed run's event
           stream stays byte-identical to an unarmed one (an
           unconditional event could change ring-eviction order). *)
        if not (census_clean c) then begin
          Osenv.emit t.node_env
            (Obs.Event.San_leak
               {
                 node = name;
                 frames = c.leaked_frames;
                 snapshot_refs = c.snapshot_ref_mismatch;
                 pinned = c.pinned_windows;
                 ucs = c.leaked_ucs;
               });
          ledger.leaks <- (name, c) :: ledger.leaks
        end)
  end

(* Here, below the census: every node registers its own. *)
let create ?(config = Config.default) node_env =
  let m = node_env.Osenv.metrics in
  let errors p = Obs.Metrics.counter m ~labels:[ ("path", p) ] "node_errors_total" in
  let t =
  {
    node_env;
    cfg = config;
    in_flight = 0;
    bases = [];
    store = None;
    fn_snapshots = Hashtbl.create 1024;
    idle = Hashtbl.create 1024;
    idle_order = Queue.create ();
    idle_total = 0;
    last_uc = None;
    c_errors_cold = errors "cold";
    c_errors_warm = errors "warm";
    c_errors_hot = errors "hot";
    c_retried = Obs.Metrics.counter m "node_invoke_retries_total";
    c_reclaimed = Obs.Metrics.counter m "node_ucs_reclaimed_total";
    c_oom_wakes = Obs.Metrics.counter m "node_oom_wakes_total";
    c_captured = Obs.Metrics.counter m "node_snapshots_captured_total";
  }
  in
  if Int64.compare config.Config.snapshot_cache_bytes 0L > 0 then
    t.store <-
      Some
        (Snapstore.create ~env:node_env
           ~budget_bytes:config.Config.snapshot_cache_bytes
           ~policy:config.Config.snapshot_cache_policy
           ~on_evict:(fun ~fn_id -> Hashtbl.remove t.fn_snapshots fn_id));
  arm_census t;
  t

let deploy_idle t runtime =
  match base_snapshot t runtime with
  | None -> false
  | Some base -> (
      match Uc.deploy t.node_env base with
      | exception Mem.Frame.Out_of_memory -> false
      | uc ->
          if Uc.connect uc then begin
            match Uc.request uc Unikernel.Driver.Ping ~timeout:10.0 with
            | Ok Unikernel.Driver.Pong ->
                push_idle t
                  (Printf.sprintf "idle-%s-%d"
                     (Unikernel.Image.runtime_name runtime)
                     (Uc.id uc))
                  uc;
                true
            | _ ->
                Uc.destroy uc;
                false
          end
          else begin
            Uc.destroy uc;
            false
          end)
