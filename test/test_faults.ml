(* Tests for the fault-injection plane: plan mechanics and determinism,
   the node/cluster injection sites, retry/backoff
   resilience, and a 100-seed property sweep over node invariants. *)

module Fault = Faults.Fault

let gib n = Int64.mul (Int64.of_int n) (Int64.of_int (Mem.Mconfig.mib 1024))

let in_sim ?(seed = 19L) body =
  let engine = Sim.Engine.create ~seed () in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"test" (fun () -> result := Some (body engine));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let nop_fn id =
  {
    Seuss.Node.fn_id = id;
    runtime = Unikernel.Image.Node;
    source = "function main(args) { return {}; }";
  }

(* Build and boot a single node, then install a plan with the given
   rates. Order matters: the plan must arm only after boot, because the
   AO handshake goes through the [Net_drop] site. *)
let node_with_plan ?(plan_seed = 0xFA17L) ~rates engine =
  let env = Experiments.Harness.make_seuss_env ~budget_bytes:(gib 6) engine in
  let node = Experiments.Harness.seuss_node env in
  let plan = Fault.make ~seed:plan_seed ~rates engine in
  Fault.install plan;
  (node, plan)

let with_cluster ?(nodes = 3) body =
  in_sim (fun engine ->
      let c = Cluster.Drseuss.create ~nodes ~budget_per_node:(gib 6) engine in
      body engine c)

let events_of c =
  List.map (fun r -> r.Obs.Log.ev) (Obs.Log.records (Cluster.Drseuss.log c))

(* {1 Plan mechanics} *)

let test_make_rejects_bad_rates () =
  let engine = Sim.Engine.create ~seed:1L () in
  let rejects rates =
    match Fault.make ~rates engine with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rate > 1 rejected" true
    (rejects [ (Fault.Uc_kill, 1.5) ]);
  Alcotest.(check bool) "negative rate rejected" true
    (rejects [ (Fault.Net_drop, -0.1) ]);
  Alcotest.(check bool) "nan rejected" true
    (rejects [ (Fault.Net_drop, Float.nan) ])

let test_install_current_uninstall () =
  in_sim (fun engine ->
      Alcotest.(check bool) "no plan initially" true
        (Option.is_none (Fault.current ()));
      let plan = Fault.make ~seed:2L engine in
      Fault.set_rate plan Fault.Uc_kill 0.7;
      Fault.install plan;
      (match Fault.current () with
      | None -> Alcotest.fail "plan not visible after install"
      | Some p ->
          Alcotest.(check (float 1e-9)) "same plan" 0.7
            (Fault.rate p Fault.Uc_kill));
      Fault.uninstall engine;
      Alcotest.(check bool) "gone after uninstall" true
        (Option.is_none (Fault.current ())))

let test_zero_rate_plan_never_fires () =
  in_sim (fun engine ->
      let node, plan = node_with_plan ~rates:[] engine in
      for i = 0 to 5 do
        match Seuss.Node.invoke node (nop_fn (Printf.sprintf "z%d" (i mod 2)))
                ~args:"{}"
        with
        | Ok _, _ -> ()
        | Error _, _ -> Alcotest.fail "invocation failed under zero-rate plan"
      done;
      Alcotest.(check int) "nothing fired" 0 (Fault.fired plan);
      Alcotest.(check bool) "empty history" true (Fault.history plan = []))

(* {1 Determinism} *)

let faulted_run plan_seed =
  in_sim ~seed:11L (fun engine ->
      let node, plan =
        node_with_plan ~plan_seed
          ~rates:
            [
              (Fault.Uc_kill, 0.2);
              (Fault.Capture_fail, 0.2);
              (Fault.Oom_storm, 0.1);
              (Fault.Net_drop, 0.1);
              (Fault.Net_delay, 0.2);
            ]
          engine
      in
      for i = 0 to 29 do
        ignore
          (Seuss.Node.invoke node (nop_fn (Printf.sprintf "d%d" (i mod 6)))
             ~args:"{}")
      done;
      (Fault.history plan, Seuss.Node.stats node, Sim.Engine.now engine))

let test_same_seed_same_failure_sequence () =
  let h1, s1, t1 = faulted_run 0xFEEDL in
  let h2, s2, t2 = faulted_run 0xFEEDL in
  Alcotest.(check bool) "faults actually fired" true (List.length h1 > 0);
  Alcotest.(check bool) "identical histories" true (h1 = h2);
  Alcotest.(check bool) "identical stats" true (s1 = s2);
  Alcotest.(check (float 0.0)) "identical clocks" t1 t2

(* {1 Supervision}

   No process is supervised: one that raises, also after a suspension,
   ends the run as [Process_failure] with its name and its own
   exception. *)

let test_unsupervised_crash_aborts_run () =
  let engine = Sim.Engine.create ~seed:5L () in
  Sim.Engine.spawn engine ~name:"doomed" (fun () ->
      Sim.Engine.sleep 0.05;
      failwith "fatal");
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Engine.Process_failure ("doomed", Failure msg) ->
      Alcotest.(check string) "its own exception" "fatal" msg
  | exception _ -> Alcotest.fail "wrong exception"

(* {1 Node injection sites} *)

(* Regression: a hot UC killed mid-request is retried internally — the
   caller still sees [Ok] on the [Hot] path, with the retry visible only
   in [stats.retries] (the behaviour [Node.invoke]'s doc promises). *)
let test_uc_kill_hot_retry () =
  in_sim (fun engine ->
      let node, plan = node_with_plan ~rates:[] engine in
      let fn = nop_fn "killme" in
      (match Seuss.Node.invoke node fn ~args:"{}" with
      | Ok _, Seuss.Node.Cold -> ()
      | _ -> Alcotest.fail "priming invoke should be a cold hit");
      (* Disarm on the first fire (the emit is synchronous, before the
         UC is destroyed) so the internal retry itself survives. *)
      Obs.Log.subscribe
        (Seuss.Node.env node).Seuss.Osenv.log
        (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Fault_injected { site = "uc_kill"; _ } ->
              Fault.set_rate plan Fault.Uc_kill 0.0
          | _ -> ());
      Fault.set_rate plan Fault.Uc_kill 1.0;
      (match Seuss.Node.invoke node fn ~args:"{}" with
      | Ok _, Seuss.Node.Hot -> ()
      | Ok _, _ -> Alcotest.fail "retried invocation should keep the Hot path"
      | Error _, _ -> Alcotest.fail "hot death must not surface to the caller");
      let s = Seuss.Node.stats node in
      Alcotest.(check int) "one internal retry" 1 s.Seuss.Node.retries;
      Alcotest.(check int) "no client-visible errors" 0 s.Seuss.Node.errors;
      Alcotest.(check int) "cold" 1 s.Seuss.Node.cold;
      Alcotest.(check int) "hot" 1 s.Seuss.Node.hot;
      Alcotest.(check int) "paths sum to invocations" 2
        (s.Seuss.Node.cold + s.Seuss.Node.warm + s.Seuss.Node.hot))

let test_capture_fail_loses_snapshot_only () =
  in_sim (fun engine ->
      let node, plan =
        node_with_plan ~rates:[ (Fault.Capture_fail, 1.0) ] engine
      in
      let fn = nop_fn "flaky-capture" in
      (match Seuss.Node.invoke node fn ~args:"{}" with
      | Ok _, Seuss.Node.Cold -> ()
      | _ -> Alcotest.fail "first invoke should still succeed cold");
      Alcotest.(check bool) "capture lost" true
        (Option.is_none (Seuss.Node.function_snapshot node fn.Seuss.Node.fn_id));
      (* Without the snapshot (and with the idle UC dropped) the next
         miss pays the cold path again. *)
      Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id;
      (match Seuss.Node.invoke node fn ~args:"{}" with
      | Ok _, Seuss.Node.Cold -> ()
      | _ -> Alcotest.fail "second invoke should be cold again");
      Fault.set_rate plan Fault.Capture_fail 0.0;
      Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id;
      (match Seuss.Node.invoke node fn ~args:"{}" with
      | Ok _, Seuss.Node.Cold -> ()
      | _ -> Alcotest.fail "third invoke should be cold");
      Alcotest.(check bool) "capture works once disarmed" true
        (Option.is_some (Seuss.Node.function_snapshot node fn.Seuss.Node.fn_id));
      let s = Seuss.Node.stats node in
      Alcotest.(check int) "exactly one snapshot captured" 1
        s.Seuss.Node.snapshots_captured)

let test_oom_storm_evicts_idle_cache () =
  in_sim (fun engine ->
      let node, plan = node_with_plan ~rates:[] engine in
      (match Seuss.Node.invoke node (nop_fn "a") ~args:"{}" with
      | Ok _, _ -> ()
      | Error _, _ -> Alcotest.fail "invoke a failed");
      Alcotest.(check int) "a's UC cached idle" 1 (Seuss.Node.idle_uc_count node);
      Fault.set_rate plan Fault.Oom_storm 1.0;
      (match Seuss.Node.invoke node (nop_fn "b") ~args:"{}" with
      | Ok _, _ -> ()
      | Error _, _ -> Alcotest.fail "invoke b failed");
      Fault.set_rate plan Fault.Oom_storm 0.0;
      let s = Seuss.Node.stats node in
      Alcotest.(check bool) "storm reclaimed the idle cache" true
        (s.Seuss.Node.reclaimed_ucs >= 1);
      (* a's idle UC is gone but its snapshot survived: warm, not hot. *)
      match Seuss.Node.invoke node (nop_fn "a") ~args:"{}" with
      | Ok _, Seuss.Node.Warm -> ()
      | Ok _, p ->
          Alcotest.failf "expected warm after storm, got %s"
            (match p with
            | Seuss.Node.Cold -> "cold"
            | Seuss.Node.Warm -> "warm"
            | Seuss.Node.Hot -> "hot")
      | Error _, _ -> Alcotest.fail "invoke a after storm failed")

(* {1 Cluster resilience} *)

let test_crash_evicts_and_repairs_registry () =
  with_cluster ~nodes:2 (fun _engine c ->
      let fn = nop_fn "c" in
      ignore (Cluster.Drseuss.invoke c fn ~args:"{}");
      ignore (Cluster.Drseuss.invoke c fn ~args:"{}");
      let reg = Cluster.Drseuss.registry c in
      Alcotest.(check int) "both nodes hold c" 2
        (List.length (Cluster.Registry.locate reg ~fn_id:"c"));
      (* Simulate staleness: the registry forgot node 1's copy, so the
         crash of node 0 orphans the function entirely. *)
      Cluster.Registry.evict reg ~fn_id:"c" ~node_id:1;
      Cluster.Drseuss.crash_node c 0;
      Alcotest.(check bool) "node 0 dead" false (Cluster.Drseuss.is_alive c 0);
      Alcotest.(check int) "one survivor" 1 (Cluster.Drseuss.alive_count c);
      (* Node 1 still holds the snapshot and re-publishes it. *)
      (match Cluster.Registry.locate reg ~fn_id:"c" with
      | [ l ] ->
          Alcotest.(check int) "survivor is the holder" 1
            l.Cluster.Registry.node_id
      | _ -> Alcotest.fail "expected exactly one holder after repair");
      let evicted_for_crash =
        List.exists
          (function
            | Obs.Event.Registry_evict { reason = "node crash"; node_id = 0; _ }
              ->
                true
            | _ -> false)
          (events_of c)
      and repaired =
        List.exists
          (function
            | Obs.Event.Registry_repair { node_id = 1; republished = 1 } -> true
            | _ -> false)
          (events_of c)
      in
      Alcotest.(check bool) "crash eviction logged" true evicted_for_crash;
      Alcotest.(check bool) "repair logged" true repaired;
      let s = Cluster.Drseuss.stats c in
      Alcotest.(check int) "one crash counted" 1 s.Cluster.Drseuss.node_crashes)

let test_failover_routes_around_dead_node () =
  with_cluster ~nodes:2 (fun _engine c ->
      Cluster.Drseuss.crash_node c 0;
      (match Cluster.Drseuss.invoke c (nop_fn "f") ~args:"{}" with
      | Ok _, _ -> ()
      | Error _, _ -> Alcotest.fail "survivor should serve the invocation");
      let s = Cluster.Drseuss.stats c in
      Alcotest.(check int) "one failover" 1 s.Cluster.Drseuss.failovers;
      let logged =
        List.exists
          (function
            | Obs.Event.Failover { from_node = 0; to_node = 1; _ } -> true
            | _ -> false)
          (events_of c)
      in
      Alcotest.(check bool) "failover logged" true logged)

let test_stale_fetch_retries_backoff_then_degrades () =
  with_cluster ~nodes:4 (fun engine c ->
      let fn = nop_fn "shared" in
      (* Three invocations seed three holders (cold, fetch, fetch). *)
      for _ = 1 to 3 do
        match Cluster.Drseuss.invoke c fn ~args:"{}" with
        | Ok _, _ -> ()
        | Error _, _ -> Alcotest.fail "seeding invocation failed"
      done;
      let plan = Fault.make ~seed:0xBADCAFEL engine in
      Fault.set_rate plan Fault.Registry_stale 1.0;
      Fault.install plan;
      (* The fourth routes to the empty node; every holder it tries is
         stale, so it backs off twice, evicts all three, and degrades to
         a local cold start — still serving the request. *)
      let t0 = Sim.Engine.now engine in
      (match Cluster.Drseuss.invoke c fn ~args:"{}" with
      | Ok _, Cluster.Drseuss.Cluster_cold -> ()
      | Ok _, _ -> Alcotest.fail "degraded invocation should be a cluster cold"
      | Error _, _ -> Alcotest.fail "degraded invocation must still succeed");
      let elapsed = Sim.Engine.now engine -. t0 in
      let s = Cluster.Drseuss.stats c in
      Alcotest.(check int) "two backed-off retries" 2
        s.Cluster.Drseuss.fetch_retries;
      Alcotest.(check int) "all three holders evicted" 3
        s.Cluster.Drseuss.registry_evictions;
      Alcotest.(check int) "one degraded cold" 1
        s.Cluster.Drseuss.degraded_colds;
      let backoffs =
        List.filter_map
          (function
            | Obs.Event.Fetch_retry { attempt; backoff; _ } ->
                Some (attempt, backoff)
            | _ -> None)
          (events_of c)
      in
      (match backoffs with
      | [ (1, b0); (2, b1) ] ->
          Alcotest.(check bool) "b0 in [base, 2*base)" true
            (b0 >= 0.05 && b0 < 0.1);
          Alcotest.(check bool) "b1 in [2*base, 4*base)" true
            (b1 >= 0.1 && b1 < 0.2);
          Alcotest.(check bool) "exponential growth" true (b1 > b0);
          Alcotest.(check bool) "pauses actually slept" true
            (elapsed >= b0 +. b1)
      | _ -> Alcotest.fail "expected exactly two Fetch_retry events");
      let degraded_logged =
        List.exists
          (function
            | Obs.Event.Degraded_cold { fn_id = "shared" } -> true
            | _ -> false)
          (events_of c)
      in
      Alcotest.(check bool) "degradation logged" true degraded_logged)

(* The ISSUE's acceptance bar: under single-node-crash injection the
   cluster keeps serving ≥ 99% of invocations (degraded colds count as
   served — the clients got answers). *)
let test_availability_under_node_crash () =
  with_cluster ~nodes:4 (fun engine c ->
      let plan = Fault.make ~seed:6L engine in
      Fault.install plan;
      let served = ref 0 in
      let calls = 200 in
      for i = 0 to calls - 1 do
        if i = 50 then Fault.set_rate plan Fault.Node_crash 1.0;
        (match
           Cluster.Drseuss.invoke c
             (nop_fn (Printf.sprintf "fn-%d" (i mod 25)))
             ~args:"{}"
         with
        | Ok _, _ -> incr served
        | Error _, _ -> ());
        if i = 50 then Fault.set_rate plan Fault.Node_crash 0.0
      done;
      let s = Cluster.Drseuss.stats c in
      Alcotest.(check int) "exactly one crash" 1 s.Cluster.Drseuss.node_crashes;
      Alcotest.(check int) "three survivors" 3 (Cluster.Drseuss.alive_count c);
      Alcotest.(check bool) "crash logged" true
        (List.exists
           (function Obs.Event.Node_crash _ -> true | _ -> false)
           (events_of c));
      Alcotest.(check bool)
        (Printf.sprintf "availability >= 99%% (served %d/%d)" !served calls)
        true
        (float_of_int !served /. float_of_int calls >= 0.99))

(* {1 fig_chaos} *)

let test_fig_chaos_deterministic () =
  let run () =
    Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:20
      ~rates:[ 0.0; 0.08 ] ~seed:29L ()
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check string) "identical JSON"
    Experiments.(Report.to_json (Fig_chaos.report r1))
    Experiments.(Report.to_json (Fig_chaos.report r2));
  Alcotest.(check string) "identical timelines"
    r1.Experiments.Fig_chaos.timeline r2.Experiments.Fig_chaos.timeline;
  match r1.Experiments.Fig_chaos.points with
  | [ p0; _ ] ->
      Alcotest.(check (float 0.0)) "control arm fully available" 1.0
        p0.Experiments.Fig_chaos.availability;
      Alcotest.(check int) "control arm draws nothing" 0
        p0.Experiments.Fig_chaos.faults_fired
  | _ -> Alcotest.fail "expected two points"

(* {1 Zero-rate transparency} *)

let identity_run ~with_plan =
  in_sim ~seed:23L (fun engine ->
      let env = Experiments.Harness.make_seuss_env ~budget_bytes:(gib 6) engine in
      let node = Experiments.Harness.seuss_node env in
      if with_plan then begin
        let plan =
          Fault.make ~seed:99L
            ~rates:(List.map (fun s -> (s, 0.0)) Fault.all_sites)
            engine
        in
        Fault.install plan
      end;
      for i = 0 to 11 do
        ignore
          (Seuss.Node.invoke node (nop_fn (Printf.sprintf "id%d" (i mod 3)))
             ~args:"{}")
      done;
      ( Sim.Engine.now engine,
        Seuss.Node.stats node,
        Obs.Log.to_jsonl env.Seuss.Osenv.log ))

let test_zero_rate_plan_is_transparent () =
  let t1, s1, l1 = identity_run ~with_plan:false in
  let t2, s2, l2 = identity_run ~with_plan:true in
  Alcotest.(check (float 0.0)) "same clock" t1 t2;
  Alcotest.(check bool) "same stats" true (s1 = s2);
  Alcotest.(check string) "same event log" l1 l2

(* {1 Property sweep}

   100 seeds of randomized ops against a faulted node; the node's core
   invariants must hold at the end of every run, whatever the failure
   interleaving. *)

let sweep_rates =
  [
    (Fault.Uc_kill, 0.15);
    (Fault.Capture_fail, 0.15);
    (Fault.Oom_storm, 0.05);
    (Fault.Net_drop, 0.05);
    (Fault.Net_delay, 0.1);
  ]

let sweep_one seed =
  in_sim ~seed:(Int64.of_int (1000 + seed)) (fun engine ->
      let env = Experiments.Harness.make_seuss_env ~budget_bytes:(gib 4) engine in
      let node = Experiments.Harness.seuss_node env in
      let plan =
        Fault.make ~seed:(Int64.of_int ((7 * seed) + 13)) ~rates:sweep_rates
          engine
      in
      Fault.install plan;
      let ops = Sim.Prng.create (Int64.of_int ((31 * seed) + 5)) in
      let issued = ref 0 in
      for _ = 1 to 20 do
        let roll = Sim.Prng.int ops 100 in
        if roll < 60 then begin
          incr issued;
          ignore
            (Seuss.Node.invoke node
               (nop_fn (Printf.sprintf "s%d" (Sim.Prng.int ops 5)))
               ~args:"{}")
        end
        else if roll < 75 then
          Seuss.Node.drop_idle node
            ~fn_id:(Printf.sprintf "s%d" (Sim.Prng.int ops 5))
        else if roll < 85 then ignore (Seuss.Node.reclaim_idle_ucs node)
        else ignore (Seuss.Node.deploy_idle node Unikernel.Image.Node)
      done;
      let check name cond =
        if not cond then
          Alcotest.failf "seed %d violates invariant: %s" seed name
      in
      let s = Seuss.Node.stats node in
      check "paths sum to invocations"
        (s.Seuss.Node.cold + s.Seuss.Node.warm + s.Seuss.Node.hot = !issued);
      check "errors bounded by invocations" (s.Seuss.Node.errors <= !issued);
      let frames = env.Seuss.Osenv.frames in
      check "free + used = budget"
        (Int64.add (Mem.Frame.free_bytes frames) (Mem.Frame.used_bytes frames)
        = Mem.Frame.budget_bytes frames);
      check "idle list matches its count"
        (List.length (Seuss.Node.idle_ucs node) = Seuss.Node.idle_uc_count node);
      List.iter
        (fun (_, snap) ->
          check "cached snapshot not deleted"
            (not (Seuss.Snapshot.is_deleted snap));
          match snap.Seuss.Snapshot.parent with
          | None -> ()
          | Some parent ->
              check "parent outlives dependent"
                (not (Seuss.Snapshot.is_deleted parent));
              check "parent counts its dependent"
                (Seuss.Snapshot.dependents parent >= 1))
        (Seuss.Node.snapshot_inventory node))

let test_property_sweep () =
  for seed = 0 to 99 do
    sweep_one seed
  done

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faults"
    [
      ( "plan",
        [
          case "rejects bad rates" test_make_rejects_bad_rates;
          case "install current uninstall" test_install_current_uninstall;
          case "zero rate never fires" test_zero_rate_plan_never_fires;
        ] );
      ( "determinism",
        [
          case "same seed same sequence" test_same_seed_same_failure_sequence;
          case "fig_chaos deterministic" test_fig_chaos_deterministic;
          case "zero-rate plan transparent" test_zero_rate_plan_is_transparent;
        ] );
      ( "supervision",
        [ case "unsupervised crash aborts" test_unsupervised_crash_aborts_run ]
      );
      ( "node sites",
        [
          case "uc_kill hot retry" test_uc_kill_hot_retry;
          case "capture_fail loses snapshot only"
            test_capture_fail_loses_snapshot_only;
          case "oom_storm evicts idle cache" test_oom_storm_evicts_idle_cache;
        ] );
      ( "cluster resilience",
        [
          case "crash evicts and repairs" test_crash_evicts_and_repairs_registry;
          case "failover around dead node"
            test_failover_routes_around_dead_node;
          case "stale fetch retries then degrades"
            test_stale_fetch_retries_backoff_then_degrades;
          case "availability under crash" test_availability_under_node_crash;
        ] );
      ( "properties", [ case "100-seed invariant sweep" test_property_sweep ] );
    ]
