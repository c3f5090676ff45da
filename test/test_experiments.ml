(* Smoke tests for the experiment harness: each table/figure module runs
   at reduced scale and must reproduce the paper's orderings. These are
   the repository's executable claims about the reproduction. *)

let test_table1_shapes () =
  let r = Experiments.Table1.run ~invocations:20 () in
  let open Experiments.Table1 in
  (* Memory: AO grows the base, shrinks the function snapshot. *)
  Alcotest.(check bool) "base grows under AO" true
    (Int64.compare r.base_ao_bytes r.base_no_ao_bytes > 0);
  Alcotest.(check bool) "fn snapshot shrinks under AO" true
    (Int64.compare r.fn_ao_bytes r.fn_no_ao_bytes < 0);
  (* Latency ordering and magnitudes. *)
  let cold = r.cold.Stats.Summary.mean
  and warm = r.warm.Stats.Summary.mean
  and hot = r.hot.Stats.Summary.mean in
  Alcotest.(check bool) "cold > warm > hot" true (cold > warm && warm > hot);
  Alcotest.(check bool) "cold ~7.5ms" true (cold > 5e-3 && cold < 11e-3);
  Alcotest.(check bool) "warm ~3.5ms" true (warm > 2e-3 && warm < 6e-3);
  Alcotest.(check bool) "hot ~0.8ms" true (hot > 0.3e-3 && hot < 1.6e-3);
  (* Footprints: cold leaves the most private pages, hot the fewest. *)
  Alcotest.(check bool) "footprint ordering" true
    (r.cold_pages > r.warm_pages && r.warm_pages > r.hot_pages);
  let render = Experiments.(Report.to_text (Table1.report r)) in
  Alcotest.(check bool) "renders" true (String.length render > 100)

(* Under an armed fault plane a NOP deploy can lose its snapshot
   capture, and a timed call can fail or take another path. Table 1
   counts such calls and completes; seed 1 has failed calls at this
   size. *)
let test_table1_under_faults () =
  let run = { Experiments.Run_config.default with fault_rate = 0.01 } in
  ignore
    (Experiments.Harness.with_run run (fun () ->
         Experiments.Table1.run ~invocations:20 ~seed:1L ()))
let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The note names the count the rows were measured over, not the
   paper's 475. *)
let test_table1_note_count () =
  let note =
    Experiments.(Report.to_text (Table1.report (Table1.run ~invocations:3 ())))
  in
  let says = "measured over 3 NOP invocations per path" in
  Alcotest.(check bool) says true (contains note says)

let test_table2_ladder () =
  let r = Experiments.Table2.run ~invocations:8 () in
  let open Experiments.Table2 in
  Alcotest.(check bool) "cold ladder" true
    (r.no_ao.cold_ms > r.network_ao.cold_ms
    && r.network_ao.cold_ms > r.full_ao.cold_ms);
  Alcotest.(check bool) "warm ladder" true
    (r.no_ao.warm_ms > r.network_ao.warm_ms
    && r.network_ao.warm_ms > r.full_ao.warm_ms);
  (* Paper magnitudes within generous bands. *)
  Alcotest.(check bool) "no-AO cold near 42 ms" true
    (r.no_ao.cold_ms > 30.0 && r.no_ao.cold_ms < 55.0);
  Alcotest.(check bool) "full-AO cold near 7.5 ms" true
    (r.full_ao.cold_ms > 5.0 && r.full_ao.cold_ms < 11.0)

let test_table3_orderings () =
  (* Reduced memory budget keeps the test fast; ratios survive. *)
  let r =
    Experiments.Table3.run
      ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 3072))
      ~rate_sample:60 ()
  in
  let open Experiments.Table3 in
  Alcotest.(check bool) "density: seuss > process > docker > microvm" true
    (r.seuss.density > r.process.density
    && r.process.density > r.docker.density
    && r.docker.density > r.firecracker.density);
  Alcotest.(check bool) "seuss density dominates by >5x" true
    (r.seuss.density > 5 * r.process.density);
  Alcotest.(check bool) "rate: seuss > process > docker > microvm" true
    (r.seuss.rate > r.process.rate
    && r.process.rate > r.docker.rate
    && r.docker.rate > r.firecracker.rate);
  Alcotest.(check bool) "seuss shim-bound near 128/s" true
    (r.seuss.rate > 100.0 && r.seuss.rate < 140.0)

(* The note names the budget the rows were measured at, not the
   paper's node ([seussctl table3 --mem-gib 2]). *)
let test_table3_note_budget () =
  let note =
    Experiments.(
      Report.to_text
        (Table3.report
           (Table3.run ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 2048))
              ~rate_sample:20 ())))
  in
  let says = "on a 2 GB / 16-VCPU node" in
  Alcotest.(check bool) says true (contains note says)

let test_fig4_crossover () =
  let r =
    Experiments.Fig4.run ~set_sizes:[ 64; 1024 ] ~client_threads:16 ()
  in
  let open Experiments.Fig4 in
  match (r.seuss, r.linux) with
  | [ s64; s1024 ], [ l64; l1024 ] ->
      (* Small sets: Linux ahead (shim hop); large sets: SEUSS wins big. *)
      Alcotest.(check bool) "linux ahead at 64" true
        (l64.throughput > s64.throughput);
      Alcotest.(check bool) "seuss ahead at 1024" true
        (s1024.throughput > 3.0 *. l1024.throughput);
      Alcotest.(check bool) "seuss roughly flat" true
        (s1024.throughput > 0.8 *. s64.throughput)
  | _ -> Alcotest.fail "unexpected series shape"

let test_fig5_percentiles () =
  let panels =
    Experiments.Fig5.run ~set_sizes:[ 32; 512 ] ~requests:256
      ~client_threads:16 ()
  in
  match panels with
  | [ small; big ] ->
      (* Linux p50 deteriorates by orders of magnitude across the cache
         cliff; SEUSS barely moves. *)
      let l_small = small.Experiments.Fig5.linux.Stats.Summary.p50 in
      let l_big = big.Experiments.Fig5.linux.Stats.Summary.p50 in
      let s_small = small.Experiments.Fig5.seuss.Stats.Summary.p50 in
      let s_big = big.Experiments.Fig5.seuss.Stats.Summary.p50 in
      Alcotest.(check bool) "linux collapses" true (l_big > 5.0 *. l_small);
      Alcotest.(check bool) "seuss stable" true (s_big < 2.0 *. s_small)
  | _ -> Alcotest.fail "expected two panels"

let test_burst_contrast () =
  let r =
    Experiments.Fig_burst.run ~period:8.0 ~duration:64.0 ~burst_size:24 ()
  in
  let open Experiments.Fig_burst in
  Alcotest.(check int) "seuss serves everything" 0
    (Stats.Series.failures r.seuss.background
    + Stats.Series.failures r.seuss.bursts);
  (* Same offered load on both sides. *)
  Alcotest.(check int) "same request count"
    (Stats.Series.length r.seuss.background + Stats.Series.length r.seuss.bursts)
    (Stats.Series.length r.linux.background + Stats.Series.length r.linux.bursts);
  (* SEUSS burst p99 far below Linux's. *)
  let p99 series =
    let s = Stats.Summary.create () in
    Array.iter
      (fun p -> Stats.Summary.add s p.Stats.Series.value)
      (Stats.Series.points series);
    Stats.Summary.percentile s 99.0
  in
  Alcotest.(check bool) "seuss burst p99 lower" true
    (p99 r.seuss.bursts < p99 r.linux.bursts)

let test_ablations_ordering () =
  let r = Experiments.Ablations.run ~invocations:5 () in
  let open Experiments.Ablations in
  Alcotest.(check bool) "stacks make repeat misses cheaper" true
    (r.warm_with_stacks_ms < r.miss_without_stacks_ms);
  Alcotest.(check bool) "idle cache makes repeats cheaper" true
    (r.hot_with_cache_ms < r.repeat_without_cache_ms);
  Alcotest.(check bool) "shim adds 6-10 ms" true
    (r.hot_via_shim_ms -. r.hot_direct_ms > 6.0
    && r.hot_via_shim_ms -. r.hot_direct_ms < 10.0);
  (* The specialized image boots much faster and is smaller, but cold
     starts match the general-purpose image: snapshots amortize boot. *)
  Alcotest.(check bool) "specialized boots faster" true
    (r.specialized_boot_s < 0.5 *. r.general_boot_s);
  Alcotest.(check bool) "specialized image smaller" true
    (r.specialized_base_mb < r.general_base_mb);
  Alcotest.(check bool) "cold starts equivalent" true
    (Float.abs (r.specialized_cold_ms -. r.general_cold_ms) < 1.0)

let test_auto_ao_recovers_costs () =
  let r = Experiments.Auto_ao.run ~invocations:6 () in
  Alcotest.(check int) "four components" 4
    (List.length r.Experiments.Auto_ao.components);
  (* Black-box inference must recover the modeled first-use costs. *)
  Alcotest.(check bool) "within 15%" true
    (r.Experiments.Auto_ao.max_relative_error < 0.15);
  List.iter
    (fun c ->
      Alcotest.(check bool) "positive cost" true
        (c.Experiments.Auto_ao.inferred_ms > 0.0))
    r.Experiments.Auto_ao.components

let test_fig4_deterministic () =
  (* Two in-process runs with the same seed must be structurally
     identical — the golden guarantee every byte comparison builds on. *)
  let run () = Experiments.Fig4.run ~set_sizes:[ 64 ] ~client_threads:16 () in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same-seed runs identical" true (r1 = r2);
  Alcotest.(check string) "rendered output identical"
    Experiments.(Report.to_text (Fig4.report r1))
    Experiments.(Report.to_text (Fig4.report r2))

let test_fig_reap_reduction () =
  let r = Experiments.Fig_reap.run ~functions:4 ~rounds:6 () in
  let open Experiments.Fig_reap in
  (* The PR's acceptance bar: prefaulting the recorded working set cuts
     warm-deploy fault-handling time by at least 30%. *)
  Alcotest.(check bool)
    (Printf.sprintf "reduction %.1f%% >= 30%%" r.reduction_pct)
    true
    (r.reduction_pct >= 30.0);
  (* Steady state replays entirely from the batch: demand faults gone. *)
  Alcotest.(check bool) "demand COW faults eliminated" true
    (r.on_.cow_faults < r.off.cow_faults && r.on_.cow_faults = 0);
  Alcotest.(check int) "same offered load" r.off.warm_invocations
    r.on_.warm_invocations;
  Alcotest.(check bool) "prefault batches ran" true (r.on_.prefault_batches > 0);
  Alcotest.(check int) "off arm never prefaults" 0 r.off.prefault_batches;
  (* Wall-clock latency must improve too, not just the fault accounting. *)
  Alcotest.(check bool) "warm mean latency improves" true
    (r.on_.mean_ms < r.off.mean_ms)

(* Under the fault plan a measured call can fail or leave its path;
   only served calls are credited, so with prefault on every served warm
   call contributes exactly its one batch. Seed 7 at the default size
   fails 3 calls per arm. *)
let test_fig_reap_under_faults () =
  let run = { Experiments.Run_config.default with fault_rate = 0.01 } in
  let r = Experiments.Harness.with_run run (fun () -> Experiments.Fig_reap.run ()) in
  let open Experiments.Fig_reap in
  Alcotest.(check bool) "calls failed" true (r.on_.failed > 0);
  Alcotest.(check int) "one batch per served call" r.on_.warm_invocations
    r.on_.prefault_batches;
  Alcotest.(check int) "batched COW copies match the off arm's faults"
    r.off.cow_faults r.on_.prefault_cow

let test_fig_load_shapes () =
  (* Trimmed sweep: every backend produces an arm at every load point,
     SEUSS stays fast and error-free, and the report artifacts render. *)
  let r =
    Experiments.Fig_load.run ~functions:32 ~hours:0.02 ~rps:[ 2.0; 8.0 ]
      ~arrival:"poisson" ~seed:7L ()
  in
  let open Experiments.Fig_load in
  Alcotest.(check int) "two load points" 2 (List.length r.points);
  List.iter
    (fun p ->
      Alcotest.(check int) "four arms" 4 (List.length p.arms);
      Alcotest.(check bool) "offered load positive" true (p.offered_rps > 0.0);
      List.iter
        (fun a ->
          Alcotest.(check int)
            (Printf.sprintf "%s replays the whole trace" a.backend)
            p.trace_events a.invocations;
          Alcotest.(check int) "ok + errors = invocations" a.invocations
            (a.ok + a.errors);
          Alcotest.(check bool) "tails ordered" true
            (a.p50_ms <= a.p90_ms && a.p90_ms <= a.p99_ms
           && a.p99_ms <= a.p999_ms))
        p.arms;
      let arm name = List.find (fun a -> String.equal a.backend name) p.arms in
      let seuss = arm "seuss" in
      Alcotest.(check int) "seuss error-free" 0 seuss.errors;
      Alcotest.(check bool) "seuss p99 under 100 ms" true
        (seuss.p99_ms < 100.0);
      Alcotest.(check bool) "seuss beats linux at p99" true
        (seuss.p99_ms < (arm "linux").p99_ms))
    r.points;
  Alcotest.(check bool) "timeline captured" true
    (String.length r.timeline > 0);
  let rendered = Experiments.Report.to_text (report r) in
  Alcotest.(check bool) "render mentions every backend" true
    (List.for_all (contains rendered) [ "seuss"; "linux"; "firecracker"; "process" ])

let test_fig_load_same_seed_identical () =
  let run () =
    Experiments.Fig_load.run ~functions:24 ~hours:0.01 ~rps:[ 4.0 ]
      ~arrival:"bursty" ~seed:9L ()
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same-seed runs identical" true (r1 = r2);
  Alcotest.(check string) "JSON identical"
    Experiments.(Report.to_json (Fig_load.report r1))
    Experiments.(Report.to_json (Fig_load.report r2))

(* A saved trace replays to the numbers of the sweep that synthesized
   it: save and load through JSONL, replay with run_trace, and the point
   and the canonical JSON must equal the synthesized one-point sweep. *)
let test_fig_load_replay_equals_synthesis () =
  let seed = 9L and functions = 32 and hours = 0.02 and rate = 4.0 in
  let synthesized =
    Experiments.Fig_load.run ~functions ~hours ~rps:[ rate ]
      ~arrival:"poisson" ~seed ()
  in
  let trace =
    Workload.Trace.synthesize ~functions
      ~alpha:synthesized.Experiments.Fig_load.alpha
      ~arrival:(Experiments.Fig_load.arrival_of_name "poisson" ~rate)
      ~horizon:synthesized.Experiments.Fig_load.horizon ~seed
  in
  let path = Filename.temp_file "fig_load" ".jsonl" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Workload.Trace.save ~path trace;
        Workload.Trace.load ~path)
  in
  match loaded with
  | Error msg -> Alcotest.fail ("saved trace did not load: " ^ msg)
  | Ok loaded ->
      let replayed = Experiments.Fig_load.run_trace ~seed loaded in
      Alcotest.(check bool) "replayed point equals the synthesized one" true
        (replayed.Experiments.Fig_load.points
        = synthesized.Experiments.Fig_load.points);
      Alcotest.(check string) "replayed JSON equals the synthesized JSON"
        Experiments.(Report.to_json (Fig_load.report synthesized))
        Experiments.(Report.to_json (Fig_load.report replayed))

let evict_sizes =
  (* 2 MiB is below even the first member's indexed-runtime footprint,
     so that arm lives under constant eviction pressure. *)
  [ 0L; Int64.of_int (Mem.Mconfig.mib 2); Int64.of_int (Mem.Mconfig.mib 64) ]

let test_fig_evict_shapes () =
  (* Trimmed sweep: the disarmed baseline, one budget under real
     pressure, one with headroom. The armed-unbounded arm must land on
     the baseline's serving behavior exactly, and the squeezed arm must
     actually evict and pay for it in cold starts. *)
  let r =
    Experiments.Fig_evict.run ~functions:12 ~hours:0.01 ~rate:8.0
      ~sizes:evict_sizes ~seed:5L ()
  in
  let open Experiments.Fig_evict in
  Alcotest.(check int) "three arms" 3 (List.length r.arms);
  List.iter
    (fun a ->
      Alcotest.(check int)
        (a.label ^ " replays the whole trace")
        r.trace_events a.invocations;
      Alcotest.(check int) "ok + errors = invocations" a.invocations
        (a.ok + a.errors);
      Alcotest.(check int) "error-free" 0 a.errors;
      Alcotest.(check bool) "tails ordered" true
        (a.p50_ms <= a.p99_ms && a.p99_ms <= a.p999_ms))
    r.arms;
  let arm label = List.find (fun a -> String.equal a.label label) r.arms in
  let off = arm "off" and tight = arm "2m" and roomy = arm "64m" in
  Alcotest.(check bool) "baseline is disarmed" true (off.members = 0);
  (* Pressure: the tight arm evicts, loses hits, and pays at the tail. *)
  Alcotest.(check bool) "tight arm evicts" true (tight.evictions > 0);
  Alcotest.(check bool) "tight arm misses more" true
    (tight.hit_rate < roomy.hit_rate);
  Alcotest.(check bool) "misses cost latency" true
    (tight.p99_ms >= roomy.p99_ms);
  (* Headroom: no evictions, real sharing, and the same serving mix as
     the disarmed baseline. *)
  Alcotest.(check int) "roomy arm never evicts" 0 roomy.evictions;
  Alcotest.(check bool)
    (Printf.sprintf "dedup ratio %.2f > 1" roomy.dedup_ratio)
    true (roomy.dedup_ratio > 1.0);
  Alcotest.(check bool) "roomy arm stays within budget" true
    (Int64.compare roomy.peak_bytes roomy.cache_bytes <= 0);
  Alcotest.(check bool) "roomy mix = baseline mix" true (roomy.mix = off.mix);
  let rendered = Experiments.Report.to_text (report r) in
  Alcotest.(check bool) "renders with curves" true
    (String.length rendered > 200)

let test_fig_evict_same_seed_identical () =
  let run () =
    Experiments.Fig_evict.run ~functions:8 ~hours:0.005 ~rate:8.0
      ~sizes:evict_sizes ~seed:9L ()
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same-seed runs identical" true (r1 = r2);
  Alcotest.(check string) "JSON identical"
    Experiments.(Report.to_json (Fig_evict.report r1))
    Experiments.(Report.to_json (Fig_evict.report r2))

(* The run's node overrides (store budget and policy, prefault) reach
   load's SEUSS arm, but never the evict and reap ladders, which fix
   those fields per arm. Sizes and seeds are test_arms'. *)
let test_node_overrides_reach_load_only () =
  let module E = Experiments in
  let overrides =
    {
      E.Run_config.default with
      snap_cache_bytes = Int64.of_int (Mem.Mconfig.mib 4);
      prefault = true;
      snap_policy = Some Seuss.Config.Snap_ws;
    }
  in
  let json run f =
    E.Harness.with_run run (fun () -> E.Report.to_json (f ()))
  in
  let plain_and_armed f = (json E.Run_config.default f, json overrides f) in
  let load_plain, load_armed =
    plain_and_armed (fun () ->
        E.Fig_load.report
          (E.Fig_load.run ~functions:32 ~hours:0.02 ~rps:[ 2.0; 8.0 ]
             ~arrival:"bursty" ~seed:1L ()))
  in
  Alcotest.(check bool) "load's SEUSS arm takes the overrides" false
    (String.equal load_plain load_armed);
  let evict_plain, evict_armed =
    plain_and_armed (fun () ->
        E.Fig_evict.report
          (E.Fig_evict.run ~functions:24 ~hours:0.02 ~rate:8.0
             ~sizes:
               [
                 0L;
                 Int64.of_int (Mem.Mconfig.mib 3);
                 Int64.of_int (Mem.Mconfig.mib 64);
               ]
             ~seed:5L ()))
  in
  Alcotest.(check string) "the evict ladder ignores them" evict_plain
    evict_armed;
  let reap_plain, reap_armed =
    plain_and_armed (fun () -> E.Fig_reap.report (E.Fig_reap.run ~seed:7L ()))
  in
  Alcotest.(check string) "the reap arms ignore them" reap_plain reap_armed

(* {1 Pool_node edge cases} *)

let pool_config ~cache_limit =
  { Baselines.Pool_node.cache_limit }

let test_pool_capacity_zero () =
  Experiments.Harness.run_sim (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Baselines.Pool_node.create
          ~config:(pool_config ~cache_limit:0)
          ~kind:Baselines.Pool_node.Process env
      in
      (match
         Baselines.Pool_node.invoke node ~fn_id:"z"
           ~action:Baselines.Backend_intf.Nop
       with
      | Error `Overloaded -> ()
      | Ok () -> Alcotest.fail "capacity 0 must refuse every invocation");
      let st = Baselines.Pool_node.stats node in
      Alcotest.(check int) "error counted" 1 st.Baselines.Pool_node.errors;
      Alcotest.(check int) "nothing created" 0 st.Baselines.Pool_node.creates;
      Alcotest.(check int) "no instances" 0
        (Baselines.Pool_node.instance_count node))

let test_pool_busy_instance_never_evicted () =
  (* Capacity 1: while the only instance is mid-request, a second
     function's arrival finds nothing evictable (the busy instance must
     survive) and is refused; after the request finishes the instance
     serves its own function warm. *)
  Experiments.Harness.run_sim (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Baselines.Pool_node.create
          ~config:(pool_config ~cache_limit:1)
          ~kind:Baselines.Pool_node.Process env
      in
      let first = ref None and second = ref None in
      Sim.Engine.spawn engine ~name:"first" (fun () ->
          first :=
            Some
              (Baselines.Pool_node.invoke node ~fn_id:"a"
                 ~action:(Baselines.Backend_intf.Io_call ("http://io-server", 0.5))));
      Sim.Engine.spawn engine ~name:"second" (fun () ->
          (* Arrives while the first request is parked in its IO call —
             past the ~0.4 s the process backend spends creating the
             instance, well before the 0.5 s call returns. *)
          Sim.Engine.sleep 0.6;
          second :=
            Some
              (Baselines.Pool_node.invoke node ~fn_id:"b"
                 ~action:Baselines.Backend_intf.Nop));
      Sim.Engine.sleep 2.0;
      (match !first with
      | Some (Ok ()) -> ()
      | _ -> Alcotest.fail "in-flight invocation must complete");
      (match !second with
      | Some (Error `Overloaded) -> ()
      | _ -> Alcotest.fail "second function must be refused, not evict a busy instance");
      Alcotest.(check int) "the busy instance survived" 1
        (Baselines.Pool_node.instance_count node);
      let st0 = Baselines.Pool_node.stats node in
      Alcotest.(check int) "no eviction of the busy instance" 0
        st0.Baselines.Pool_node.evictions;
      (match
         Baselines.Pool_node.invoke node ~fn_id:"a"
           ~action:Baselines.Backend_intf.Nop
       with
      | Ok () -> ()
      | Error `Overloaded -> Alcotest.fail "warm hit after drain must succeed");
      let st = Baselines.Pool_node.stats node in
      Alcotest.(check int) "served warm" 1 st.Baselines.Pool_node.warm_hits)

let test_pool_stale_lru_entries_not_double_freed () =
  (* A warm hit re-queues its instance, so the LRU order can hold the
     same instance twice. Evicting it once marks it dead; the stale
     second entry must be skipped, not destroyed again — creates minus
     evictions must keep matching the live instance count. *)
  Experiments.Harness.run_sim (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Baselines.Pool_node.create
          ~config:(pool_config ~cache_limit:2)
          ~kind:Baselines.Pool_node.Process env
      in
      let invoke fn_id =
        match
          Baselines.Pool_node.invoke node ~fn_id
            ~action:Baselines.Backend_intf.Nop
        with
        | Ok () -> ()
        | Error `Overloaded -> Alcotest.failf "%s refused" fn_id
      in
      invoke "a";
      invoke "a" (* warm: instance "a" now queued twice in the LRU *);
      invoke "b" (* at capacity *);
      invoke "c" (* evicts "a" once; its twin LRU entry goes stale *);
      invoke "d" (* must skip the stale "a" entry and evict "b" *);
      let st = Baselines.Pool_node.stats node in
      Alcotest.(check int) "four creates" 4 st.Baselines.Pool_node.creates;
      Alcotest.(check int) "one warm hit" 1 st.Baselines.Pool_node.warm_hits;
      Alcotest.(check int) "exactly two evictions" 2
        st.Baselines.Pool_node.evictions;
      Alcotest.(check int) "no errors" 0 st.Baselines.Pool_node.errors;
      Alcotest.(check int) "creates - evictions = live instances"
        (st.Baselines.Pool_node.creates - st.Baselines.Pool_node.evictions)
        (Baselines.Pool_node.instance_count node);
      Alcotest.(check int) "both survivors idle" 2
        (Baselines.Pool_node.idle_count node))

(* Harness.invoke's three outcomes on one node: a served call, a call
   served on another path, and a failed one. Only the first reaches the
   latency summary; the other two are counted. *)
let test_invoke_outcomes () =
  let module H = Experiments.Harness in
  let nop = H.nop_fn 1 in
  let outcomes =
    H.run_sim (fun engine ->
        let node = H.seuss_node (H.make_seuss_env engine) in
        let latency = Stats.Summary.create () and failed = ref 0 in
        let call ?(fn = nop) path =
          H.invoke engine ~failed ~latency ~expect:[ path ] (fun () ->
              Seuss.Node.invoke node fn ~args:"{}")
        in
        let served = call Seuss.Node.Cold in
        Seuss.Node.drop_idle node ~fn_id:nop.Seuss.Node.fn_id;
        let off_path = call Seuss.Node.Hot in
        let bad =
          { nop with Seuss.Node.fn_id = "bad"; source = "function main(" }
        in
        let failed_call = call ~fn:bad Seuss.Node.Cold in
        (served, off_path, failed_call, Stats.Summary.count latency, !failed))
  in
  match outcomes with
  | ( H.Served dt,
      H.Off_path Seuss.Node.Warm,
      H.Failed (`Compile_error _),
      summarized,
      failed ) ->
      Alcotest.(check bool) "served latency positive" true (dt > 0.0);
      Alcotest.(check int) "only the served call is summarized" 1 summarized;
      Alcotest.(check int) "off-path and failed calls counted" 2 failed
  | _ -> Alcotest.fail "want Served, Off_path Warm, Failed Compile_error"

(* A driver's report carries the failure line only for a nonzero
   count, so a fault-free report is unchanged. *)
let test_failed_line () =
  let cell = { Experiments.Table2.cold_ms = 7.5; warm_ms = 3.5 } in
  let render failed =
    Experiments.(
      Report.to_text
        (Table2.report { no_ao = cell; network_ao = cell; full_ao = cell; failed }))
  in
  Alcotest.(check string) "count 3 appends Report's line"
    (render 0
    ^ "failed calls: 3 (an error or an unexpected path; not in the latencies \
       above)\n")
    (render 3);
  Alcotest.(check bool) "the line names the count" true
    (contains (render 3) "failed calls: 3 ");
  Alcotest.(check bool) "count 0 omits it" false
    (contains (render 0) "failed calls")

(* One table through the three writers: text formats each cell with its
   decimals and unit, CSV prints six decimals and no unit, and JSON
   prints numbers as numbers and leaves an absent cell out. *)
let test_report_rendering () =
  let module R = Experiments.Report in
  let report =
    {
      R.title = "T";
      sections =
        [
          R.text "n\n";
          R.comparison
            [
              ("a", R.Int 1, R.ms 7.5e-3);
              ("b", R.Absent, R.mb (Int64.of_int (2 * 1024 * 1024)));
            ];
        ];
    }
  in
  let text = R.to_text report in
  Alcotest.(check bool) "contains fields" true
    (String.length text > 10);
  Alcotest.(check bool) "ms format" true (contains text " 7.5 ms |");
  Alcotest.(check bool) "mb format" true (contains text " 2.0 MB |");
  Alcotest.(check string) "csv"
    "quantity,paper,measured,unit\na,1,7.500000,ms\nb,-,2.000000,MB\n"
    (R.to_csv report);
  match Obs.Json.of_string (R.to_json report) with
  | Ok json -> (
      match Obs.Json.member "quantities" json with
      | Some (Obs.Json.List [ a; b ]) ->
          Alcotest.(check (option int)) "paper is a number" (Some 1)
            (Option.bind (Obs.Json.member "paper" a) Obs.Json.to_int);
          Alcotest.(check bool) "absent paper left out" true
            (Obs.Json.member "paper" b = None)
      | _ -> Alcotest.fail "want two quantities")
  | Error msg -> Alcotest.fail msg

(* {1 Run configuration}

   The arming contract, one row per variable: absent, empty and every
   off spelling all yield [default]; a valid value sets exactly its own
   field; a malformed value is an error naming the variable. *)

module Rc = Experiments.Run_config

let run_config_rows =
  let d = Rc.default in
  [
    ("SEUSS_SHUFFLE_SEED", "3", { d with Rc.tie_seed = Some 3L }, "x3");
    ("SEUSS_HB", "1", { d with Rc.hb = true }, "maybe");
    ("SEUSS_DEADLOCK", "yes", { d with Rc.deadlock = true }, "2");
    ("SEUSS_OWN", " ON ", { d with Rc.own = true }, "y");
    ("SEUSS_FAULT_RATE", "0.25", { d with Rc.fault_rate = 0.25 }, "1.5");
    ("SEUSS_FAULT_SEED", "29", { d with Rc.fault_seed = Some 29L }, "seed");
    ("SEUSS_PREFAULT", "true", { d with Rc.prefault = true }, "on!");
    ( "SEUSS_SNAP_CACHE", "64m",
      { d with Rc.snap_cache_bytes = Int64.of_int (64 * 1024 * 1024) }, "-1" );
    ( "SEUSS_SNAP_POLICY", "ws",
      { d with Rc.snap_policy = Some Seuss.Config.Snap_ws }, "fifo" );
  ]

let test_run_config_parse () =
  Alcotest.(check (list string)) "one row per variable" Rc.vars
    (List.map (fun (var, _, _, _) -> var) run_config_rows);
  let noise = [ ("PATH", "/bin"); ("SEUSS_LOAD_HOURS", "3") ] in
  let parsed bindings = Rc.parse (noise @ bindings) in
  List.iter
    (fun (var, valid, expected, malformed) ->
      let is_default what r =
        Alcotest.(check bool) (var ^ " " ^ what ^ " is default") true
          (r = Ok Rc.default)
      in
      is_default "absent" (parsed []);
      List.iter
        (fun off -> is_default (Printf.sprintf "%S" off) (parsed [ (var, off) ]))
        [ ""; "0"; "off"; "false"; "no" ];
      Alcotest.(check bool) (var ^ " valid") true
        (parsed [ (var, valid) ] = Ok expected);
      match parsed [ (var, malformed) ] with
      | Ok _ -> Alcotest.failf "%s=%S accepted" var malformed
      | Error msg ->
          Alcotest.(check bool) (var ^ " error names the variable") true
            (String.starts_with ~prefix:("malformed " ^ var ^ "=") msg))
    run_config_rows

(* The README's environment-variable table documents exactly the
   variables Run_config reads, in its order (SEUSS_PROP_SEED is a test
   knob, described outside the table). *)
let test_readme_env_table () =
  let text = Readme_text.text in
  let var_of_row line =
    if String.starts_with ~prefix:"| `SEUSS_" line then
      let stop = String.index_from line 3 '=' in
      Some (String.sub line 3 (stop - 3))
    else None
  in
  Alcotest.(check (list string)) "table rows are Run_config.vars" Rc.vars
    (List.filter_map var_of_row (String.split_on_char '\n' text))

let () =
  let case name f = Alcotest.test_case name `Slow f in
  Alcotest.run "experiments"
    [
      ( "tables",
        [
          case "table1 shapes" test_table1_shapes;
          case "table1 under faults" test_table1_under_faults;
          case "table1 note names its count" test_table1_note_count;
          case "table2 ladder" test_table2_ladder;
          case "table3 orderings" test_table3_orderings;
          case "table3 note names its budget" test_table3_note_budget;
        ] );
      ( "figures",
        [
          case "fig4 crossover" test_fig4_crossover;
          case "fig5 percentiles" test_fig5_percentiles;
          case "burst contrast" test_burst_contrast;
          case "fig4 deterministic" test_fig4_deterministic;
          case "fig_reap reduction" test_fig_reap_reduction;
          case "fig_reap under faults" test_fig_reap_under_faults;
          case "fig_load shapes" test_fig_load_shapes;
          case "fig_load same-seed identical" test_fig_load_same_seed_identical;
          case "fig_load replay equals synthesis"
            test_fig_load_replay_equals_synthesis;
          case "fig_evict shapes" test_fig_evict_shapes;
          case "fig_evict same-seed identical" test_fig_evict_same_seed_identical;
          case "node overrides reach load only"
            test_node_overrides_reach_load_only;
        ] );
      ( "pool-node",
        [
          case "capacity 0 refuses" test_pool_capacity_zero;
          case "busy instance never evicted" test_pool_busy_instance_never_evicted;
          case "stale LRU entries not double-freed"
            test_pool_stale_lru_entries_not_double_freed;
        ] );
      ( "run_config",
        [
          Alcotest.test_case "parse table" `Quick test_run_config_parse;
          Alcotest.test_case "README env table" `Quick test_readme_env_table;
        ] );
      ( "misc",
        [
          case "ablations ordering" test_ablations_ordering;
          case "auto-ao recovers costs" test_auto_ao_recovers_costs;
          case "report rendering" test_report_rendering;
          case "invoke outcomes" test_invoke_outcomes;
          case "failed-call line" test_failed_line;
        ] );
    ]
