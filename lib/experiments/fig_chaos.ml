type point = {
  rate : float;
  invocations : int;
  served : int;
  errors : int;
  availability : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  remote_fetches : int;
  cluster_colds : int;
  fetch_retries : int;
  failovers : int;
  degraded_colds : int;
  node_crashes : int;
  registry_evictions : int;
  faults_fired : int;
}

type result = {
  nodes : int;
  functions : int;
  calls : int;
  seed : int64;
  points : point list;
  timeline : string;
}

let default_rates = [ 0.0; 0.01; 0.05; 0.1 ]

(* The plan seed is a fixed xor of the run seed (same derivation as the
   harness env hook): arming the plane never draws from the engine
   stream, so the rate-0 arm is bit-identical to an unfaulted run. *)
let plan_seed seed = Int64.logxor seed Harness.fault_seed_xor

(* Whole-node crashes are much rarer than transient faults; an OOM storm
   rarer than a dropped packet. *)
let site_rates rate =
  [
    (Faults.Fault.Uc_kill, rate);
    (Faults.Fault.Capture_fail, rate);
    (Faults.Fault.Oom_storm, rate /. 4.0);
    (Faults.Fault.Net_drop, rate);
    (Faults.Fault.Net_delay, rate);
    (Faults.Fault.Registry_stale, rate);
    (Faults.Fault.Node_crash, rate /. 10.0);
  ]

let chaos_fn k =
  {
    Seuss.Node.fn_id = Printf.sprintf "fn-%d" k;
    runtime = Unikernel.Image.Node;
    source = Printf.sprintf "function main(args) { return {fn: %d}; }" k;
  }

let run_point ~nodes ~functions ~calls ~seed rate =
  Harness.run_sim ~seed (fun engine ->
      let gib = Int64.of_int (Mem.Mconfig.mib 1024) in
      let cluster =
        Cluster.Drseuss.create ~nodes ~budget_per_node:(Int64.mul 4L gib)
          engine
      in
      (* Arm the plane only after boot: chaos measures steady-state
         serving, and injected SYN loss during the nodes' AO handshakes
         would abort startup rather than degrade service. *)
      let plan =
        if rate > 0.0 then begin
          let plan =
            Faults.Fault.make ~seed:(plan_seed seed) ~rates:(site_rates rate)
              engine
          in
          Faults.Fault.install plan;
          Some plan
        end
        else None
      in
      let lat = Stats.Summary.create () in
      let served = ref 0 and errors = ref 0 in
      for i = 0 to calls - 1 do
        let t0 = Sim.Engine.now engine in
        let result, _source =
          Cluster.Drseuss.invoke cluster (chaos_fn (i mod functions)) ~args:"{}"
        in
        Stats.Summary.add lat (Sim.Engine.now engine -. t0);
        match result with Ok _ -> incr served | Error _ -> incr errors
      done;
      let st = Cluster.Drseuss.stats cluster in
      ( {
          rate;
          invocations = calls;
          served = !served;
          errors = !errors;
          availability =
            (if calls = 0 then 1.0
             else float_of_int !served /. float_of_int calls);
          p50_ms = Stats.Summary.percentile lat 50.0 *. 1e3;
          p99_ms = Stats.Summary.percentile lat 99.0 *. 1e3;
          p999_ms = Stats.Summary.percentile lat 99.9 *. 1e3;
          remote_fetches = st.Cluster.Drseuss.remote_fetches;
          cluster_colds = st.Cluster.Drseuss.cluster_colds;
          fetch_retries = st.Cluster.Drseuss.fetch_retries;
          failovers = st.Cluster.Drseuss.failovers;
          degraded_colds = st.Cluster.Drseuss.degraded_colds;
          node_crashes = st.Cluster.Drseuss.node_crashes;
          registry_evictions = st.Cluster.Drseuss.registry_evictions;
          faults_fired =
            (match plan with Some p -> Faults.Fault.fired p | None -> 0);
        },
        Obs.Log.to_jsonl (Cluster.Drseuss.log cluster) ))

let run ?(nodes = 4) ?(functions = 25) ?(calls = 200) ?(rates = default_rates)
    ?(seed = 7L) () =
  if nodes < 1 then invalid_arg "Fig_chaos.run: need at least one node";
  List.iter
    (fun r ->
      if not (Float.is_finite r) || r < 0.0 || r > 1.0 then
        invalid_arg "Fig_chaos.run: rates must be in [0, 1]")
    rates;
  let results =
    List.map (fun rate -> run_point ~nodes ~functions ~calls ~seed rate) rates
  in
  {
    nodes;
    functions;
    calls;
    seed;
    points = List.map fst results;
    timeline =
      (match List.rev results with [] -> "" | (_, tl) :: _ -> tl);
  }

let report r =
  let open Report in
  let count ?head key sel = col ?head key (fun p -> Int (sel p)) in
  let ms2 head key sel = col ~head key (fun p -> f 2 (sel p)) in
  {
    title = "fig_chaos: availability and tail latency vs fault rate";
    sections =
      [
        params
          [
            ("figure", Text "chaos");
            ("nodes", Int r.nodes);
            ("functions", Int r.functions);
            ("calls", Int r.calls);
            ("seed", Int64 r.seed);
          ];
        text
          (Printf.sprintf
             "%d-node DR-SEUSS under injected failures: %d calls over %d \
              functions per rate\n\
              (availability counts degraded local cold starts as served; seed \
              %Ld)\n\n"
             r.nodes r.calls r.functions r.seed);
        table "points"
          [
            col ~head:"fault rate" "rate" (fun p -> f 3 p.rate);
            count "invocations" (fun p -> p.invocations);
            count "served" (fun p -> p.served);
            count "errors" (fun p -> p.errors);
            col "availability" (fun p -> f 4 p.availability);
            col ~head:"avail" "" (fun p -> f ~unit:"%" 2 (100.0 *. p.availability));
            ms2 "p50 ms" "p50_ms" (fun p -> p.p50_ms);
            ms2 "p99 ms" "p99_ms" (fun p -> p.p99_ms);
            ms2 "p999 ms" "p999_ms" (fun p -> p.p999_ms);
            count ~head:"fetches" "remote_fetches" (fun p -> p.remote_fetches);
            count "cluster_colds" (fun p -> p.cluster_colds);
            count ~head:"retries" "fetch_retries" (fun p -> p.fetch_retries);
            count ~head:"failover" "failovers" (fun p -> p.failovers);
            count ~head:"degraded" "degraded_colds" (fun p -> p.degraded_colds);
            count ~head:"crashes" "node_crashes" (fun p -> p.node_crashes);
            count ~head:"evicted" "registry_evictions" (fun p -> p.registry_evictions);
            count ~head:"fired" "faults_fired" (fun p -> p.faults_fired);
          ]
          r.points;
      ];
  }
