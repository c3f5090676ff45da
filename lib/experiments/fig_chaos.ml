(* fig_chaos (extension): tail latency and availability of a DR-SEUSS
   cluster as the injected failure rate rises.

   For each rate the same workload runs on a fresh 4-node cluster with
   every fault-plane site armed (crashes much rarer than transients, as
   in production): the figure reports availability — the fraction of
   invocations served, counting degraded local cold starts as served —
   and latency percentiles, plus the recovery actions the cluster took.
   Rate 0.0 is the control arm: no plan draws, identical to a fault-free
   build. The whole sweep is deterministic per seed. *)

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
      (* the highest-rate run's cluster recovery log, as JSONL *)
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
      List.iter Harness.arm_census (Cluster.Drseuss.nodes cluster);
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

let point_to_json p =
  Obs.Json.Obj
    [
      ("rate", Obs.Json.Float p.rate);
      ("invocations", Obs.Json.Int p.invocations);
      ("served", Obs.Json.Int p.served);
      ("errors", Obs.Json.Int p.errors);
      ("availability", Obs.Json.Float p.availability);
      ("p50_ms", Obs.Json.Float p.p50_ms);
      ("p99_ms", Obs.Json.Float p.p99_ms);
      ("p999_ms", Obs.Json.Float p.p999_ms);
      ("remote_fetches", Obs.Json.Int p.remote_fetches);
      ("cluster_colds", Obs.Json.Int p.cluster_colds);
      ("fetch_retries", Obs.Json.Int p.fetch_retries);
      ("failovers", Obs.Json.Int p.failovers);
      ("degraded_colds", Obs.Json.Int p.degraded_colds);
      ("node_crashes", Obs.Json.Int p.node_crashes);
      ("registry_evictions", Obs.Json.Int p.registry_evictions);
      ("faults_fired", Obs.Json.Int p.faults_fired);
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("figure", Obs.Json.String "chaos");
      ("nodes", Obs.Json.Int r.nodes);
      ("functions", Obs.Json.Int r.functions);
      ("calls", Obs.Json.Int r.calls);
      ("seed", Obs.Json.String (Int64.to_string r.seed));
      ("points", Obs.Json.List (List.map point_to_json r.points));
    ]

let render r =
  let table =
    Stats.Tablefmt.create
      ~columns:
        [
          ("fault rate", Stats.Tablefmt.Right);
          ("avail", Stats.Tablefmt.Right);
          ("p50 ms", Stats.Tablefmt.Right);
          ("p99 ms", Stats.Tablefmt.Right);
          ("p999 ms", Stats.Tablefmt.Right);
          ("fetches", Stats.Tablefmt.Right);
          ("retries", Stats.Tablefmt.Right);
          ("failover", Stats.Tablefmt.Right);
          ("degraded", Stats.Tablefmt.Right);
          ("crashes", Stats.Tablefmt.Right);
          ("evicted", Stats.Tablefmt.Right);
          ("fired", Stats.Tablefmt.Right);
        ]
  in
  List.iter
    (fun p ->
      Stats.Tablefmt.add_row table
        [
          Printf.sprintf "%.3f" p.rate;
          Printf.sprintf "%.2f%%" (100.0 *. p.availability);
          Printf.sprintf "%.2f" p.p50_ms;
          Printf.sprintf "%.2f" p.p99_ms;
          Printf.sprintf "%.2f" p.p999_ms;
          string_of_int p.remote_fetches;
          string_of_int p.fetch_retries;
          string_of_int p.failovers;
          string_of_int p.degraded_colds;
          string_of_int p.node_crashes;
          string_of_int p.registry_evictions;
          string_of_int p.faults_fired;
        ])
    r.points;
  Printf.sprintf
    "%s%d-node DR-SEUSS under injected failures: %d calls over %d functions \
     per rate\n(availability counts degraded local cold starts as served; \
     seed %Ld)\n\n%s"
    (Report.heading "fig_chaos: availability and tail latency vs fault rate")
    r.nodes r.calls r.functions r.seed
    (Stats.Tablefmt.render table)

let write_csv ~path r =
  Report.write_csv ~path
    ~header:
      [
        "rate"; "invocations"; "served"; "errors"; "availability"; "p50_ms";
        "p99_ms"; "p999_ms"; "remote_fetches"; "cluster_colds"; "fetch_retries";
        "failovers"; "degraded_colds"; "node_crashes"; "registry_evictions";
        "faults_fired";
      ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%g" p.rate;
           string_of_int p.invocations;
           string_of_int p.served;
           string_of_int p.errors;
           Printf.sprintf "%.6f" p.availability;
           Printf.sprintf "%.6f" p.p50_ms;
           Printf.sprintf "%.6f" p.p99_ms;
           Printf.sprintf "%.6f" p.p999_ms;
           string_of_int p.remote_fetches;
           string_of_int p.cluster_colds;
           string_of_int p.fetch_retries;
           string_of_int p.failovers;
           string_of_int p.degraded_colds;
           string_of_int p.node_crashes;
           string_of_int p.registry_evictions;
           string_of_int p.faults_fired;
         ])
       r.points)
