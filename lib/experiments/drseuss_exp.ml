type result = {
  nodes : int;
  functions : int;
  with_registry_mean_miss : float;
  without_registry_mean_miss : float;
  remote_fetches : int;
  cluster_colds : int;
  bytes_transferred : int64;
  failed : int;
}

(* A realistically sized function (~80 helper functions): import and
   compile dominate its cold start, which is exactly the work a remote
   fetch skips. *)
let big_source =
  let buf = Buffer.create 4096 in
  for i = 0 to 79 do
    Buffer.add_string buf
      (Printf.sprintf
         "function helper%d(x) { return x * %d + hash(\"k%d\" + x); }\n" i
         (i + 1) i)
  done;
  Buffer.add_string buf
    "function main(args) { let acc = 0; acc = helper0(1) + helper79(2);      return {acc: acc}; }\n";
  Buffer.contents buf

let big_fn i =
  {
    Seuss.Node.fn_id = Printf.sprintf "fn-%d" i;
    runtime = Unikernel.Image.Node;
    source = big_source;
  }

(* Every function is invoked once per node (round-robin routing sends
   consecutive calls to distinct nodes), so each function is a local
   miss [nodes] times: once compiled, then fetched or re-compiled. *)
let run ?(nodes = 4) ?(functions = 40) ?(seed = 29L) () =
  let gib = Int64.of_int (Mem.Mconfig.mib 1024) in
  let failed = ref 0 in
  let run_variant ~registry_enabled =
    Harness.run_sim ~seed (fun engine ->
        let cluster =
          Cluster.Drseuss.create ~nodes ~budget_per_node:(Int64.mul 6L gib)
            engine
        in
        List.iter Harness.arm_census (Cluster.Drseuss.nodes cluster);
        let misses = Stats.Summary.create () in
        let invoke =
          if registry_enabled then Cluster.Drseuss.invoke
          else Cluster.Drseuss.invoke_unregistered
        in
        for i = 1 to functions do
          for _round = 1 to nodes do
            ignore
              (Harness.invoke engine ~failed ~latency:misses
                 ~expect:Cluster.Drseuss.[ Remote_fetch; Cluster_cold ]
                 (fun () -> invoke cluster (big_fn i) ~args:"{}"))
          done
        done;
        (Stats.Summary.mean misses, Cluster.Drseuss.stats cluster))
  in
  let with_mean, with_stats = run_variant ~registry_enabled:true in
  let without_mean, _ = run_variant ~registry_enabled:false in
  {
    nodes;
    functions;
    with_registry_mean_miss = with_mean;
    without_registry_mean_miss = without_mean;
    remote_fetches = with_stats.Cluster.Drseuss.remote_fetches;
    cluster_colds = with_stats.Cluster.Drseuss.cluster_colds;
    bytes_transferred = with_stats.Cluster.Drseuss.bytes_transferred;
    failed = !failed;
  }

let render r =
  Report.comparison
    ~title:
      (Printf.sprintf
         "DR-SEUSS (extension): %d-node distributed snapshot cache" r.nodes)
    ~note:
      (Printf.sprintf
         "%d unique functions, each needed on every node. Paper (S9):\n\
          snapshots are \"read-only and deploy-anywhere\"; fetching a\n\
          function diff should beat replaying import+compile.\n"
         r.functions)
    [
      {
        Report.label = "mean miss latency, registry ON";
        paper = "< cold";
        measured = Report.ms r.with_registry_mean_miss;
      };
      {
        Report.label = "mean miss latency, registry OFF";
        paper = "(full cold start)";
        measured = Report.ms r.without_registry_mean_miss;
      };
      {
        Report.label = "misses served by remote fetch";
        paper = "-";
        measured =
          Printf.sprintf "%d of %d" r.remote_fetches
            (r.remote_fetches + r.cluster_colds);
      };
      {
        Report.label = "snapshot bytes moved";
        paper = "-";
        measured = Report.mb r.bytes_transferred;
      };
    ]
  ^ Report.failed_calls r.failed
