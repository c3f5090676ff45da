(* The metric table: the single source of BENCHMARK.json (printed by
   [--spec]) and of the report's units, clocks and bounds.

   Two clocks: [Sim] metrics are simulated time or simulated counts, a
   pure function of the seed; [Host] metrics are what producing them
   costs this process, in CPU time or memory. *)

type clock = Sim | Host
type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  clock : clock;
  better : better;
  bound : float option;
      (* end-to-end only: the share of the parent's median by which the
         metric may worsen before a change counts as a regression *)
}

let e2e name unit_ clock better bound =
  { name; unit_; clock; better; bound = Some bound }

let layer name unit_ clock better = { name; unit_; clock; better; bound = None }

(* Median latency is left out: with no contention a warm or evict call
   takes a fixed simulated time, so the median reads the same on every
   seed. The pooled mean and p99 move with every layer on the path. *)
let end_to_end =
  [
    e2e "lat_mean_ms" "ms" Sim Lower 0.05;
    e2e "lat_p99_ms" "ms" Sim Lower 0.15;
    e2e "host_us_per_inv" "us" Host Lower 0.2;
    e2e "host_peak_rss_mb" "MB" Host Lower 0.05;
    e2e "setup_s" "s" Host Lower 0.25;
  ]

let per_layer =
  [
    layer "workload.max_in_flight" "count" Sim Lower;
    layer "workload.synth_s" "s" Host Lower;
    layer "platform.overhead_ms" "ms" Sim Lower;
    layer "seuss.cold" "count" Sim Lower;
    layer "seuss.warm" "count" Sim Lower;
    layer "seuss.hot" "count" Sim Higher;
    layer "seuss.retries" "count" Sim Lower;
    layer "seuss.errors" "count" Sim Lower;
    layer "seuss.reclaimed_ucs" "count" Sim Lower;
    layer "seuss.captures" "count" Sim Lower;
    layer "seuss.deploy_ms" "ms" Sim Lower;
    layer "seuss.import_ms" "ms" Sim Lower;
    layer "seuss.run_ms" "ms" Sim Lower;
    layer "seuss.cold.import_ms" "ms" Sim Lower;
    layer "snapstore.hit_rate" "ratio" Sim Higher;
    layer "snapstore.inserts" "count" Sim Lower;
    layer "snapstore.evictions" "count" Sim Lower;
    layer "snapstore.dedup_ratio" "ratio" Sim Higher;
    layer "snapstore.peak_resident_mb" "MB" Sim Lower;
    layer "mem.cow_faults_per_inv" "count/inv" Sim Lower;
    layer "mem.zero_fills_per_inv" "count/inv" Sim Lower;
    layer "sim.events_per_inv" "count/inv" Sim Lower;
    layer "sim.max_heap" "count" Sim Lower;
    layer "obs.records_per_inv" "count/inv" Sim Lower;
    layer "host.words_per_inv" "words/inv" Host Lower;
    layer "host.major_gcs" "count" Host Lower;
    layer "sim.ns_per_event" "ns" Host Lower;
    layer "mem.us_per_pt_clone" "us" Host Lower;
    layer "mem.ns_per_cow_fault" "ns" Host Lower;
    layer "interp.us_per_compile_small" "us" Host Lower;
    layer "interp.us_per_compile_medium" "us" Host Lower;
    layer "interp.us_per_compile_large" "us" Host Lower;
    layer "interp.us_per_run" "us" Host Lower;
    layer "seuss.us_per_cold_deploy" "us" Host Lower;
    layer "seuss.us_per_warm_deploy" "us" Host Lower;
    layer "snapstore.us_per_insert" "us" Host Lower;
    layer "net.us_per_roundtrip" "us" Host Lower;
    layer "net.roundtrips_per_inv" "count/inv" Sim Lower;
    layer "obs.ns_per_emit" "ns" Host Lower;
    layer "host.share.sim" "%" Host Lower;
    layer "host.share.mem" "%" Host Lower;
    layer "host.share.interp" "%" Host Lower;
    layer "host.share.seuss" "%" Host Lower;
    layer "host.share.snapstore" "%" Host Lower;
    layer "host.share.net" "%" Host Lower;
    layer "host.share.obs" "%" Host Lower;
    layer "host.share.unattributed" "%" Host Lower;
    layer "host.trace_overhead_pct" "%" Host Lower;
  ]

let clock_name = function Sim -> "sim" | Host -> "host"
let better_name = function Lower -> "lower" | Higher -> "higher"

let run_seconds = 25

(* BENCHMARK.json, one workload or metric per line. *)
let benchmark_json () =
  let str s = Obs.Json.to_string (Obs.Json.String s) in
  let items rows = String.concat ",\n" (List.map (fun r -> "    " ^ r) rows) in
  let metric m =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s}" (str m.name)
      (str m.unit_)
      (str (better_name m.better))
      (match m.bound with
      | Some b -> Printf.sprintf ", \"bound\": %g" b
      | None -> "")
  in
  Printf.sprintf
    "{\n\
    \  \"command\": [\"bash\", \"seussbench/run.sh\"],\n\
    \  \"paths\": [\"seussbench\"],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": [\n\
     %s\n\
    \  ],\n\
    \  \"end_to_end\": [\n\
     %s\n\
    \  ],\n\
    \  \"per_layer\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    run_seconds
    (items
       (List.map
          (fun (w : Workloads.t) ->
            Printf.sprintf "{\"name\": %s, \"why\": %s}" (str w.name) (str w.why))
          Workloads.all))
    (items (List.map metric end_to_end))
    (items (List.map metric per_layer))
