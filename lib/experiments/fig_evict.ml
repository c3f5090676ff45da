type arm = {
  label : string;
  cache_bytes : int64;
  invocations : int;
  ok : int;
  errors : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  hit_rate : float;
  hits : int;
  misses : int;
  evictions : int;
  dedup_ratio : float;
  resident_bytes : int64;
  peak_bytes : int64;
  members : int;
  index_pages : int;
  mix : Harness.mix;
}

type result = {
  functions : int;
  alpha : float;
  rate : float;
  horizon : float;
  policy : Seuss.Config.snap_policy;
  seed : int64;
  trace_events : int;
  arms : arm list;
}

let label_of_bytes b =
  if Int64.equal b 0L then "off"
  else
    let b' = Int64.to_int b in
    let gib = 1024 * 1024 * 1024 and mib = 1024 * 1024 and kib = 1024 in
    if b' mod gib = 0 then Printf.sprintf "%dg" (b' / gib)
    else if b' mod mib = 0 then Printf.sprintf "%dm" (b' / mib)
    else if b' mod kib = 0 then Printf.sprintf "%dk" (b' / kib)
    else Int64.to_string b

(* {1 One arm} *)

let run_arm ~seed ~policy trace cache_bytes =
  let config =
    {
      Seuss.Config.default with
      (* every repeat must redeploy from the function snapshot *)
      Seuss.Config.cache_idle_ucs = false;
      snapshot_cache_bytes = cache_bytes;
      snapshot_cache_policy = policy;
    }
  in
  let r = Harness.replay ~seed (Harness.Seuss config) trace in
  let res = r.Harness.result and mix = r.Harness.mix in
  let lat = res.Workload.Replay.latencies in
  let hits, misses, evictions, dedup, resident, peak, members, index_pages =
    match Option.bind r.Harness.node Seuss.Node.snapstore with
    | Some store ->
        ( Seuss.Snapstore.hits store,
          Seuss.Snapstore.misses store,
          Seuss.Snapstore.evictions store,
          Seuss.Snapstore.dedup_ratio store,
          Seuss.Snapstore.resident_bytes store,
          Seuss.Snapstore.peak_resident_bytes store,
          Seuss.Snapstore.member_count store,
          Seuss.Snapstore.index_pages store )
    | None -> (mix.Harness.warm, mix.Harness.cold, 0, 1.0, 0L, 0L, 0, 0)
  in
  let hit_rate =
    let lookups = hits + misses in
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  {
    label = label_of_bytes cache_bytes;
    cache_bytes;
    invocations = res.Workload.Replay.invocations;
    ok = res.Workload.Replay.ok;
    errors = res.Workload.Replay.errors;
    mean_ms = Stats.Summary.mean lat *. 1e3;
    p50_ms = Harness.percentile_ms lat 50.0;
    p99_ms = Harness.percentile_ms lat 99.0;
    p999_ms = Harness.percentile_ms lat 99.9;
    hit_rate;
    hits;
    misses;
    evictions;
    dedup_ratio = dedup;
    resident_bytes = resident;
    peak_bytes = peak;
    members;
    index_pages;
    mix;
  }

(* {1 The sweep} *)

let default_functions = 160
let default_alpha = 1.1
let default_rate = 4.0
let default_hours = 0.25
let default_policy = Seuss.Config.Snap_lru

(* The finite rungs bracket the store's natural footprint for the
   default corpus (~2.2 MiB of indexed runtime pages plus ~40 KiB per
   member): 3m keeps only the hottest handful of functions, 8m most of
   them, 1g everything (dedup with zero evictions). *)
let default_sizes =
  [
    0L;
    Int64.of_int (Mem.Mconfig.mib 3);
    Int64.of_int (Mem.Mconfig.mib 4);
    Int64.of_int (Mem.Mconfig.mib 6);
    Int64.of_int (Mem.Mconfig.mib 8);
    Int64.of_int (Mem.Mconfig.mib 1024);
  ]

let run ?(functions = default_functions) ?(alpha = default_alpha)
    ?(rate = default_rate) ?(hours = default_hours) ?(sizes = default_sizes)
    ?(policy = default_policy) ?(seed = 13L) () =
  if functions < 1 then invalid_arg "Fig_evict.run: need at least one function";
  if not (Float.is_finite rate) || rate <= 0.0 then
    invalid_arg "Fig_evict.run: rate must be positive";
  if not (Float.is_finite hours) || hours <= 0.0 then
    invalid_arg "Fig_evict.run: hours must be positive";
  if sizes = [] then invalid_arg "Fig_evict.run: need at least one cache size";
  List.iter
    (fun s ->
      if Int64.compare s 0L < 0 then
        invalid_arg "Fig_evict.run: cache sizes must be >= 0")
    sizes;
  let horizon = hours *. 3600.0 in
  let trace =
    Workload.Trace.synthesize ~functions ~alpha
      ~arrival:(Workload.Arrival.poisson ~rate)
      ~horizon ~seed
  in
  let arms = List.map (run_arm ~seed ~policy trace) sizes in
  {
    functions;
    alpha;
    rate;
    horizon;
    policy;
    seed;
    trace_events = Array.length trace.Workload.Trace.events;
    arms;
  }

(* {1 Reporting} *)

let arm_to_json a =
  Obs.Json.Obj
    [
      ("cache", Obs.Json.String a.label);
      ("cache_bytes", Obs.Json.String (Int64.to_string a.cache_bytes));
      ("invocations", Obs.Json.Int a.invocations);
      ("ok", Obs.Json.Int a.ok);
      ("errors", Obs.Json.Int a.errors);
      ("mean_ms", Obs.Json.Float a.mean_ms);
      ("p50_ms", Obs.Json.Float a.p50_ms);
      ("p99_ms", Obs.Json.Float a.p99_ms);
      ("p999_ms", Obs.Json.Float a.p999_ms);
      ("hit_rate", Obs.Json.Float a.hit_rate);
      ("hits", Obs.Json.Int a.hits);
      ("misses", Obs.Json.Int a.misses);
      ("evictions", Obs.Json.Int a.evictions);
      ("dedup_ratio", Obs.Json.Float a.dedup_ratio);
      ("resident_bytes", Obs.Json.String (Int64.to_string a.resident_bytes));
      ("peak_bytes", Obs.Json.String (Int64.to_string a.peak_bytes));
      ("members", Obs.Json.Int a.members);
      ("index_pages", Obs.Json.Int a.index_pages);
      ("cold", Obs.Json.Int a.mix.Harness.cold);
      ("warm", Obs.Json.Int a.mix.Harness.warm);
      ("hot", Obs.Json.Int a.mix.Harness.hot);
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("figure", Obs.Json.String "evict");
      ("functions", Obs.Json.Int r.functions);
      ("alpha", Obs.Json.Float r.alpha);
      ("rate_rps", Obs.Json.Float r.rate);
      ("horizon_s", Obs.Json.Float r.horizon);
      ("policy", Obs.Json.String (Seuss.Config.policy_name r.policy));
      ("seed", Obs.Json.String (Int64.to_string r.seed));
      ("trace_events", Obs.Json.Int r.trace_events);
      ("arms", Obs.Json.List (List.map arm_to_json r.arms));
    ]

let mib_of_bytes b = Int64.to_float b /. (1024.0 *. 1024.0)

let render r =
  let table =
    Stats.Tablefmt.create
      ~columns:
        [
          ("cache", Stats.Tablefmt.Left);
          ("hit %", Stats.Tablefmt.Right);
          ("dedup", Stats.Tablefmt.Right);
          ("resident MiB", Stats.Tablefmt.Right);
          ("peak MiB", Stats.Tablefmt.Right);
          ("members", Stats.Tablefmt.Right);
          ("evict", Stats.Tablefmt.Right);
          ("p50 ms", Stats.Tablefmt.Right);
          ("p99 ms", Stats.Tablefmt.Right);
          ("p999 ms", Stats.Tablefmt.Right);
          ("cold/warm/hot", Stats.Tablefmt.Right);
        ]
  in
  List.iter
    (fun a ->
      Stats.Tablefmt.add_row table
        [
          a.label;
          Printf.sprintf "%.1f" (a.hit_rate *. 100.0);
          (if Int64.equal a.cache_bytes 0L then "-"
           else Printf.sprintf "%.2f" a.dedup_ratio);
          (if Int64.equal a.cache_bytes 0L then "-"
           else Printf.sprintf "%.2f" (mib_of_bytes a.resident_bytes));
          (if Int64.equal a.cache_bytes 0L then "-"
           else Printf.sprintf "%.2f" (mib_of_bytes a.peak_bytes));
          string_of_int a.members;
          string_of_int a.evictions;
          Printf.sprintf "%.2f" a.p50_ms;
          Printf.sprintf "%.2f" a.p99_ms;
          Printf.sprintf "%.2f" a.p999_ms;
          Printf.sprintf "%d/%d/%d" a.mix.Harness.cold a.mix.Harness.warm a.mix.Harness.hot;
        ])
    r.arms;
  (* The curves only make sense over the finite armed rungs. *)
  let finite = List.filter (fun a -> Int64.compare a.cache_bytes 0L > 0) r.arms in
  let curves =
    if List.length finite < 2 then ""
    else
      let hit_plot =
        Stats.Asciiplot.create ~title:"store hit rate vs cache budget"
          ~xlabel:"cache MiB" ~ylabel:"hit %" ()
      in
      Stats.Asciiplot.add_series hit_plot ~label:"hit %" ~mark:'H'
        (List.map
           (fun a -> (mib_of_bytes a.cache_bytes, a.hit_rate *. 100.0))
           finite);
      let p99_plot =
        Stats.Asciiplot.create ~yscale:Stats.Asciiplot.Log
          ~title:"p99 latency vs cache budget" ~xlabel:"cache MiB"
          ~ylabel:"p99 ms" ()
      in
      Stats.Asciiplot.add_series p99_plot ~label:"p99 ms" ~mark:'*'
        (List.map (fun a -> (mib_of_bytes a.cache_bytes, a.p99_ms)) finite);
      Stats.Asciiplot.render hit_plot ^ "\n" ^ Stats.Asciiplot.render p99_plot
  in
  Printf.sprintf
    "%sOpen-loop Zipf(%.2f) trace over %d functions at %g req/s, %.2f \
     simulated hours per arm\n\
     (idle-UC cache off: a store miss is a full cold compile; policy %s; \
     \"off\" = store disarmed; seed %Ld)\n\n\
     %s\n%s"
    (Report.heading "fig_evict: snapshot-store eviction sweep")
    r.alpha r.functions r.rate (r.horizon /. 3600.0)
    (Seuss.Config.policy_name r.policy)
    r.seed
    (Stats.Tablefmt.render table)
    curves

let write_csv ~path r =
  Report.write_csv ~path
    ~header:
      [
        "cache"; "cache_bytes"; "invocations"; "ok"; "errors"; "mean_ms";
        "p50_ms"; "p99_ms"; "p999_ms"; "hit_rate"; "hits"; "misses";
        "evictions"; "dedup_ratio"; "resident_bytes"; "peak_bytes"; "members";
        "index_pages"; "cold"; "warm"; "hot";
      ]
    (List.map
       (fun a ->
         [
           a.label;
           Int64.to_string a.cache_bytes;
           string_of_int a.invocations;
           string_of_int a.ok;
           string_of_int a.errors;
           Printf.sprintf "%.6f" a.mean_ms;
           Printf.sprintf "%.6f" a.p50_ms;
           Printf.sprintf "%.6f" a.p99_ms;
           Printf.sprintf "%.6f" a.p999_ms;
           Printf.sprintf "%.6f" a.hit_rate;
           string_of_int a.hits;
           string_of_int a.misses;
           string_of_int a.evictions;
           Printf.sprintf "%.6f" a.dedup_ratio;
           Int64.to_string a.resident_bytes;
           Int64.to_string a.peak_bytes;
           string_of_int a.members;
           string_of_int a.index_pages;
           string_of_int a.mix.Harness.cold;
           string_of_int a.mix.Harness.warm;
           string_of_int a.mix.Harness.hot;
         ])
       r.arms)
