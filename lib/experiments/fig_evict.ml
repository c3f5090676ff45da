(* fig_evict (extension): snapshot-store hit rate and tail latency vs
   cache budget.

   One Zipf-popularity trace ({!Workload.Trace}) is replayed open-loop
   against a ladder of SEUSS nodes that differ only in
   [Config.snapshot_cache_bytes]: a disarmed baseline (the pre-store
   node, label "off"), several byte budgets small enough that the
   content-addressed store must evict under the configured policy, and
   an effectively unbounded budget that shows pure dedup with no
   eviction pressure. The idle-UC cache is off so every repeat
   invocation redeploys from its function snapshot — a store miss is a
   full cold compile, which is exactly the cliff the sweep measures.
   Per arm the figure reports the store hit rate, dedup ratio, resident
   and peak bytes, eviction count, and client-observed latency
   percentiles; the curves plot hit rate and p99 against the budget.

   Arms build their nodes directly (not via {!Harness.seuss_node}) so
   an armed SEUSS_SNAP_CACHE cannot collapse the ladder to a single
   budget; each registers its census with {!Harness.arm_census}, as
   {!Harness.seuss_node} would. Every arm runs in a fresh simulation
   from the same run seed, so the whole sweep is deterministic. *)

type mix = { cold : int; warm : int; hot : int }

type arm = {
  label : string;  (* "off" or the budget, e.g. "4m" *)
  cache_bytes : int64;  (* 0 = store disarmed (baseline) *)
  invocations : int;
  ok : int;
  errors : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  hit_rate : float;
      (* armed: store hits / lookups; off: warm / (warm + cold), the
         same quantity measured at the node since every lookup miss is
         served cold *)
  hits : int;
  misses : int;
  evictions : int;
  dedup_ratio : float;  (* 1.0 when the store is off *)
  resident_bytes : int64;
  peak_bytes : int64;
  members : int;
  index_pages : int;
  mix : mix;
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

let fn_action fn =
  let ms = Workload.Fnset.work_ms fn in
  if ms = 0.0 then Baselines.Backend_intf.Nop
  else Baselines.Backend_intf.Cpu_ms ms

let percentile_ms lat p =
  if Stats.Summary.count lat = 0 then 0.0
  else Stats.Summary.percentile lat p *. 1e3

let run_arm ~seed ~policy trace cache_bytes =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let config =
        {
          Seuss.Config.default with
          (* every repeat must redeploy from the function snapshot *)
          Seuss.Config.cache_idle_ucs = false;
          snapshot_cache_bytes = cache_bytes;
          snapshot_cache_policy = policy;
        }
      in
      let node = Seuss.Node.create ~config env in
      Harness.arm_census node;
      Seuss.Node.start node;
      let shim = Seuss.Shim.create env node in
      let controller =
        Platform.Controller.create env.Seuss.Osenv.engine
          (Platform.Controller.Seuss_backend shim)
      in
      let r =
        Workload.Replay.run
          ~invoke:(fun ~fn ->
            Platform.Controller.invoke_custom controller
              ~fn_id:(Workload.Fnset.fn_id fn) ~action:(fn_action fn)
              ~source:(Workload.Fnset.source fn))
          trace
      in
      let lat = r.Workload.Replay.latencies in
      let st = Seuss.Node.stats node in
      let mix =
        {
          cold = st.Seuss.Node.cold;
          warm = st.Seuss.Node.warm;
          hot = st.Seuss.Node.hot;
        }
      in
      let hits, misses, evictions, dedup, resident, peak, members, index_pages
          =
        match Seuss.Node.snapstore node with
        | Some store ->
            ( Seuss.Snapstore.hits store,
              Seuss.Snapstore.misses store,
              Seuss.Snapstore.evictions store,
              Seuss.Snapstore.dedup_ratio store,
              Seuss.Snapstore.resident_bytes store,
              Seuss.Snapstore.peak_resident_bytes store,
              Seuss.Snapstore.member_count store,
              Seuss.Snapstore.index_pages store )
        | None -> (mix.warm, mix.cold, 0, 1.0, 0L, 0L, 0, 0)
      in
      let hit_rate =
        let lookups = hits + misses in
        if lookups = 0 then 0.0
        else float_of_int hits /. float_of_int lookups
      in
      {
        label = label_of_bytes cache_bytes;
        cache_bytes;
        invocations = r.Workload.Replay.invocations;
        ok = r.Workload.Replay.ok;
        errors = r.Workload.Replay.errors;
        mean_ms = Stats.Summary.mean lat *. 1e3;
        p50_ms = percentile_ms lat 50.0;
        p99_ms = percentile_ms lat 99.0;
        p999_ms = percentile_ms lat 99.9;
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
      })

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
      ("cold", Obs.Json.Int a.mix.cold);
      ("warm", Obs.Json.Int a.mix.warm);
      ("hot", Obs.Json.Int a.mix.hot);
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
          Printf.sprintf "%d/%d/%d" a.mix.cold a.mix.warm a.mix.hot;
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
           string_of_int a.mix.cold;
           string_of_int a.mix.warm;
           string_of_int a.mix.hot;
         ])
       r.arms)
