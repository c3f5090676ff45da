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

let mib_of_bytes b = Int64.to_float b /. (1024.0 *. 1024.0)

let report r =
  let open Report in
  (* The store's figures mean nothing on the disarmed baseline. *)
  let armed sel a =
    if Int64.equal a.cache_bytes 0L then Absent else f 2 (sel a)
  in
  let shown head cell = col ~head "" cell in
  let arms =
    [
      col ~head:"cache" ~align:Left "cache" (fun a -> Text a.label);
      shown "hit %" (fun a -> f 1 (a.hit_rate *. 100.0));
      shown "dedup" (armed (fun a -> a.dedup_ratio));
      shown "resident MiB" (armed (fun a -> mib_of_bytes a.resident_bytes));
      shown "peak MiB" (armed (fun a -> mib_of_bytes a.peak_bytes));
      shown "members" (fun a -> Int a.members);
      shown "evict" (fun a -> Int a.evictions);
      col "cache_bytes" (fun a -> Int64 a.cache_bytes);
      col "invocations" (fun a -> Int a.invocations);
      col "ok" (fun a -> Int a.ok);
      col "errors" (fun a -> Int a.errors);
      col "mean_ms" (fun a -> f 2 a.mean_ms);
      col ~head:"p50 ms" "p50_ms" (fun a -> f 2 a.p50_ms);
      col ~head:"p99 ms" "p99_ms" (fun a -> f 2 a.p99_ms);
      col ~head:"p999 ms" "p999_ms" (fun a -> f 2 a.p999_ms);
      shown "cold/warm/hot" (fun { mix = m; _ } ->
          Text (Printf.sprintf "%d/%d/%d" m.Harness.cold m.warm m.hot));
      col "hit_rate" (fun a -> f 3 a.hit_rate);
      col "hits" (fun a -> Int a.hits);
      col "misses" (fun a -> Int a.misses);
      col "evictions" (fun a -> Int a.evictions);
      col "dedup_ratio" (fun a -> f 2 a.dedup_ratio);
      col "resident_bytes" (fun a -> Int64 a.resident_bytes);
      col "peak_bytes" (fun a -> Int64 a.peak_bytes);
      col "members" (fun a -> Int a.members);
      col "index_pages" (fun a -> Int a.index_pages);
      col "cold" (fun a -> Int a.mix.Harness.cold);
      col "warm" (fun a -> Int a.mix.Harness.warm);
      col "hot" (fun a -> Int a.mix.Harness.hot);
    ]
  in
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
  {
    title = "fig_evict: snapshot-store eviction sweep";
    sections =
      [
        params
          [
            ("figure", Text "evict");
            ("functions", Int r.functions);
            ("alpha", f 2 r.alpha);
            ("rate_rps", f (-1) r.rate);
            ("horizon_s", f 0 r.horizon);
            ("policy", Text (Seuss.Config.policy_name r.policy));
            ("seed", Int64 r.seed);
            ("trace_events", Int r.trace_events);
          ];
        text
          (Printf.sprintf
             "Open-loop Zipf(%.2f) trace over %d functions at %g req/s, %.2f \
              simulated hours per arm\n\
              (idle-UC cache off: a store miss is a full cold compile; policy \
              %s; \"off\" = store disarmed; seed %Ld)\n\n"
             r.alpha r.functions r.rate (r.horizon /. 3600.0)
             (Seuss.Config.policy_name r.policy)
             r.seed);
        table "arms" arms r.arms;
        text ("\n" ^ curves);
      ];
  }
