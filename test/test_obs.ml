(* Tests for the observability layer: JSON codec, event ring, the event
   log (JSONL round-trip), the metrics registry and the per-phase
   breakdown aggregator — plus an end-to-end check that a real node
   workload produces a parseable event stream. *)

let contains needle hay =
  let n = String.length needle and len = String.length hay in
  let rec go i = i + n <= len && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* {1 Json} *)

let test_json_roundtrip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.Float 2.9742431176;
      Obs.Json.Float 120262656.0;
      Obs.Json.String "needs \"escaping\"\n\ttoo";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Null; Obs.Json.Bool false ];
      Obs.Json.Obj
        [ ("a", Obs.Json.Int 1); ("b", Obs.Json.List [ Obs.Json.String "x" ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Obs.Json.to_string j in
      match Obs.Json.of_string s with
      | Error e -> Alcotest.failf "reparse of %s failed: %s" s e
      | Ok j' ->
          Alcotest.(check string)
            ("stable: " ^ s) s (Obs.Json.to_string j'))
    samples

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "\"unterminated"; "{\"a\":1} trailing" ]

let test_event_roundtrip_all_variants () =
  let events =
    [
      Obs.Event.Invoke_start { fn_id = "fn-1" };
      Obs.Event.Invoke_finish
        {
          fn_id = "fn-1";
          path = Obs.Event.Cold;
          queue = 0.0001;
          deploy = 0.0004;
          import = 0.006;
          run = 0.0008;
          total = 0.0073;
          ok = true;
        };
      Obs.Event.Snapshot_capture
        { name = "fn-fn-1"; pages = 546; bytes = 2236416L };
      Obs.Event.Cow_fault { uc_id = 7; pages = 12 };
      Obs.Event.Uc_reclaim { uc_id = 7; fn_id = "fn-1" };
      Obs.Event.Oom_wake { free_bytes = 1048576L };
      Obs.Event.Fault_injected { site = "uc_kill"; detail = "uc-42" };
      Obs.Event.Invoke_retry { fn_id = "fn-1" };
      Obs.Event.Node_crash { node_id = 2 };
      Obs.Event.Fetch_retry { fn_id = "fn-1"; attempt = 2; backoff = 0.075 };
      Obs.Event.Registry_evict
        { fn_id = "fn-1"; node_id = 3; reason = "dead holder" };
      Obs.Event.Registry_repair { node_id = 1; republished = 4 };
      Obs.Event.Failover { fn_id = "fn-1"; from_node = 0; to_node = 2 };
      Obs.Event.Degraded_cold { fn_id = "fn-1" };
      Obs.Event.Ws_record { snapshot = "fn-fn-1"; pages = 546 };
      Obs.Event.Ws_prefault
        {
          uc_id = 7;
          snapshot = "fn-fn-1";
          pages = 546;
          cow_copied = 530;
          zero_filled = 16;
        };
      Obs.Event.San_race
        { cell = "registry.table"; kind = "write/write"; first_pid = 1; second_pid = 4 };
      Obs.Event.Snap_dedup
        {
          snapshot = "fn-fn-1";
          delta_pages = 546;
          shared_pages = 540;
          unique_pages = 6;
        };
      Obs.Event.Snap_delta
        {
          snapshot = "fn-fn-1";
          parent = "node-base";
          delta_pages = 546;
          delta_bytes = 2236416L;
        };
      Obs.Event.Snap_evict
        {
          fn_id = "fn-1";
          pages_freed = 6;
          resident_bytes = 4194304L;
          policy = "lru";
        };
      Obs.Event.San_leak
        { node = "node0"; frames = 3; snapshot_refs = 1; pinned = 0; ucs = 2 };
    ]
  in
  List.iter
    (fun ev ->
      let j = Obs.Event.to_json ~time:1.25 ev in
      match Obs.Event.of_json j with
      | Error e -> Alcotest.failf "%s: %s" (Obs.Event.type_name ev) e
      | Ok (time, ev') ->
          Alcotest.(check (float 0.0)) "time" 1.25 time;
          Alcotest.(check string) "event survives"
            (Obs.Json.to_string (Obs.Event.to_json ~time ev))
            (Obs.Json.to_string (Obs.Event.to_json ~time ev')))
    events

(* {1 Log} *)

let fake_clock () =
  let now = ref 0.0 in
  ( (fun () -> !now),
    fun t -> now := t )

let finish_ev i =
  Obs.Event.Invoke_finish
    {
      fn_id = Printf.sprintf "fn-%d" i;
      path = (if i mod 2 = 0 then Obs.Event.Hot else Obs.Event.Cold);
      queue = 0.0;
      deploy = 0.001;
      import = (if i mod 2 = 0 then 0.0 else 0.005);
      run = 0.002;
      total = 0.008;
      ok = i mod 5 <> 0;
    }

(* {1 The log's ring} *)

let oom_ev i = Obs.Event.Oom_wake { free_bytes = Int64.of_int i }

let free_bytes_of (r : Obs.Log.record) =
  match r.Obs.Log.ev with
  | Obs.Event.Oom_wake { free_bytes } -> Int64.to_int free_bytes
  | ev -> Alcotest.failf "unexpected %s" (Obs.Event.type_name ev)

let cap = Obs.Log.default_capacity

let test_ring_overwrites_oldest () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~clock () in
  for i = 1 to cap + 2 do
    set (float_of_int i);
    Obs.Log.emit log (oom_ev i)
  done;
  let records = Obs.Log.records log in
  Alcotest.(check (list int)) "keeps newest" (List.init cap (fun i -> i + 3))
    (List.map free_bytes_of records);
  Alcotest.(check (list (float 0.0))) "with their times"
    (List.init cap (fun i -> float_of_int (i + 3)))
    (List.map (fun r -> r.Obs.Log.time) records);
  Alcotest.(check int) "dropped counted" 2 (Obs.Log.dropped log);
  Alcotest.(check int) "emitted counts everything" (cap + 2)
    (Obs.Log.emitted log)

let test_log_jsonl_roundtrip () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~clock () in
  for i = 1 to 10 do
    set (float_of_int i);
    Obs.Log.emit log (finish_ev i)
  done;
  set 11.0;
  Obs.Log.emit log (Obs.Event.Oom_wake { free_bytes = 42L });
  let text = Obs.Log.to_jsonl log in
  Alcotest.(check int) "one line per event" 11
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' text)));
  match Obs.Log.parse_jsonl text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok records ->
      Alcotest.(check int) "all records back" 11 (List.length records);
      let times = List.map (fun r -> r.Obs.Log.time) records in
      Alcotest.(check (list (float 0.0))) "timestamps preserved"
        [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11. ]
        times

let test_log_parse_reports_line () =
  match Obs.Log.parse_jsonl "{\"ts\":1,\"type\":\"oom_wake\",\"free_bytes\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "accepted bad line"
  | Error msg ->
      Alcotest.(check bool) "names the line" true (contains "line 2" msg)

let test_log_cow_fault_pages_roundtrip () =
  let log = Obs.Log.create ~clock:(fun () -> 2.5) () in
  let ev = Obs.Event.Cow_fault { uc_id = 3; pages = 487 } in
  Obs.Log.emit log ev;
  let text = Obs.Log.to_jsonl log in
  Alcotest.(check bool) "pages serialised" true (contains "\"pages\":487" text);
  match Obs.Log.parse_jsonl text with
  | Ok [ r ] ->
      Alcotest.(check (float 0.0)) "time" 2.5 r.Obs.Log.time;
      Alcotest.(check bool) "event survives" true (r.Obs.Log.ev = ev)
  | Ok rs -> Alcotest.failf "%d records back, expected 1" (List.length rs)
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_log_cow_fault_needs_pages () =
  match
    Obs.Log.parse_jsonl "{\"ts\":1,\"type\":\"cow_fault\",\"uc_id\":3}\n"
  with
  | Ok _ -> Alcotest.fail "accepted a cow_fault line without pages"
  | Error msg ->
      Alcotest.(check bool) "names the line and field" true
        (contains "line 1" msg && contains "pages" msg)

let test_log_subscriber_outlives_ring () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~clock () in
  let seen = ref [] in
  Obs.Log.subscribe log (fun r -> seen := r.Obs.Log.time :: !seen);
  let n = cap + 48 in
  for i = 1 to n do
    set (float_of_int i);
    Obs.Log.emit log (finish_ev i)
  done;
  Alcotest.(check (list (float 0.0)))
    "subscriber saw every event, stamped, in order"
    (List.init n (fun i -> float_of_int (i + 1)))
    (List.rev !seen);
  Alcotest.(check int) "ring kept only capacity" cap
    (List.length (Obs.Log.records log));
  Alcotest.(check int) "emitted counts all" n (Obs.Log.emitted log);
  Alcotest.(check int) "dropped counts evictions" 48 (Obs.Log.dropped log)

(* {1 Metrics} *)

let test_metrics_counters_and_labels () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.counter m ~labels:[ ("path", "cold") ] "inv" in
  let b = Obs.Metrics.counter m ~labels:[ ("path", "hot") ] "inv" in
  Obs.Metrics.inc a;
  Obs.Metrics.add b 4;
  (* Same (name, labels) returns the same instrument; label order is
     canonicalised. *)
  let a' = Obs.Metrics.counter m ~labels:[ ("path", "cold") ] "inv" in
  Obs.Metrics.inc a';
  Alcotest.(check int) "shared handle" 2 (Obs.Metrics.value a);
  Alcotest.(check int) "sum all" 6 (Obs.Metrics.sum_counters m "inv");
  Alcotest.(check int) "sum filtered" 4
    (Obs.Metrics.sum_counters m ~where:[ ("path", "hot") ] "inv");
  Alcotest.(check int) "sum missing" 0 (Obs.Metrics.sum_counters m "nope");
  Alcotest.check_raises "negative inc"
    (Invalid_argument "Metrics.add: counters only go up") (fun () ->
      Obs.Metrics.add a (-1))

(* {1 Chrome trace-event encoding} *)

let test_chrome_document_structure () =
  let events =
    [
      Obs.Chrome.Process_name { pid = 0; name = "cold" };
      Obs.Chrome.Thread_name { pid = 0; tid = 1; name = "sim pid 1" };
      Obs.Chrome.Complete
        {
          name = "node.invoke";
          cat = "sim";
          ts_us = 1500.0;
          dur_us = 7300.5;
          pid = 0;
          tid = 1;
          args = [ ("span_id", Obs.Json.Int 1) ];
        };
      Obs.Chrome.Instant
        {
          name = "node.path cold";
          cat = "sim";
          ts_us = 1500.0;
          pid = 0;
          tid = 1;
          args = [ ("span_id", Obs.Json.Int 2); ("parent_id", Obs.Json.Int 1) ];
        };
    ]
  in
  let doc =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.Chrome.trace events)) with
    | Error e -> Alcotest.failf "chrome output does not parse: %s" e
    | Ok j -> j
  in
  let field name = function
    | Obs.Json.Obj kvs -> List.assoc_opt name kvs
    | _ -> None
  in
  let rows =
    match field "traceEvents" doc with
    | Some (Obs.Json.List rows) -> rows
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check int) "one row per event" (List.length events)
    (List.length rows);
  (match field "displayTimeUnit" doc with
  | Some (Obs.Json.String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let phases =
    List.map
      (fun row ->
        (* Every event carries the required keys. *)
        (match field "name" row with
        | Some (Obs.Json.String _) -> ()
        | _ -> Alcotest.fail "name missing");
        (match field "ts" row with
        | Some (Obs.Json.Float _) | Some (Obs.Json.Int _) -> ()
        | _ -> Alcotest.fail "ts missing");
        (match field "pid" row with
        | Some (Obs.Json.Int 0) -> ()
        | _ -> Alcotest.fail "pid missing");
        match field "ph" row with
        | Some (Obs.Json.String ph) -> ph
        | _ -> Alcotest.fail "ph missing")
      rows
  in
  Alcotest.(check (list string)) "phases" [ "M"; "M"; "X"; "i" ] phases;
  (* The complete event keeps its duration. *)
  match List.nth rows 2 |> field "dur" with
  | Some (Obs.Json.Float d) -> Alcotest.(check (float 1e-9)) "dur" 7300.5 d
  | _ -> Alcotest.fail "complete event lost dur"

(* {1 Breakdown} *)

let test_breakdown_aggregates_beyond_ring () =
  let clock, set = fake_clock () in
  (* The ring overwrites all 40 invocations: the aggregator must still
     see everything (it subscribes to the bus instead of reading the
     ring). *)
  let log = Obs.Log.create ~clock () in
  let bd = Obs.Breakdown.attach log in
  for i = 1 to 40 do
    set (float_of_int i);
    Obs.Log.emit log (finish_ev i)
  done;
  for i = 1 to cap do
    Obs.Log.emit log (oom_ev i)
  done;
  Alcotest.(check int) "the ring dropped every invocation" 40
    (Obs.Log.dropped log);
  (match Obs.Breakdown.overall bd with
  | None -> Alcotest.fail "no overall breakdown"
  | Some o ->
      Alcotest.(check int) "all invocations folded" 40 o.Obs.Breakdown.n;
      Alcotest.(check (float 1e-9)) "deploy mean" 0.001 o.Obs.Breakdown.deploy);
  (match Obs.Breakdown.per_path bd Obs.Event.Hot with
  | None -> Alcotest.fail "no hot breakdown"
  | Some h ->
      Alcotest.(check int) "hot count" 20 h.Obs.Breakdown.n;
      Alcotest.(check (float 1e-9)) "hot import zero" 0.0 h.Obs.Breakdown.import);
  (match Obs.Breakdown.per_path bd Obs.Event.Cold with
  | None -> Alcotest.fail "no cold breakdown"
  | Some c ->
      Alcotest.(check (float 1e-9)) "cold import" 0.005 c.Obs.Breakdown.import);
  Alcotest.(check int) "errors counted" 8 (Obs.Breakdown.errors bd);
  Alcotest.(check bool) "warm path unseen" true
    (Obs.Breakdown.per_path bd Obs.Event.Warm = None)

let finish ~path ~total ~ok =
  Obs.Event.Invoke_finish
    {
      fn_id = "fn-x";
      path;
      queue = 0.0;
      deploy = total /. 4.0;
      import = 0.0;
      run = total /. 4.0;
      total;
      ok;
    }

let fresh_breakdown () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~clock () in
  (Obs.Breakdown.attach log, log, set)

(* Property: the tail columns track exact order statistics within the
   log-bin quantisation bound. With 30 bins/decade a bin spans a factor
   of 10^(1/30) ~ 1.0798, and a quantile is the upper bound of the bin
   holding the rank-th smallest total (clamped into the observed
   [min, max]), so for every q: exact <= approx <= exact * 1.08. *)
let tails_track_exact =
  QCheck.Test.make ~name:"bucketed p50/p99/p999 within 8% of exact"
    ~count:200
    (* Millis in [1, 100_000] mapped to seconds in [1e-3, 1e2]: safely
       inside the histogram's [1e-4, 1e3] range, so no saturation bin
       distorts the bound. *)
    QCheck.(list_of_size Gen.(int_range 1 400) (int_range 1 100_000))
    (fun millis ->
      let xs = List.map (fun m -> float_of_int m /. 1000.0) millis in
      let bd, log, _set = fresh_breakdown () in
      List.iter
        (fun total ->
          Obs.Log.emit log (finish ~path:Obs.Event.Cold ~total ~ok:true))
        xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      match Obs.Breakdown.tails bd Obs.Event.Cold with
      | None -> false
      | Some t ->
          List.for_all
            (fun (q, approx) ->
              let exact =
                sorted.(int_of_float (Float.round (q *. float_of_int (n - 1))))
              in
              approx >= exact -. 1e-12 && approx <= (exact *. 1.08) +. 1e-12)
            Obs.Breakdown.
              [ (0.5, t.p50); (0.9, t.p90); (0.99, t.p99); (0.999, t.p999) ])

let test_breakdown_path_classification () =
  (* Each path accumulates independently: cold/warm/hot events must not
     bleed into each other's buckets, and errors fold in regardless of
     path. *)
  let bd, log, set = fresh_breakdown () in
  let emit i path total ok =
    set (float_of_int i);
    Obs.Log.emit log (finish ~path ~total ~ok)
  in
  emit 1 Obs.Event.Cold 0.008 true;
  emit 2 Obs.Event.Cold 0.006 true;
  emit 3 Obs.Event.Warm 0.004 true;
  emit 4 Obs.Event.Hot 0.001 false;
  emit 5 Obs.Event.Hot 0.001 true;
  let n path =
    match Obs.Breakdown.per_path bd path with
    | None -> 0
    | Some p -> p.Obs.Breakdown.n
  in
  Alcotest.(check int) "cold bucket" 2 (n Obs.Event.Cold);
  Alcotest.(check int) "warm bucket" 1 (n Obs.Event.Warm);
  Alcotest.(check int) "hot bucket" 2 (n Obs.Event.Hot);
  (match Obs.Breakdown.per_path bd Obs.Event.Cold with
  | None -> Alcotest.fail "cold missing"
  | Some c ->
      Alcotest.(check (float 1e-9)) "cold total mean" 0.007 c.Obs.Breakdown.total);
  (match Obs.Breakdown.overall bd with
  | None -> Alcotest.fail "overall missing"
  | Some o -> Alcotest.(check int) "overall folds all paths" 5 o.Obs.Breakdown.n);
  Alcotest.(check int) "error folded despite hot path" 1
    (Obs.Breakdown.errors bd)

let test_breakdown_empty_buckets () =
  (* No invocations at all: every accessor must say None / 0 rather than
     fabricate a zero row. *)
  let bd, _log, _set = fresh_breakdown () in
  List.iter
    (fun path ->
      Alcotest.(check bool) "per_path empty" true
        (Obs.Breakdown.per_path bd path = None);
      Alcotest.(check bool) "tails empty" true
        (Obs.Breakdown.tails bd path = None))
    [ Obs.Event.Cold; Obs.Event.Warm; Obs.Event.Hot ];
  Alcotest.(check bool) "overall empty" true (Obs.Breakdown.overall bd = None);
  Alcotest.(check bool) "overall tails empty" true
    (Obs.Breakdown.overall_tails bd = None);
  Alcotest.(check int) "no errors" 0 (Obs.Breakdown.errors bd)

let test_breakdown_single_sample_tails () =
  (* One invocation: the histogram has a single populated bin, and the
     min/max clamp must collapse every quantile — p50 through p999 — to
     exactly that observation instead of a bin edge. *)
  let bd, log, set = fresh_breakdown () in
  set 1.0;
  Obs.Log.emit log (finish ~path:Obs.Event.Warm ~total:0.0042 ~ok:true);
  (match Obs.Breakdown.tails bd Obs.Event.Warm with
  | None -> Alcotest.fail "single-sample tails missing"
  | Some t ->
      List.iter
        (fun (label, v) ->
          Alcotest.(check (float 1e-12)) label 0.0042 v)
        [
          ("p50", t.Obs.Breakdown.p50);
          ("p90", t.Obs.Breakdown.p90);
          ("p99", t.Obs.Breakdown.p99);
          ("p999", t.Obs.Breakdown.p999);
        ]);
  (match Obs.Breakdown.overall_tails bd with
  | None -> Alcotest.fail "overall single-sample tails missing"
  | Some t ->
      Alcotest.(check (float 1e-12)) "overall p999 clamped" 0.0042
        t.Obs.Breakdown.p999);
  Alcotest.(check bool) "other paths still empty" true
    (Obs.Breakdown.tails bd Obs.Event.Cold = None)

let test_breakdown_tails_ordered () =
  (* Quantiles of a spread-out latency population must be monotone and
     clamped into the observed extrema. *)
  let bd, log, set = fresh_breakdown () in
  for i = 1 to 1000 do
    set (float_of_int i);
    Obs.Log.emit log
      (finish ~path:Obs.Event.Cold ~total:(float_of_int i *. 1e-4) ~ok:true)
  done;
  match Obs.Breakdown.tails bd Obs.Event.Cold with
  | None -> Alcotest.fail "tails missing"
  | Some t ->
      Alcotest.(check bool) "monotone" true
        (t.Obs.Breakdown.p50 <= t.Obs.Breakdown.p90
        && t.Obs.Breakdown.p90 <= t.Obs.Breakdown.p99
        && t.Obs.Breakdown.p99 <= t.Obs.Breakdown.p999);
      Alcotest.(check bool) "inside observed range" true
        (t.Obs.Breakdown.p50 >= 1e-4 && t.Obs.Breakdown.p999 <= 0.1);
      (* ~8% histogram quantization: p50 of a uniform 0.1ms..100ms
         population must land near 50ms. *)
      Alcotest.(check bool) "p50 near true median" true
        (t.Obs.Breakdown.p50 > 0.04 && t.Obs.Breakdown.p50 < 0.06)

(* {1 End to end: a real node workload round-trips through JSONL} *)

let test_node_event_stream_roundtrips () =
  let engine = Sim.Engine.create ~seed:3L () in
  let out = ref "" in
  Sim.Engine.spawn engine ~name:"obs-e2e" (fun () ->
      let env = Seuss.Osenv.create engine in
      let node = Seuss.Node.create env in
      Seuss.Node.start node;
      for i = 1 to 6 do
        match
          Seuss.Node.invoke node
            {
              Seuss.Node.fn_id = Printf.sprintf "fn-%d" (i mod 2);
              runtime = Unikernel.Image.Node;
              source = "function main(args) { return {}; }";
            }
            ~args:"{}"
        with
        | Ok _, _ -> ()
        | Error _, _ -> Alcotest.fail "invocation failed"
      done;
      out := Obs.Log.to_jsonl env.Seuss.Osenv.log);
  Sim.Engine.run engine;
  match Obs.Log.parse_jsonl !out with
  | Error e -> Alcotest.failf "node JSONL does not round-trip: %s" e
  | Ok records ->
      let count name =
        List.length
          (List.filter
             (fun r -> Obs.Event.type_name r.Obs.Log.ev = name)
             records)
      in
      Alcotest.(check int) "every invocation started" 6 (count "invoke_start");
      Alcotest.(check int) "every invocation finished" 6 (count "invoke_finish");
      (* base snapshots + 2 function snapshots *)
      Alcotest.(check bool) "snapshots captured" true
        (count "snapshot_capture" >= 3);
      Alcotest.(check bool) "cow faults observed" true (count "cow_fault" > 0);
      let mono =
        let rec go = function
          | a :: (b :: _ as rest) ->
              a.Obs.Log.time <= b.Obs.Log.time && go rest
          | _ -> true
        in
        go records
      in
      Alcotest.(check bool) "timestamps monotone" true mono

(* {1 Word budgets}

   Exact minor-word counts for the obs hot roots, in the style of
   test_sim's zero-alloc dispatch: once the ring is allocated, an emit
   with no subscriber stores the stamp unboxed and the event by pointer,
   and a counter bump is one integer store, also by a count ([add], the
   form Uc's fault hook uses per fault range). *)

let words_per n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_log_emit_word_budget () =
  let log = Obs.Log.create ~clock:(fun () -> 1.5) () in
  let ev = Obs.Event.Invoke_start { fn_id = "f" } in
  Alcotest.(check (float 0.0)) "minor words per emit, no subscriber" 0.0
    (words_per 10_000 (fun () -> Obs.Log.emit log ev))

let test_metrics_inc_word_budget () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "hits" in
  let pages = ref 3 in
  Alcotest.(check (float 0.0)) "minor words per inc" 0.0
    (words_per 10_000 (fun () -> Obs.Metrics.inc c));
  Alcotest.(check (float 0.0)) "minor words per add" 0.0
    (words_per 10_000 (fun () -> Obs.Metrics.add c !pages));
  Alcotest.(check int) "every bump counted" (10_000 + (3 * 10_000))
    (Obs.Metrics.value c)

(* [Breakdown.fold_record] on its invocation-finish arm, reached as the
   log's subscriber. Every word is the record [emit] hands its
   subscribers: a header, the stamp (the clock's own float, by pointer)
   and the event (3). Folding it into the path's all-float sums and its
   histogram allocates nothing. *)
let test_breakdown_fold_word_budget () =
  let log = Obs.Log.create ~clock:(fun () -> 1.5) () in
  let b = Obs.Breakdown.attach log in
  let ev =
    Obs.Event.Invoke_finish
      { fn_id = "f"; path = Obs.Event.Hot; queue = 0.001; deploy = 0.002;
        import = 0.0; run = 0.004; total = 0.007; ok = true }
  in
  Obs.Log.emit log ev;
  Alcotest.(check (float 0.0)) "minor words per emit + fold_record" 3.0
    (words_per 10_000 (fun () -> Obs.Log.emit log ev));
  Alcotest.(check (option int)) "every finish folded" (Some 10_001)
    (Option.map
       (fun (m : Obs.Breakdown.phase_means) -> m.n)
       (Obs.Breakdown.per_path b Obs.Event.Hot))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "json",
        [
          case "roundtrip" test_json_roundtrip;
          case "rejects garbage" test_json_rejects_garbage;
          case "events roundtrip" test_event_roundtrip_all_variants;
        ] );
      ( "ring",
        [
          case "overwrites oldest" test_ring_overwrites_oldest;
        ] );
      ( "log",
        [
          case "jsonl roundtrip" test_log_jsonl_roundtrip;
          case "parse names bad line" test_log_parse_reports_line;
          case "subscriber outlives ring" test_log_subscriber_outlives_ring;
          case "cow_fault pages roundtrip" test_log_cow_fault_pages_roundtrip;
          case "cow_fault without pages rejected"
            test_log_cow_fault_needs_pages;
          case "emit word budget" test_log_emit_word_budget;
        ] );
      ( "metrics",
        [
          case "counters and labels" test_metrics_counters_and_labels;
          case "inc word budget" test_metrics_inc_word_budget;
        ] );
      ("chrome", [ case "document structure" test_chrome_document_structure ]);
      ( "breakdown",
        [
          case "aggregates beyond ring" test_breakdown_aggregates_beyond_ring;
          case "path classification" test_breakdown_path_classification;
          case "empty buckets" test_breakdown_empty_buckets;
          case "single-sample tails" test_breakdown_single_sample_tails;
          case "tails ordered and clamped" test_breakdown_tails_ordered;
          QCheck_alcotest.to_alcotest tails_track_exact;
          case "fold word budget" test_breakdown_fold_word_budget;
        ] );
      ("end_to_end", [ case "node JSONL roundtrip" test_node_event_stream_roundtrips ]);
    ]
