(* seussbench: the SEUSS reproduction's benchmark.

   Usage (from the repository root, through run.sh, which builds first):
     seussbench --workload NAME --seed N --seconds S --trace 0|1
     seussbench --smoke   every workload at 1/20 scale, every check
     seussbench --spec    print BENCHMARK.json from the metric table

   --trace 0 measures the end-to-end metrics: it replays the workload's
   sub-traces round-robin, each in a fresh simulation, until S seconds
   have passed (at least one full round plus one repeat). It reports the
   first round's pooled simulated latencies and each sub-trace's fastest
   host time. --trace 1 replays one untraced and one traced round, then
   times each layer's probes, and reports the per-layer metrics. Either
   way the last stdout line is one JSON object: {"correct", "attempted",
   "failed", "metrics"}. A simulated process that raises fails the run:
   it prints the exception and exits 1 with no numbers. See README.md. *)

let usage =
  "usage: seussbench --workload NAME --seed N --seconds S --trace 0|1\n\
  \       seussbench --smoke | --spec"

(* Every SEUSS_* variable arms or reshapes something in the library, so
   a run restarts itself without them: the seed is the only input. *)
let hermetic () =
  let env = Unix.environment () in
  let armed v = String.starts_with ~prefix:"SEUSS_" v in
  if Array.exists armed env then
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list (List.filter (fun v -> not (armed v)) (Array.to_list env)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type result = {
  values : (string * float) list;  (* metric name -> value *)
  attempted : int;
  failed : int;
  problems : string list;
}

let sum f reps = List.fold_left (fun acc r -> acc + f r) 0 reps
let sumf f reps = List.fold_left (fun acc r -> acc +. f r) 0.0 reps
let calls reps = sum (fun (r : Workloads.rep) -> r.calls) reps

let problems_of (reps : Workloads.rep list) =
  List.concat_map
    (fun (r : Workloads.rep) ->
      List.map (Printf.sprintf "sub-trace %Ld: %s" r.seed) r.problems)
    reps

(* A repeat of a sub-trace must reproduce its simulated results bit for
   bit, traced or not. *)
let drift (a : Workloads.rep) (b : Workloads.rep) =
  if a.digest = b.digest then []
  else [ Printf.sprintf "sub-trace %Ld: simulated results differ on repeat" a.seed ]

(* {1 End to end (--trace 0)} *)

let end_to_end ?scale (w : Workloads.t) ~seeds ~seconds =
  let k = Array.length seeds in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec loop i last acc =
    if i <= k || Unix.gettimeofday () +. last <= deadline then begin
      let t0 = Unix.gettimeofday () in
      let rep =
        Workloads.run_isolated ?scale w ~seed:seeds.(i mod k) ~traced:false
      in
      (* only the first round's latencies are pooled *)
      let rep = if i < k then rep else { rep with latencies = [||] } in
      loop (i + 1) (Unix.gettimeofday () -. t0) (rep :: acc)
    end
    else Array.of_list (List.rev acc)
  in
  let reps = loop 0 0.0 [] in
  let first = Array.sub reps 0 k in
  let pooled = Stats.Summary.create () in
  Array.iter
    (fun (r : Workloads.rep) -> Array.iter (Stats.Summary.add pooled) r.latencies)
    first;
  let all = Array.to_list reps in
  (* Repeats of one sub-trace do identical work, so other load on the
     host can only slow them: the fastest repeat is the steadiest
     estimate of its cost. *)
  let fastest (r : Workloads.rep) =
    List.fold_left
      (fun m (o : Workloads.rep) ->
        if o.seed = r.seed then Float.min m o.replay_cpu else m)
      r.replay_cpu all
  in
  {
    values =
      [
        ("lat_mean_ms", 1e3 *. Stats.Summary.mean pooled);
        ("lat_p99_ms", 1e3 *. Stats.Summary.percentile pooled 99.0);
        ( "host_us_per_inv",
          1e6
          *. Array.fold_left (fun acc r -> acc +. fastest r) 0.0 first
          /. float_of_int (calls (Array.to_list first)) );
        ( "host_peak_rss_mb",
          median (List.map (fun (r : Workloads.rep) -> r.peak_rss_mb) all) );
        ("setup_s", median (List.map (fun (r : Workloads.rep) -> r.setup_cpu) all));
      ];
    attempted = calls all;
    failed = sum (fun (r : Workloads.rep) -> r.errors) all;
    problems =
      problems_of all
      @ List.concat
          (List.init
             (Array.length reps - k)
             (fun j -> drift first.((k + j) mod k) reps.(k + j)));
  }

(* {1 Per layer (--trace 1)} *)

(* The first calls of the first sub-trace: the probes' inputs, with the
   workload's popularity skew. *)
let sample ?scale (w : Workloads.t) ~seed =
  let trace = Workloads.trace ?scale w ~seed in
  Array.to_list
    (Array.map
       (fun (e : Workload.Trace.event) -> e.fn)
       (Array.sub trace.Workload.Trace.events 0
          (min 64 (Array.length trace.Workload.Trace.events))))

let per_layer ?scale ?batches (w : Workloads.t) ~seeds =
  let round traced =
    List.map
      (fun s -> Workloads.run_isolated ?scale w ~seed:s ~traced)
      (Array.to_list seeds)
  in
  let plain = round false in
  let traced = round true in
  let fx = Fixture.create () in
  let sample = sample ?scale w ~seed:seeds.(0) in
  let golden = Fixture.check_outputs fx (List.sort_uniq compare sample) in
  let depth = List.fold_left (fun m (r : Workloads.rep) -> max m r.perf.max_heap) 0 plain in
  let c = Probes.measure ?batches fx ~sample ~depth in
  let n = float_of_int (calls plain) in
  let per_inv f = float_of_int (sum f plain) /. n in
  let node f = float_of_int (sum (fun (r : Workloads.rep) -> f r.node) plain) in
  let store f =
    float_of_int
      (sum
         (fun (r : Workloads.rep) ->
           match r.store with Some s -> f s | None -> 0)
         plain)
  in
  (* Breakdown phase means, weighted by each sub-trace's call count. *)
  let tr = List.filter_map (fun (r : Workloads.rep) -> r.traced) traced in
  let phase_ms pick f =
    let parts = List.filter_map pick tr in
    let w = sumf (fun (m : Obs.Breakdown.phase_means) -> float_of_int m.n) parts in
    if w = 0.0 then 0.0
    else
      1e3
      *. sumf (fun (m : Obs.Breakdown.phase_means) -> float_of_int m.n *. f m) parts
      /. w
  in
  let overall_ms f = phase_ms (fun t -> Some t.Workloads.overall) f in
  let client_ms =
    1e3 *. sumf (fun (r : Workloads.rep) -> Array.fold_left ( +. ) 0.0 r.latencies) plain
    /. n
  in
  let host_cpu = sumf (fun (r : Workloads.rep) -> r.replay_cpu) plain in
  let cold_by_profile p =
    float_of_int (List.fold_left (fun acc t -> acc + t.Workloads.cold_by_profile.(p)) 0 tr)
  in
  let cold = node (fun s -> s.Seuss.Node.cold) and warm = node (fun s -> s.warm) in
  let faults = float_of_int (sum (fun (r : Workloads.rep) -> r.cow_faults + r.zero_fills) plain) in
  let roundtrips =
    float_of_int (sum (fun (r : Workloads.rep) -> r.calls + r.translations) plain)
  in
  let seconds_of =
    [
      ( "sim",
        1e-9 *. c.ns_per_event
        *. float_of_int (sum (fun (r : Workloads.rep) -> r.perf.dispatched) plain) );
      ( "mem",
        1e-9 *. c.ns_per_cow_fault
        *. Float.max 0.0
             (faults -. (cold *. c.faults_per_cold_deploy)
             -. (warm *. c.faults_per_warm_deploy)) );
      ( "interp",
        1e-6
        *. ((n *. c.us_per_run)
           +. List.fold_left
                (fun acc p -> acc +. (cold_by_profile p *. c.us_per_compile.(p)))
                0.0 [ 0; 1; 2 ]) );
      ( "seuss",
        1e-6 *. ((cold *. c.us_per_cold_deploy) +. (warm *. c.us_per_warm_deploy)) );
      ("snapstore", 1e-6 *. c.us_per_insert *. store (fun s -> s.Workloads.inserts));
      ("net", 1e-6 *. c.us_per_roundtrip *. roundtrips);
      ( "obs",
        1e-9 *. c.ns_per_emit *. float_of_int (sum (fun (r : Workloads.rep) -> r.emitted) plain) );
    ]
  in
  let shares =
    List.map (fun (layer, s) -> ("host.share." ^ layer, 100.0 *. s /. host_cpu)) seconds_of
  in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  let all = plain @ traced in
  {
    values =
      [
        ( "workload.max_in_flight",
          float_of_int
            (List.fold_left (fun m (r : Workloads.rep) -> max m r.max_in_flight) 0 plain) );
        ("workload.synth_s", median (List.map (fun (r : Workloads.rep) -> r.synth_cpu) all));
        ("platform.overhead_ms", client_ms -. overall_ms (fun m -> m.total));
        ("seuss.cold", cold);
        ("seuss.warm", warm);
        ("seuss.hot", node (fun s -> s.hot));
        ("seuss.retries", node (fun s -> s.retries));
        ("seuss.errors", node (fun s -> s.errors));
        ("seuss.reclaimed_ucs", node (fun s -> s.reclaimed_ucs));
        ("seuss.captures", node (fun s -> s.snapshots_captured));
        ("seuss.deploy_ms", overall_ms (fun m -> m.deploy));
        ("seuss.import_ms", overall_ms (fun m -> m.import));
        ("seuss.run_ms", overall_ms (fun m -> m.run));
        ("seuss.cold.import_ms", phase_ms (fun t -> t.Workloads.cold) (fun m -> m.import));
        ( "snapstore.hit_rate",
          let hits = store (fun s -> s.hits) in
          let lookups = hits +. store (fun s -> s.misses) in
          if lookups = 0.0 then 0.0 else hits /. lookups );
        ("snapstore.inserts", store (fun s -> s.inserts));
        ("snapstore.evictions", store (fun s -> s.evictions));
        ( "snapstore.dedup_ratio",
          let unique = store (fun s -> s.pages_unique) in
          if unique = 0.0 then 0.0 else store (fun s -> s.pages_inserted) /. unique );
        ( "snapstore.peak_resident_mb",
          List.fold_left
            (fun m (r : Workloads.rep) ->
              match r.store with
              | Some s -> Float.max m (Int64.to_float s.peak_bytes /. 1048576.0)
              | None -> m)
            0.0 plain );
        ("mem.cow_faults_per_inv", per_inv (fun r -> r.cow_faults));
        ("mem.zero_fills_per_inv", per_inv (fun r -> r.zero_fills));
        ("sim.events_per_inv", per_inv (fun r -> r.perf.dispatched));
        ("sim.max_heap", float_of_int depth);
        ("obs.records_per_inv", per_inv (fun r -> r.emitted));
        ("host.words_per_inv", sumf (fun (r : Workloads.rep) -> r.words) plain /. n);
        ("host.major_gcs", float_of_int (sum (fun (r : Workloads.rep) -> r.major_gcs) plain));
        ("sim.ns_per_event", c.ns_per_event);
        ("mem.us_per_pt_clone", c.us_per_pt_clone);
        ("mem.ns_per_cow_fault", c.ns_per_cow_fault);
        ("interp.us_per_compile_small", c.us_per_compile.(0));
        ("interp.us_per_compile_medium", c.us_per_compile.(1));
        ("interp.us_per_compile_large", c.us_per_compile.(2));
        ("interp.us_per_run", c.us_per_run);
        ("seuss.us_per_cold_deploy", c.us_per_cold_deploy);
        ("seuss.us_per_warm_deploy", c.us_per_warm_deploy);
        ("snapstore.us_per_insert", c.us_per_insert);
        ("net.us_per_roundtrip", c.us_per_roundtrip);
        ("net.roundtrips_per_inv", roundtrips /. n);
        ("obs.ns_per_emit", c.ns_per_emit);
      ]
      @ shares
      @ [
          ("host.share.unattributed", 100.0 -. attributed);
          ( "host.trace_overhead_pct",
            100.0 *. (sumf (fun (r : Workloads.rep) -> r.replay_cpu) traced -. host_cpu)
            /. host_cpu );
        ];
    attempted = calls all;
    failed = sum (fun (r : Workloads.rep) -> r.errors) all;
    problems =
      problems_of all
      @ List.concat (List.map2 drift plain traced)
      @ List.map (fun p -> "output check: " ^ p) golden;
  }

(* {1 Output} *)

let revision () =
  (* GIT_DIR pins git to this checkout instead of searching upwards. *)
  if not (Sys.file_exists ".git") then "unavailable"
  else
    try
      let ((out, _, err) as proc) =
        Unix.open_process_args_full "git"
          [| "git"; "rev-parse"; "HEAD" |]
          (Array.append [| "GIT_DIR=.git" |] (Unix.environment ()))
      in
      let line = In_channel.input_line out in
      ignore (In_channel.input_all err);
      match (Unix.close_process_full proc, line) with
      | Unix.WEXITED 0, Some rev -> rev
      | _ -> "unavailable"
    with Unix.Unix_error _ -> "unavailable"

let manifest ~seed ~seeds =
  Printf.sprintf "seed %Ld (sub-traces %s), revision %s, nproc %d, OCaml %s" seed
    (String.concat " " (Array.to_list (Array.map Int64.to_string seeds)))
    (revision ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let report (w : Workloads.t) ~seed ~seeds ~trace r =
  let metrics = if trace then Spec.per_layer else Spec.end_to_end in
  let value (m : Spec.metric) =
    match List.assoc_opt m.name r.values with
    | Some v when Float.is_finite v -> (v, [])
    | Some _ -> (0.0, [ m.name ^ " is not finite" ])
    | None -> (0.0, [ m.name ^ " was not measured" ])
  in
  let rows = List.map (fun m -> (m, value m)) metrics in
  let problems = r.problems @ List.concat_map (fun (_, (_, p)) -> p) rows in
  Printf.printf "seussbench %s (%s)\n%s\n" w.name
    (if trace then "per layer, traced" else "end to end")
    (manifest ~seed ~seeds);
  List.iter
    (fun ((m : Spec.metric), (v, _)) ->
      Printf.printf "  %-30s %14.6f %-9s %-4s %-6s %s\n" m.name v m.unit_
        (Spec.clock_name m.clock) (Spec.better_name m.better)
        (match m.bound with
        | Some b -> Printf.sprintf "bound %g%%" (100.0 *. b)
        | None -> ""))
    rows;
  List.iter (Printf.printf "  FAILED CHECK: %s\n") problems;
  Printf.printf "  %d calls attempted, %d failed, checks %s\n" r.attempted r.failed
    (if problems = [] then "passed" else "FAILED");
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (problems = []));
            ("attempted", Obs.Json.Int r.attempted);
            ("failed", Obs.Json.Int r.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun ((m : Spec.metric), (v, _)) ->
                     ( m.name,
                       Obs.Json.Obj
                         [
                           ("value", Obs.Json.Float v);
                           ("unit", Obs.Json.String m.unit_);
                         ] ))
                   rows) );
          ]));
  problems = []

(* {1 Smoke: both modes of every workload at 1/20 scale} *)

(* One sub-trace at 1/20 of its horizon, so each mode replays it twice
   (a repeat, or an untraced and a traced run) and probes once. *)
let smoke () =
  let scale = 1.0 /. 20.0 and seeds = Workloads.sub_seeds ~count:1 11L in
  List.map
    (fun (w : Workloads.t) ->
      let results =
        [
          end_to_end ~scale w ~seeds ~seconds:0.0;
          per_layer ~scale ~batches:1 w ~seeds;
        ]
      in
      let problems = List.concat_map (fun r -> r.problems) results in
      Printf.printf "%-12s %7d calls  %s\n%!" w.name
        (sum (fun r -> r.attempted) results)
        (if problems = [] then "checks passed"
         else "FAILED: " ^ String.concat "; " problems);
      problems = [])
    Workloads.all
  |> List.for_all Fun.id

let () =
  hermetic ();
  let workload = ref "" and seed = ref 11L and seconds = ref 0.0 in
  let trace = ref 0 and mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some v -> seed := v
            | None -> raise (Arg.Bad ("bad seed " ^ s))),
        "N run seed (default 11)" );
      ("--seconds", Arg.Set_float seconds, "S how long --trace 0 measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " every workload at 1/20 scale");
      ("--spec", Arg.Unit (fun () -> mode := `Spec), " print BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !mode with
  | `Spec -> print_string (Spec.benchmark_json ())
  | `Smoke -> if not (smoke ()) then exit 1
  | `Run -> (
      match Workloads.find !workload with
      | Some w when !trace = 0 || !trace = 1 -> (
          try
            let seeds = Workloads.sub_seeds !seed in
            let r =
              if !trace = 1 then per_layer w ~seeds
              else end_to_end w ~seeds ~seconds:!seconds
            in
            if not (report w ~seed:!seed ~seeds ~trace:(!trace = 1) r) then
              exit 1
          with Workloads.Failed msg ->
            Printf.eprintf "seussbench: %s failed: %s\n" w.name msg;
            exit 1)
      | _ ->
          prerr_endline usage;
          exit 2)
