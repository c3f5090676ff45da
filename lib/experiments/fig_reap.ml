(* fig_reap (extension): REAP-style working-set prefault on the warm
   path (Ustiugov et al., ASPLOS '21, applied to SEUSS snapshot deploys).

   Two arms run the same workload on a fresh node from the same seed:
   prefault off (every warm deploy demand-faults its pages one trap at a
   time) and prefault on (the first warm invocation per function records
   its faulted vpns; every later deploy batch-installs them). The idle-UC
   cache is disabled so every repeat takes the warm path. Per arm the
   figure reports warm latency, demand-fault counts, prefault batch
   sizes, and the per-invocation fault-handling core time; the headline
   number is the on-vs-off reduction of that fault-handling time. The
   first warm round (the recording round) is excluded from measurement
   in both arms so the arms stay comparable. *)

type arm = {
  prefault : bool;
  warm_invocations : int;
  mean_ms : float;
  p99_ms : float;
  p999_ms : float;
  cow_faults : int;
  zero_fills : int;
  prefault_batches : int;
  prefault_pages : int;
  prefault_cow : int;
  prefault_zero : int;
  fault_us : float;
      (* per-warm-invocation fault-handling core time, microseconds:
         demand faults at full (trap-inclusive) cost plus the batched
         prefault charge *)
  failed : int;  (* calls not served on their path (Harness.invoke) *)
}

type result = {
  functions : int;
  rounds : int;
  seed : int64;
  off : arm;
  on_ : arm;
  reduction_pct : float;
}

let reap_fn k =
  {
    Seuss.Node.fn_id = Printf.sprintf "reap-%d" k;
    runtime = Unikernel.Image.Node;
    source = Printf.sprintf "function main(args) { return {fn: %d}; }" k;
  }

let run_arm ~functions ~rounds ~seed ~prefault =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let config =
        {
          Seuss.Config.default with
          prefault_working_set = prefault;
          (* every repeat must redeploy from the function snapshot *)
          cache_idle_ucs = false;
        }
      in
      let node = Seuss.Node.create ~config env in
      Harness.arm_census node;
      Seuss.Node.start node;
      let fns = List.init functions reap_fn in
      let failed = ref 0 in
      let round ?latency path =
        List.iter
          (fun fn ->
            ignore
              (Harness.invoke engine ~failed ?latency ~expect:[ path ]
                 (fun () -> Seuss.Node.invoke node fn ~args:"{}")))
          fns
      in
      (* Cold round: build the function snapshots. *)
      round Seuss.Node.Cold;
      (* Recording round (a plain warm round when prefault is off). *)
      round Seuss.Node.Warm;
      (* Measured rounds: snapshot the fault counters and collect the
         prefault batches emitted from here on. *)
      let m = env.Seuss.Osenv.metrics in
      let cow0 = Obs.Metrics.sum_counters m "mem_cow_faults_total"
      and zero0 = Obs.Metrics.sum_counters m "mem_zero_fills_total" in
      let batches = ref 0
      and p_pages = ref 0
      and p_cow = ref 0
      and p_zero = ref 0 in
      Obs.Log.subscribe env.Seuss.Osenv.log (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Ws_prefault { pages; cow_copied; zero_filled; _ } ->
              incr batches;
              p_pages := !p_pages + pages;
              p_cow := !p_cow + cow_copied;
              p_zero := !p_zero + zero_filled
          | _ -> ());
      let lat = Stats.Summary.create () in
      for _round = 1 to rounds do
        round ~latency:lat Seuss.Node.Warm
      done;
      let cow = Obs.Metrics.sum_counters m "mem_cow_faults_total" - cow0
      and zero = Obs.Metrics.sum_counters m "mem_zero_fills_total" - zero0 in
      let warm = Stats.Summary.count lat in
      let demand_time =
        (float_of_int cow *. Mem.Mconfig.page_copy_time)
        +. (float_of_int zero *. Mem.Mconfig.zero_fill_time)
      and prefault_time =
        (float_of_int !batches *. Seuss.Cost.prefault_fixed)
        +. (float_of_int !p_cow *. Seuss.Cost.prefault_cow_per_page)
        +. (float_of_int !p_zero *. Seuss.Cost.prefault_zero_per_page)
      in
      {
        prefault;
        warm_invocations = warm;
        mean_ms = Stats.Summary.mean lat *. 1e3;
        p99_ms = Stats.Summary.percentile lat 99.0 *. 1e3;
        p999_ms = Stats.Summary.percentile lat 99.9 *. 1e3;
        cow_faults = cow;
        zero_fills = zero;
        prefault_batches = !batches;
        prefault_pages = !p_pages;
        prefault_cow = !p_cow;
        prefault_zero = !p_zero;
        fault_us =
          (if warm = 0 then 0.0
           else (demand_time +. prefault_time) /. float_of_int warm *. 1e6);
        failed = !failed;
      })

let run ?(functions = 8) ?(rounds = 20) ?(seed = 7L) () =
  if functions < 1 then invalid_arg "Fig_reap.run: need at least one function";
  if rounds < 1 then invalid_arg "Fig_reap.run: need at least one round";
  let off = run_arm ~functions ~rounds ~seed ~prefault:false in
  let on_ = run_arm ~functions ~rounds ~seed ~prefault:true in
  let reduction_pct =
    if off.fault_us <= 0.0 then 0.0
    else (off.fault_us -. on_.fault_us) /. off.fault_us *. 100.0
  in
  { functions; rounds; seed; off; on_; reduction_pct }

let arm_to_json a =
  Obs.Json.Obj
    ([
      ("prefault", Obs.Json.Bool a.prefault);
      ("warm_invocations", Obs.Json.Int a.warm_invocations);
      ("mean_ms", Obs.Json.Float a.mean_ms);
      ("p99_ms", Obs.Json.Float a.p99_ms);
      ("p999_ms", Obs.Json.Float a.p999_ms);
      ("cow_faults", Obs.Json.Int a.cow_faults);
      ("zero_fills", Obs.Json.Int a.zero_fills);
      ("prefault_batches", Obs.Json.Int a.prefault_batches);
      ("prefault_pages", Obs.Json.Int a.prefault_pages);
      ("prefault_cow", Obs.Json.Int a.prefault_cow);
      ("prefault_zero", Obs.Json.Int a.prefault_zero);
      ("fault_us", Obs.Json.Float a.fault_us);
    ]
    @ if a.failed = 0 then [] else [ ("failed", Obs.Json.Int a.failed) ])

let to_json r =
  Obs.Json.Obj
    [
      ("figure", Obs.Json.String "reap");
      ("functions", Obs.Json.Int r.functions);
      ("rounds", Obs.Json.Int r.rounds);
      ("seed", Obs.Json.String (Int64.to_string r.seed));
      ("off", arm_to_json r.off);
      ("on", arm_to_json r.on_);
      ("reduction_pct", Obs.Json.Float r.reduction_pct);
    ]

let render r =
  let table =
    Stats.Tablefmt.create
      ~columns:
        [
          ("prefault", Stats.Tablefmt.Left);
          ("warm", Stats.Tablefmt.Right);
          ("mean ms", Stats.Tablefmt.Right);
          ("p99 ms", Stats.Tablefmt.Right);
          ("p999 ms", Stats.Tablefmt.Right);
          ("cow", Stats.Tablefmt.Right);
          ("zero", Stats.Tablefmt.Right);
          ("batched pages", Stats.Tablefmt.Right);
          ("fault us/inv", Stats.Tablefmt.Right);
        ]
  in
  List.iter
    (fun a ->
      Stats.Tablefmt.add_row table
        [
          (if a.prefault then "on" else "off");
          string_of_int a.warm_invocations;
          Printf.sprintf "%.3f" a.mean_ms;
          Printf.sprintf "%.3f" a.p99_ms;
          Printf.sprintf "%.3f" a.p999_ms;
          string_of_int a.cow_faults;
          string_of_int a.zero_fills;
          string_of_int a.prefault_pages;
          Printf.sprintf "%.1f" a.fault_us;
        ])
    [ r.off; r.on_ ];
  Printf.sprintf
    "%s%d functions x %d measured warm rounds per arm (idle-UC cache off; \
     seed %Ld)\nfault-handling time per warm invocation: %.1f us -> %.1f us \
     (%.1f%% reduction)\n\n%s"
    (Report.heading "fig_reap: warm-path working-set prefault (REAP)")
    r.functions r.rounds r.seed r.off.fault_us r.on_.fault_us r.reduction_pct
    (Stats.Tablefmt.render table)
  ^ Report.failed_calls (r.off.failed + r.on_.failed)

let write_csv ~path r =
  Report.write_csv ~path
    ~header:
      [
        "prefault"; "warm_invocations"; "mean_ms"; "p99_ms"; "p999_ms"; "cow_faults";
        "zero_fills"; "prefault_batches"; "prefault_pages"; "prefault_cow";
        "prefault_zero"; "fault_us";
      ]
    (List.map
       (fun a ->
         [
           (if a.prefault then "on" else "off");
           string_of_int a.warm_invocations;
           Printf.sprintf "%.6f" a.mean_ms;
           Printf.sprintf "%.6f" a.p99_ms;
           Printf.sprintf "%.6f" a.p999_ms;
           string_of_int a.cow_faults;
           string_of_int a.zero_fills;
           string_of_int a.prefault_batches;
           string_of_int a.prefault_pages;
           string_of_int a.prefault_cow;
           string_of_int a.prefault_zero;
           Printf.sprintf "%.6f" a.fault_us;
         ])
       [ r.off; r.on_ ])
