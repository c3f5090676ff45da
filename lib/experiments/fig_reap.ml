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
  failed : int;
}

type result = {
  functions : int;
  rounds : int;
  seed : int64;
  off : arm;
  on_ : arm;
  reduction_pct : float;
}

(* Fault counts and prefault batches of the measured calls: demand COW
   copies and zero fills, then the batches' count, pages and how many of
   those were copied or zero-filled. *)
type tally = {
  mutable cow : int;
  mutable zero : int;
  mutable batches : int;
  mutable pages : int;
  mutable p_cow : int;
  mutable p_zero : int;
}

let tally () = { cow = 0; zero = 0; batches = 0; pages = 0; p_cow = 0; p_zero = 0 }

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
      Seuss.Node.start node;
      let fns = List.init functions reap_fn in
      let failed = ref 0 in
      let round ?latency ?(start = ignore) ?(served = ignore) path =
        List.iter
          (fun fn ->
            start ();
            match
              Harness.invoke engine ~failed ?latency ~expect:[ path ]
                (fun () -> Seuss.Node.invoke node fn ~args:"{}")
            with
            | Harness.Served _ -> served ()
            | Harness.Off_path _ | Harness.Failed _ -> ())
          fns
      in
      (* Cold round: build the function snapshots. *)
      round Seuss.Node.Cold;
      (* Recording round (a plain warm round when prefault is off). *)
      round Seuss.Node.Warm;
      (* Measured rounds: [call] holds the fault counters at the start of
         the call in flight and the prefault batches emitted since; they
         are added to [total] only when the call is served, so [fault_us]
         divides the faults of exactly the calls it counts. *)
      let m = env.Seuss.Osenv.metrics in
      let cow_now () = Obs.Metrics.sum_counters m "mem_cow_faults_total"
      and zero_now () = Obs.Metrics.sum_counters m "mem_zero_fills_total" in
      let total = tally () and call = tally () in
      Obs.Log.subscribe env.Seuss.Osenv.log (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Ws_prefault { pages; cow_copied; zero_filled; _ } ->
              call.batches <- call.batches + 1;
              call.pages <- call.pages + pages;
              call.p_cow <- call.p_cow + cow_copied;
              call.p_zero <- call.p_zero + zero_filled
          | _ -> ());
      let start () =
        call.cow <- cow_now ();
        call.zero <- zero_now ();
        call.batches <- 0;
        call.pages <- 0;
        call.p_cow <- 0;
        call.p_zero <- 0
      and served () =
        total.cow <- total.cow + cow_now () - call.cow;
        total.zero <- total.zero + zero_now () - call.zero;
        total.batches <- total.batches + call.batches;
        total.pages <- total.pages + call.pages;
        total.p_cow <- total.p_cow + call.p_cow;
        total.p_zero <- total.p_zero + call.p_zero
      in
      let lat = Stats.Summary.create () in
      for _round = 1 to rounds do
        round ~latency:lat ~start ~served Seuss.Node.Warm
      done;
      let warm = Stats.Summary.count lat in
      let demand_time =
        (float_of_int total.cow *. Mem.Mconfig.page_copy_time)
        +. (float_of_int total.zero *. Mem.Mconfig.zero_fill_time)
      and prefault_time =
        (float_of_int total.batches *. Seuss.Cost.prefault_fixed)
        +. (float_of_int total.p_cow *. Seuss.Cost.prefault_cow_per_page)
        +. (float_of_int total.p_zero *. Seuss.Cost.prefault_zero_per_page)
      in
      {
        prefault;
        warm_invocations = warm;
        mean_ms = Stats.Summary.mean lat *. 1e3;
        p99_ms = Stats.Summary.percentile lat 99.0 *. 1e3;
        p999_ms = Stats.Summary.percentile lat 99.9 *. 1e3;
        cow_faults = total.cow;
        zero_fills = total.zero;
        prefault_batches = total.batches;
        prefault_pages = total.pages;
        prefault_cow = total.p_cow;
        prefault_zero = total.p_zero;
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

let report r =
  let open Report in
  let count ?head key sel = col ?head key (fun a -> Int (sel a)) in
  let ms3 head key sel = col ~head key (fun a -> f 3 (sel a)) in
  {
    title = "fig_reap: warm-path working-set prefault (REAP)";
    sections =
      [
        params
          [
            ("figure", Text "reap");
            ("functions", Int r.functions);
            ("rounds", Int r.rounds);
            ("seed", Int64 r.seed);
          ];
        text
          (Printf.sprintf
             "%d functions x %d measured warm rounds per arm (idle-UC cache \
              off; seed %Ld)\n\
              fault-handling time per warm invocation: %.1f us -> %.1f us \
              (%.1f%% reduction)\n\n"
             r.functions r.rounds r.seed r.off.fault_us r.on_.fault_us
             r.reduction_pct);
        named
          [
            (* on/off in text and CSV, a bool in JSON *)
            col ~head:"prefault" ~align:Left ~json:false "prefault" (fun a ->
                Text (if a.prefault then "on" else "off"));
            col ~csv:false "prefault" (fun a -> Bool a.prefault);
            count ~head:"warm" "warm_invocations" (fun a -> a.warm_invocations);
            ms3 "mean ms" "mean_ms" (fun a -> a.mean_ms);
            ms3 "p99 ms" "p99_ms" (fun a -> a.p99_ms);
            ms3 "p999 ms" "p999_ms" (fun a -> a.p999_ms);
            count ~head:"cow" "cow_faults" (fun a -> a.cow_faults);
            count ~head:"zero" "zero_fills" (fun a -> a.zero_fills);
            count "prefault_batches" (fun a -> a.prefault_batches);
            count ~head:"batched pages" "prefault_pages" (fun a -> a.prefault_pages);
            count "prefault_cow" (fun a -> a.prefault_cow);
            count "prefault_zero" (fun a -> a.prefault_zero);
            col ~head:"fault us/inv" "fault_us" (fun a -> f 1 a.fault_us);
            (* JSON only, and only when nonzero, so a fault-free report is
               unchanged *)
            col ~csv:false "failed" (fun a ->
                if a.failed = 0 then Absent else Int a.failed);
          ]
          [ ("off", r.off); ("on", r.on_) ];
        params [ ("reduction_pct", f 1 r.reduction_pct) ];
        failed_calls (r.off.failed + r.on_.failed);
      ];
  }
