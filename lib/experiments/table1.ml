type result = {
  invocations : int;
  base_no_ao_bytes : int64;
  base_ao_bytes : int64;
  fn_no_ao_bytes : int64;
  fn_ao_bytes : int64;
  cold : Stats.Summary.digest;
  warm : Stats.Summary.digest;
  hot : Stats.Summary.digest;
  cold_pages : float;
  warm_pages : float;
  hot_pages : float;
  (* Per-phase latency splits for each path, derived from the node's
     structured event log (not re-timed in the experiment). *)
  cold_phases : Obs.Breakdown.phase_means option;
  warm_phases : Obs.Breakdown.phase_means option;
  hot_phases : Obs.Breakdown.phase_means option;
  (* Total-latency tail percentiles per path, from the same log. *)
  cold_tails : Obs.Breakdown.tails option;
  warm_tails : Obs.Breakdown.tails option;
  hot_tails : Obs.Breakdown.tails option;
  failed : int;
}

(* An armed fault plane can fail a NOP deploy or lose its snapshot
   capture; each retry deploys a fresh function id. *)
let snapshot_attempts = 16

(* Snapshot sizes at one AO level: base snapshot total, NOP function
   snapshot diff. *)
let snapshot_sizes ~seed ao =
  Harness.run_sim ~seed (fun engine ->
      let env =
        Harness.make_seuss_env
          ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 4096))
          engine
      in
      let config = { Seuss.Config.default with Seuss.Config.ao } in
      let node = Harness.seuss_node ~config env in
      let rec fn_snapshot i =
        if i = snapshot_attempts then
          Printf.ksprintf failwith
            "Table1: no NOP function snapshot after %d deploys" i;
        let fn = Harness.nop_fn i in
        match Seuss.Node.invoke node fn ~args:"{}" with
        | Error _, _ -> fn_snapshot (i + 1)
        | Ok _, _ -> (
            match Seuss.Node.function_snapshot node fn.Seuss.Node.fn_id with
            | Some snap -> snap
            | None -> fn_snapshot (i + 1))
      in
      let fn_snap = fn_snapshot 0 in
      let base =
        Option.get (Seuss.Node.base_snapshot node Unikernel.Image.Node)
      in
      (Seuss.Snapshot.total_bytes base, Seuss.Snapshot.diff_bytes fn_snap))

let run ?(invocations = 475) ?(seed = 7L) () =
  let base_no_ao_bytes, fn_no_ao_bytes =
    snapshot_sizes ~seed Seuss.Config.Ao_none
  in
  let base_ao_bytes, fn_ao_bytes = snapshot_sizes ~seed Seuss.Config.Ao_full in
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let bd = Obs.Breakdown.attach env.Seuss.Osenv.log in
      let node = Harness.seuss_node env in
      let cold = Stats.Summary.create ()
      and warm = Stats.Summary.create ()
      and hot = Stats.Summary.create () in
      let cold_pages = ref 0.0
      and warm_pages = ref 0.0
      and hot_pages = ref 0.0 in
      let failed = ref 0 in
      (* Time one call; one served on [path] adds the pages private to
         its UC, less [before], to [pages]. *)
      let timed ?(before = 0.0) latency pages fn path =
        match
          Harness.invoke engine ~failed ~latency ~expect:[ path ] (fun () ->
              Seuss.Node.invoke node fn ~args:"{}")
        with
        | Harness.Served _ ->
            let after =
              match Seuss.Node.last_served_uc node with
              | Some uc when Seuss.Uc.status uc = Seuss.Uc.Running ->
                  float_of_int (Seuss.Uc.private_pages uc)
              | _ -> 0.0
            in
            pages := !pages +. (after -. before)
        | Harness.Off_path _ | Harness.Failed _ -> ()
      in
      for i = 1 to invocations do
        let fn = Harness.nop_fn i in
        timed cold cold_pages fn Seuss.Node.Cold;
        (* Hot: the cold invocation left an idle UC. *)
        let before =
          match Seuss.Node.last_served_uc node with
          | Some uc -> float_of_int (Seuss.Uc.private_pages uc)
          | None -> 0.0
        in
        timed ~before hot hot_pages fn Seuss.Node.Hot;
        (* Warm: force redeployment from the function snapshot. *)
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id;
        timed warm warm_pages fn Seuss.Node.Warm;
        (* Keep the idle cache from accumulating 475 functions. *)
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id
      done;
      (* Footprints are means over the calls each path served. *)
      let per_served total summary =
        match Stats.Summary.count summary with
        | 0 -> 0.0
        | n -> !total /. float_of_int n
      in
      {
        invocations;
        base_no_ao_bytes;
        base_ao_bytes;
        fn_no_ao_bytes;
        fn_ao_bytes;
        cold = Stats.Summary.digest cold;
        warm = Stats.Summary.digest warm;
        hot = Stats.Summary.digest hot;
        cold_pages = per_served cold_pages cold;
        warm_pages = per_served warm_pages warm;
        hot_pages = per_served hot_pages hot;
        cold_phases = Obs.Breakdown.per_path bd Obs.Event.Cold;
        warm_phases = Obs.Breakdown.per_path bd Obs.Event.Warm;
        hot_phases = Obs.Breakdown.per_path bd Obs.Event.Hot;
        cold_tails = Obs.Breakdown.tails bd Obs.Event.Cold;
        warm_tails = Obs.Breakdown.tails bd Obs.Event.Warm;
        hot_tails = Obs.Breakdown.tails bd Obs.Event.Hot;
        failed = !failed;
      })

let phase_split = function
  | None -> Report.Text "n/a"
  | Some (p : Obs.Breakdown.phase_means) ->
      Report.Text
        (Printf.sprintf "%.2f / %.2f / %.2f / %.2f ms"
           (p.Obs.Breakdown.deploy *. 1e3)
           (p.Obs.Breakdown.import *. 1e3)
           (p.Obs.Breakdown.run *. 1e3)
           (p.Obs.Breakdown.queue *. 1e3))

let tail_split = function
  | None -> Report.Text "n/a"
  | Some (t : Obs.Breakdown.tails) ->
      Report.Text
        (Printf.sprintf "%.2f / %.2f / %.2f ms"
           (t.Obs.Breakdown.p50 *. 1e3)
           (t.Obs.Breakdown.p99 *. 1e3)
           (t.Obs.Breakdown.p999 *. 1e3))

let footprint pages =
  Report.Text
    (Printf.sprintf "%.0f pages (%.1f MB)" pages
       (Int64.to_float (Mem.Mconfig.bytes_of_pages (int_of_float pages))
       /. 1048576.0))

let report r =
  let open Report in
  let log = Text "(event log)" and table1 = Text "(Table 1)" in
  {
    title = "Table 1: SEUSS microbenchmarks";
    sections =
      [
        params [ ("figure", Text "table1"); ("invocations", Int r.invocations) ];
        text
          (Printf.sprintf
             "Latency/footprint rows measured over %d NOP invocations per path\n\
              (node-side, shim and control plane excluded, AO enabled).\n\
              Phase splits (deploy / import / run / queue) are per-invocation\n\
              means derived from the node's structured event log.\n\n"
             r.invocations);
        comparison
          [
            ("Node.js driver snapshot (no AO)", f ~unit:"MB" 1 109.6, mb r.base_no_ao_bytes);
            ("Node.js driver snapshot (after AO)", f ~unit:"MB" 1 114.5, mb r.base_ao_bytes);
            ("NOP function snapshot (no AO)", f ~unit:"MB" 1 4.8, mb r.fn_no_ao_bytes);
            ("NOP function snapshot (after AO)", f ~unit:"MB" 1 2.0, mb r.fn_ao_bytes);
            ("Cold start latency", f ~unit:"ms" 1 7.5, ms r.cold.Stats.Summary.mean);
            ("Warm start latency", f ~unit:"ms" 1 3.5, ms r.warm.Stats.Summary.mean);
            ("Hot start latency", f ~unit:"ms" 1 0.8, ms r.hot.Stats.Summary.mean);
            ("Cold phase split (deploy/import/run/queue)", log, phase_split r.cold_phases);
            ("Warm phase split (deploy/import/run/queue)", log, phase_split r.warm_phases);
            ("Hot phase split (deploy/import/run/queue)", log, phase_split r.hot_phases);
            ("Cold latency tails (p50/p99/p999)", log, tail_split r.cold_tails);
            ("Warm latency tails (p50/p99/p999)", log, tail_split r.warm_tails);
            ("Hot latency tails (p50/p99/p999)", log, tail_split r.hot_tails);
            ("Cold start footprint (pages copied)", table1, footprint r.cold_pages);
            ("Warm start footprint (pages copied)", table1, footprint r.warm_pages);
            ("Hot start footprint (pages copied)", table1, footprint r.hot_pages);
          ];
        failed_calls r.failed;
      ];
  }
