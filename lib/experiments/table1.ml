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
}

let nop_source = Platform.Workloads.source_of_action Platform.Workloads.nop

let nop_fn i =
  {
    Seuss.Node.fn_id = Printf.sprintf "nop-%d" i;
    runtime = Unikernel.Image.Node;
    source = nop_source;
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
        let fn = nop_fn i in
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
      let timed summary fn expected_path =
        let t0 = Sim.Engine.now engine in
        (match Seuss.Node.invoke node fn ~args:"{}" with
        | Ok _, path when path = expected_path ->
            Stats.Summary.add summary (Sim.Engine.now engine -. t0)
        | Ok _, _ -> failwith "Table1: unexpected invocation path"
        | Error _, _ -> failwith "Table1: invocation failed");
        match Seuss.Node.last_served_uc node with
        | Some uc when Seuss.Uc.status uc = Seuss.Uc.Running ->
            float_of_int (Seuss.Uc.private_pages uc)
        | _ -> 0.0
      in
      for i = 1 to invocations do
        let fn = nop_fn i in
        cold_pages := !cold_pages +. timed cold fn Seuss.Node.Cold;
        (* Hot: the cold invocation left an idle UC. *)
        let before =
          match Seuss.Node.last_served_uc node with
          | Some uc -> float_of_int (Seuss.Uc.private_pages uc)
          | None -> 0.0
        in
        let after = timed hot fn Seuss.Node.Hot in
        hot_pages := !hot_pages +. (after -. before);
        (* Warm: force redeployment from the function snapshot. *)
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id;
        warm_pages := !warm_pages +. timed warm fn Seuss.Node.Warm;
        (* Keep the idle cache from accumulating 475 functions. *)
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id
      done;
      let n = float_of_int invocations in
      {
        invocations;
        base_no_ao_bytes;
        base_ao_bytes;
        fn_no_ao_bytes;
        fn_ao_bytes;
        cold = Stats.Summary.digest cold;
        warm = Stats.Summary.digest warm;
        hot = Stats.Summary.digest hot;
        cold_pages = !cold_pages /. n;
        warm_pages = !warm_pages /. n;
        hot_pages = !hot_pages /. n;
        cold_phases = Obs.Breakdown.per_path bd Obs.Event.Cold;
        warm_phases = Obs.Breakdown.per_path bd Obs.Event.Warm;
        hot_phases = Obs.Breakdown.per_path bd Obs.Event.Hot;
        cold_tails = Obs.Breakdown.tails bd Obs.Event.Cold;
        warm_tails = Obs.Breakdown.tails bd Obs.Event.Warm;
        hot_tails = Obs.Breakdown.tails bd Obs.Event.Hot;
      })

let phase_split = function
  | None -> "n/a"
  | Some (p : Obs.Breakdown.phase_means) ->
      Printf.sprintf "%.2f / %.2f / %.2f / %.2f ms"
        (p.Obs.Breakdown.deploy *. 1e3)
        (p.Obs.Breakdown.import *. 1e3)
        (p.Obs.Breakdown.run *. 1e3)
        (p.Obs.Breakdown.queue *. 1e3)

let tail_split = function
  | None -> "n/a"
  | Some (t : Obs.Breakdown.tails) ->
      Printf.sprintf "%.2f / %.2f / %.2f ms"
        (t.Obs.Breakdown.p50 *. 1e3)
        (t.Obs.Breakdown.p99 *. 1e3)
        (t.Obs.Breakdown.p999 *. 1e3)

let render r =
  let mb_f pages = Report.mb_of_pages (int_of_float pages) in
  Report.comparison ~title:"Table 1: SEUSS microbenchmarks"
    ~note:
      (Printf.sprintf
         "Latency/footprint rows measured over %d NOP invocations per path\n\
          (node-side, shim and control plane excluded, AO enabled).\n\
          Phase splits (deploy / import / run / queue) are per-invocation\n\
          means derived from the node's structured event log.\n"
         r.invocations)
    [
      {
        Report.label = "Node.js driver snapshot (no AO)";
        paper = "109.6 MB";
        measured = Report.mb r.base_no_ao_bytes;
      };
      {
        Report.label = "Node.js driver snapshot (after AO)";
        paper = "114.5 MB";
        measured = Report.mb r.base_ao_bytes;
      };
      {
        Report.label = "NOP function snapshot (no AO)";
        paper = "4.8 MB";
        measured = Report.mb r.fn_no_ao_bytes;
      };
      {
        Report.label = "NOP function snapshot (after AO)";
        paper = "2.0 MB";
        measured = Report.mb r.fn_ao_bytes;
      };
      {
        Report.label = "Cold start latency";
        paper = "7.5 ms";
        measured = Report.ms r.cold.Stats.Summary.mean;
      };
      {
        Report.label = "Warm start latency";
        paper = "3.5 ms";
        measured = Report.ms r.warm.Stats.Summary.mean;
      };
      {
        Report.label = "Hot start latency";
        paper = "0.8 ms";
        measured = Report.ms r.hot.Stats.Summary.mean;
      };
      {
        Report.label = "Cold phase split (deploy/import/run/queue)";
        paper = "(event log)";
        measured = phase_split r.cold_phases;
      };
      {
        Report.label = "Warm phase split (deploy/import/run/queue)";
        paper = "(event log)";
        measured = phase_split r.warm_phases;
      };
      {
        Report.label = "Hot phase split (deploy/import/run/queue)";
        paper = "(event log)";
        measured = phase_split r.hot_phases;
      };
      {
        Report.label = "Cold latency tails (p50/p99/p999)";
        paper = "(event log)";
        measured = tail_split r.cold_tails;
      };
      {
        Report.label = "Warm latency tails (p50/p99/p999)";
        paper = "(event log)";
        measured = tail_split r.warm_tails;
      };
      {
        Report.label = "Hot latency tails (p50/p99/p999)";
        paper = "(event log)";
        measured = tail_split r.hot_tails;
      };
      {
        Report.label = "Cold start footprint (pages copied)";
        paper = "(Table 1)";
        measured = Printf.sprintf "%.0f pages (%s)" r.cold_pages (mb_f r.cold_pages);
      };
      {
        Report.label = "Warm start footprint (pages copied)";
        paper = "(Table 1)";
        measured = Printf.sprintf "%.0f pages (%s)" r.warm_pages (mb_f r.warm_pages);
      };
      {
        Report.label = "Hot start footprint (pages copied)";
        paper = "(Table 1)";
        measured = Printf.sprintf "%.0f pages (%s)" r.hot_pages (mb_f r.hot_pages);
      };
    ]
