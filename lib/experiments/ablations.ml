type result = {
  warm_with_stacks_ms : float;
  miss_without_stacks_ms : float;
  hot_with_cache_ms : float;
  repeat_without_cache_ms : float;
  hot_direct_ms : float;
  hot_via_shim_ms : float;
  general_boot_s : float;
  specialized_boot_s : float;
  general_base_mb : float;
  specialized_base_mb : float;
  general_cold_ms : float;
  specialized_cold_ms : float;
  failed : int;
}

let budget = Int64.of_int (Mem.Mconfig.mib 8192)

(* Every measurement below counts its calls not served on their path
   into [failed] and reports its value over the served ones. *)

(* Mean latency of the *second* invocation of each function with the
   idle cache disabled (isolates hot-cache value) or with function
   snapshots disabled (isolates snapshot-stack value). *)
let repeat_latency ~failed ~seed ~invocations config =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env ~budget_bytes:budget engine in
      let node = Harness.seuss_node ~config env in
      let repeat_path =
        if config.Seuss.Config.cache_function_snapshots then Seuss.Node.Warm
        else Seuss.Node.Cold
      in
      let s = Stats.Summary.create () in
      for i = 1 to invocations do
        let fn = Harness.nop_fn i in
        let call () = Seuss.Node.invoke node fn ~args:"{}" in
        ignore (Harness.invoke engine ~failed ~expect:[ Seuss.Node.Cold ] call);
        if config.Seuss.Config.cache_idle_ucs then
          Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id;
        ignore
          (Harness.invoke engine ~failed ~latency:s ~expect:[ repeat_path ]
             call);
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id
      done;
      Stats.Summary.mean s *. 1e3)

(* Hot latency with the idle cache on: invoke twice, time the second. *)
let hot_latency ~failed ~seed ~invocations ~via_shim =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env ~budget_bytes:budget engine in
      let node = Harness.seuss_node env in
      let shim = Seuss.Shim.create env node in
      let s = Stats.Summary.create () in
      for i = 1 to invocations do
        let fn = Harness.nop_fn i in
        let call () =
          if via_shim then Seuss.Shim.invoke shim fn ~args:"{}"
          else Seuss.Node.invoke node fn ~args:"{}"
        in
        ignore (Harness.invoke engine ~failed ~expect:[ Seuss.Node.Cold ] call);
        ignore
          (Harness.invoke engine ~failed ~latency:s ~expect:[ Seuss.Node.Hot ]
             call);
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id
      done;
      Stats.Summary.mean s *. 1e3)

(* Boot-to-ready time, base snapshot size, and a cold start for one
   image choice. *)
let image_profile ~failed ~seed image =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env ~budget_bytes:budget engine in
      let config =
        { Seuss.Config.default with Seuss.Config.runtimes = [ image ] }
      in
      let t0 = Sim.Engine.now engine in
      let node = Harness.seuss_node ~config env in
      let boot = Sim.Engine.now engine -. t0 in
      let base =
        Option.get
          (Seuss.Node.base_snapshot node image.Unikernel.Image.runtime)
      in
      let base_mb =
        Int64.to_float (Seuss.Snapshot.total_bytes base) /. 1048576.0
      in
      let cold = Stats.Summary.create () in
      ignore
        (Harness.invoke engine ~failed ~latency:cold
           ~expect:[ Seuss.Node.Cold ] (fun () ->
             Seuss.Node.invoke node (Harness.nop_fn 0) ~args:"{}"));
      (boot, base_mb, Stats.Summary.mean cold *. 1e3))

let run ?(invocations = 30) ?(seed = 17L) () =
  let default = Seuss.Config.default in
  let failed = ref 0 in
  let repeat = repeat_latency ~failed ~seed ~invocations in
  let warm_with_stacks_ms =
    repeat { default with Seuss.Config.cache_idle_ucs = true }
  in
  let miss_without_stacks_ms =
    repeat
      {
        default with
        Seuss.Config.cache_function_snapshots = false;
        cache_idle_ucs = false;
      }
  in
  let repeat_without_cache_ms =
    repeat { default with Seuss.Config.cache_idle_ucs = false }
  in
  let hot_latency = hot_latency ~failed ~seed ~invocations in
  let hot_with_cache_ms = hot_latency ~via_shim:false in
  let hot_via_shim_ms = hot_latency ~via_shim:true in
  let general_boot_s, general_base_mb, general_cold_ms =
    image_profile ~failed ~seed Unikernel.Image.node
  in
  let specialized_boot_s, specialized_base_mb, specialized_cold_ms =
    image_profile ~failed ~seed Unikernel.Image.specialized_node
  in
  {
    warm_with_stacks_ms;
    miss_without_stacks_ms;
    hot_with_cache_ms;
    repeat_without_cache_ms;
    hot_direct_ms = hot_with_cache_ms;
    hot_via_shim_ms;
    general_boot_s;
    specialized_boot_s;
    general_base_mb;
    specialized_base_mb;
    general_cold_ms;
    specialized_cold_ms;
    failed = !failed;
  }

let report r =
  let open Report in
  let msec v = f ~unit:"ms" 1 v and sec v = f ~unit:"s" 2 v in
  let megs v = f ~unit:"MB" 1 v and none = Absent in
  {
    title = "Ablations: what each mechanism buys";
    sections =
      [
        params [ ("figure", Text "ablations") ];
        text
          "Second invocation of a function under selectively disabled\n\
           mechanisms (node-side unless noted).\n\n";
        comparison
          [
            ("repeat miss, snapshot stacks ON (warm)", msec 3.5, msec r.warm_with_stacks_ms);
            ("repeat miss, snapshot stacks OFF (re-cold)", none, msec r.miss_without_stacks_ms);
            ("repeat, idle-UC cache ON (hot)", msec 0.8, msec r.hot_with_cache_ms);
            ("repeat, idle-UC cache OFF (warm)", none, msec r.repeat_without_cache_ms);
            ("hot invocation, node-direct", none, msec r.hot_direct_ms);
            ( "hot invocation, through the shim",
              Text "+~8 ms vs direct",
              msec r.hot_via_shim_ms );
            ( "node boot, general-purpose unikernel",
              Text "(seconds; once per node)",
              sec r.general_boot_s );
            ("node boot, specialized unikernel", none, sec r.specialized_boot_s);
            ("base snapshot, general-purpose", megs 109.6, megs r.general_base_mb);
            ("base snapshot, specialized", none, megs r.specialized_base_mb);
            ("cold start, general-purpose", msec 7.5, msec r.general_cold_ms);
            ( "cold start, specialized (same snapshots)",
              Text "~= general",
              msec r.specialized_cold_ms );
          ];
        failed_calls r.failed;
      ];
  }
