type cell = { cold_ms : float; warm_ms : float }

type result = {
  no_ao : cell;
  network_ao : cell;
  full_ao : cell;
  failed : int;
}

(* One cell; calls not served on their path count into [failed]. *)
let measure ~failed ~seed ~invocations ao =
  Harness.run_sim ~seed (fun engine ->
      let env =
        Harness.make_seuss_env
          ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 8192))
          engine
      in
      let config = { Seuss.Config.default with Seuss.Config.ao } in
      let node = Harness.seuss_node ~config env in
      let cold = Stats.Summary.create () and warm = Stats.Summary.create () in
      for i = 1 to invocations do
        let fn = Harness.nop_fn i in
        let timed latency path =
          ignore
            (Harness.invoke engine ~failed ~latency ~expect:[ path ] (fun () ->
                 Seuss.Node.invoke node fn ~args:"{}"))
        in
        timed cold Seuss.Node.Cold;
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id;
        timed warm Seuss.Node.Warm;
        Seuss.Node.drop_idle node ~fn_id:fn.Seuss.Node.fn_id
      done;
      {
        cold_ms = Stats.Summary.mean cold *. 1e3;
        warm_ms = Stats.Summary.mean warm *. 1e3;
      })

let run ?(invocations = 50) ?(seed = 7L) () =
  let failed = ref 0 in
  let measure = measure ~failed ~seed ~invocations in
  let no_ao = measure Seuss.Config.Ao_none in
  let network_ao = measure Seuss.Config.Ao_network in
  let full_ao = measure Seuss.Config.Ao_full in
  { no_ao; network_ao; full_ao; failed = !failed }

let report r =
  let open Report in
  let msec v = f ~unit:"ms" 1 v in
  {
    title = "Table 2: latency across AO levels";
    sections =
      [
        params [ ("figure", Text "table2") ];
        comparison
          [
            ("Cold start, no AO", msec 42.0, msec r.no_ao.cold_ms);
            ("Cold start, network AO", msec 16.8, msec r.network_ao.cold_ms);
            ("Cold start, network+interp AO", msec 7.5, msec r.full_ao.cold_ms);
            ("Warm start, no AO", msec 7.6, msec r.no_ao.warm_ms);
            ("Warm start, network AO", msec 5.5, msec r.network_ao.warm_ms);
            ("Warm start, network+interp AO", msec 3.5, msec r.full_ao.warm_ms);
          ];
        failed_calls r.failed;
      ];
  }
