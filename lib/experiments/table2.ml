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

let render r =
  let f = Printf.sprintf "%.1f ms" in
  Report.comparison ~title:"Table 2: latency across AO levels" ~note:""
    [
      { Report.label = "Cold start, no AO"; paper = "42.0 ms"; measured = f r.no_ao.cold_ms };
      { Report.label = "Cold start, network AO"; paper = "16.8 ms"; measured = f r.network_ao.cold_ms };
      { Report.label = "Cold start, network+interp AO"; paper = "7.5 ms"; measured = f r.full_ao.cold_ms };
      { Report.label = "Warm start, no AO"; paper = "7.6 ms"; measured = f r.no_ao.warm_ms };
      { Report.label = "Warm start, network AO"; paper = "5.5 ms"; measured = f r.network_ao.warm_ms };
      { Report.label = "Warm start, network+interp AO"; paper = "3.5 ms"; measured = f r.full_ao.warm_ms };
    ]
  ^ Report.failed_calls r.failed
