type component = {
  comp_name : string;
  inferred_ms : float;
  actual_ms : float;
  savings : string;
}

type result = {
  components : component list;
  max_relative_error : float;
  failed : int;
}

(* The system of equations (see Unikernel.Gconst's interface):
     cold(no AO)   = cold_base + pool + send + compiler + exec
     cold(net AO)  = cold_base + compiler + exec
     cold(full AO) = cold_base
     warm(no AO)   = warm_base + send + exec
     warm(net AO)  = warm_base + exec
     warm(full AO) = warm_base
   which solves by differences. *)
let solve (t2 : Table2.result) =
  let send = t2.Table2.no_ao.Table2.warm_ms -. t2.Table2.network_ao.Table2.warm_ms in
  let exec = t2.Table2.network_ao.Table2.warm_ms -. t2.Table2.full_ao.Table2.warm_ms in
  let pool =
    t2.Table2.no_ao.Table2.cold_ms -. t2.Table2.network_ao.Table2.cold_ms -. send
  in
  let compiler =
    t2.Table2.network_ao.Table2.cold_ms -. t2.Table2.full_ao.Table2.cold_ms -. exec
  in
  (pool, send, compiler, exec)

let run ?(invocations = 20) ?(seed = 41L) () =
  let t2 = Table2.run ~invocations ~seed () in
  let pool, send, compiler, exec = solve t2 in
  let mk name inferred actual savings =
    { comp_name = name; inferred_ms = inferred; actual_ms = actual *. 1e3; savings }
  in
  let components =
    [
      mk "TCP buffer pool" pool Unikernel.Gconst.net_pool_init_time
        "cold only (warmed before the fn snapshot)";
      mk "TCP send path" send Unikernel.Gconst.net_send_init_time
        "cold and warm (first reply is post-capture)";
      mk "compiler tables" compiler Unikernel.Gconst.compiler_init_time
        "cold only (warmed before the fn snapshot)";
      mk "execution caches" exec Unikernel.Gconst.exec_init_time
        "cold and warm (first run is post-capture)";
    ]
  in
  let max_relative_error =
    List.fold_left
      (fun acc c ->
        Float.max acc (Float.abs (c.inferred_ms -. c.actual_ms) /. c.actual_ms))
      0.0 components
  in
  { components; max_relative_error; failed = t2.Table2.failed }

let render r =
  let table =
    Stats.Tablefmt.create
      ~columns:
        [
          ("Warmable component", Stats.Tablefmt.Left);
          ("Inferred", Stats.Tablefmt.Right);
          ("Actual", Stats.Tablefmt.Right);
          ("Priming accelerates", Stats.Tablefmt.Left);
        ]
  in
  List.iter
    (fun c ->
      Stats.Tablefmt.add_row table
        [
          c.comp_name;
          Printf.sprintf "%.1f ms" c.inferred_ms;
          Printf.sprintf "%.1f ms" c.actual_ms;
          c.savings;
        ])
    r.components;
  Printf.sprintf
    "%sBlack-box AO discovery (paper S9, tracing-free variant): first-use\n\
     costs recovered from cold/warm latencies across AO levels, checked\n\
     against the model's ground truth.\n%s\nmax relative error: %.1f%%\n%s"
    (Report.heading "Auto-AO: discovering what to prime")
    (Stats.Tablefmt.render table)
    (r.max_relative_error *. 100.0)
    (Report.failed_calls r.failed)
