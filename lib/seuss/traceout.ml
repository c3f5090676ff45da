let us t = t *. 1e6

let span_events ~pid spans =
  List.map
    (fun (s : Sim.Trace.span) ->
      let args =
        ("span_id", Obs.Json.Int s.Sim.Trace.id)
        ::
        (match s.Sim.Trace.parent with
        | Some p -> [ ("parent_id", Obs.Json.Int p) ]
        | None -> [])
      in
      if s.Sim.Trace.t_end > s.Sim.Trace.t_start then
        Obs.Chrome.Complete
          {
            name = s.Sim.Trace.name;
            cat = "sim";
            ts_us = us s.Sim.Trace.t_start;
            dur_us = us (s.Sim.Trace.t_end -. s.Sim.Trace.t_start);
            pid;
            tid = s.Sim.Trace.pid;
            args;
          }
      else
        Obs.Chrome.Instant
          {
            name = s.Sim.Trace.name;
            cat = "sim";
            ts_us = us s.Sim.Trace.t_start;
            pid;
            tid = s.Sim.Trace.pid;
            args;
          })
    spans

let tids spans =
  List.sort_uniq compare (List.map (fun (s : Sim.Trace.span) -> s.Sim.Trace.pid) spans)

let chrome traces =
  let events =
    List.concat
      (List.mapi
         (fun i (label, spans) ->
           (Obs.Chrome.Process_name { pid = i; name = label }
           :: List.map
                (fun tid ->
                  Obs.Chrome.Thread_name
                    { pid = i; tid; name = Printf.sprintf "sim pid %d" tid })
                (tids spans))
           @ span_events ~pid:i spans)
         traces)
  in
  Obs.Chrome.trace events

let chrome_string traces = Obs.Json.to_string (chrome traces)
