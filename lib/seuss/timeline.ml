let default_period = 0.1

let start ?(period = default_period) node =
  if not (Float.is_finite period) || period <= 0.0 then
    invalid_arg "Timeline.start: period must be finite and positive";
  let env = Node.env node in
  let engine = env.Osenv.engine in
  Sim.Engine.spawn engine ~name:"timeline-sampler" ~daemon:true (fun () ->
      (* Terminate with the simulation: [pending] counts everyone
         else's scheduled work, so when it reaches zero nothing the
         sampler could observe will ever change again — sleeping on
         would only stretch the run's end time. Emission itself costs
         no simulated time and draws nothing from the PRNG. *)
      let rec loop () =
        if Sim.Engine.pending engine > 0 then begin
          Sim.Engine.sleep period;
          Osenv.emit env
            (Obs.Event.Timeline_sample
               {
                 run_queue = Sim.Engine.pending engine;
                 in_flight = Node.in_flight node;
                 free_bytes = Node.free_bytes node;
                 idle_ucs = Node.idle_uc_count node;
                 cached_snapshots = Node.snapshot_count node;
                 stuck_waiters = Sim.Engine.stuck_waiters engine;
               });
          loop ()
        end
      in
      loop ())

type sample = {
  time : float;
  run_queue : int;
  in_flight : int;
  free_bytes : int64;
  idle_ucs : int;
  cached_snapshots : int;
  stuck_waiters : int;
}

let samples_of_records records =
  List.filter_map
    (fun (r : Obs.Log.record) ->
      match r.Obs.Log.ev with
      | Obs.Event.Timeline_sample
          {
            run_queue;
            in_flight;
            free_bytes;
            idle_ucs;
            cached_snapshots;
            stuck_waiters;
          } ->
          Some
            {
              time = r.Obs.Log.time;
              run_queue;
              in_flight;
              free_bytes;
              idle_ucs;
              cached_snapshots;
              stuck_waiters;
            }
      | _ -> None)
    records

let render samples =
  match samples with
  | [] -> "(no timeline samples — arm the sampler with SEUSS_TIMELINE=1)\n"
  | _ ->
      let series sel = List.map (fun s -> (s.time, sel s)) samples in
      let activity =
        Stats.Asciiplot.create ~title:"Resource timeline: load"
          ~xlabel:"time (s)" ~ylabel:"count" ()
      in
      Stats.Asciiplot.add_series activity ~label:"run queue" ~mark:'q'
        (series (fun s -> float_of_int s.run_queue));
      Stats.Asciiplot.add_series activity ~label:"in-flight" ~mark:'i'
        (series (fun s -> float_of_int s.in_flight));
      Stats.Asciiplot.add_series activity ~label:"idle UCs" ~mark:'u'
        (series (fun s -> float_of_int s.idle_ucs));
      Stats.Asciiplot.add_series activity ~label:"snapshots" ~mark:'s'
        (series (fun s -> float_of_int s.cached_snapshots));
      let memory =
        Stats.Asciiplot.create ~title:"Resource timeline: memory"
          ~xlabel:"time (s)" ~ylabel:"free MiB" ()
      in
      Stats.Asciiplot.add_series memory ~label:"free" ~mark:'M'
        (series (fun s -> Int64.to_float s.free_bytes /. (1024.0 *. 1024.0)));
      let worst_stuck =
        List.fold_left (fun acc s -> max acc s.stuck_waiters) 0 samples
      in
      Printf.sprintf "%s\n%s\n%d samples; max stuck waiters observed: %d\n"
        (Stats.Asciiplot.render activity)
        (Stats.Asciiplot.render memory)
        (List.length samples) worst_stuck
