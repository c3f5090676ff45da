type config = {
  duration : float;
  background_threads : int;
  background_fns : int;
  background_rate : float;
  io_url : string;
  burst_period : float;
  burst_size : int;
  first_burst_at : float;
  cpu_ms : float;
  seed : int64;
}

let default =
  {
    duration = 300.0;
    background_threads = 128;
    background_fns = 16;
    background_rate = 72.0;
    io_url = "http://io-server/block";
    burst_period = 32.0;
    burst_size = 64;
    first_burst_at = 8.0;
    cpu_ms = 150.0;
    seed = 42L;
  }

type result = {
  background : Stats.Series.t;
  background_sent : int;
  bursts : Stats.Series.t;
  background_errors : int;
  burst_errors : int;
}

let run ~invoke cfg =
  (* A zero period or rate would loop forever at one instant. *)
  if not (cfg.burst_period > 0.0) then
    invalid_arg "Burst.run: burst_period must be positive";
  if not (cfg.background_rate > 0.0) then
    invalid_arg "Burst.run: background_rate must be positive";
  let engine = Sim.Engine.self () in
  let rng = Sim.Prng.create cfg.seed in
  let t_end = Sim.Engine.now engine +. cfg.duration in
  let background = Stats.Series.create () in
  let bursts = Stats.Series.create () in
  let outstanding = ref 0 in
  let finished = Sim.Ivar.create () in
  let track f =
    incr outstanding;
    Sim.Engine.spawn engine (fun () ->
        f ();
        decr outstanding;
        if !outstanding = 0 && Sim.Engine.now engine >= t_end then
          ignore (Sim.Ivar.try_fill finished ()))
  in
  let record series spec =
    let sent = Sim.Engine.now engine in
    let outcome = invoke spec in
    let latency = Sim.Engine.now engine -. sent in
    Stats.Series.add series ~time:sent ~value:latency ~ok:(Result.is_ok outcome)
  in
  (* Background stream: a rate-limited token feed consumed by a pool of
     worker threads (at most [background_threads] in flight). Every
     token the feed sends is served: after [t_end] the feed has stopped,
     and each worker drains what is still queued before it exits. *)
  let tokens = Sim.Channel.create () in
  let sent = ref 0 in
  track (fun () ->
      let interval = 1.0 /. cfg.background_rate in
      let rec feed () =
        if Sim.Engine.now engine < t_end then begin
          Sim.Channel.send tokens ();
          incr sent;
          Sim.Engine.sleep interval;
          feed ()
        end
      in
      feed ());
  let serve () =
    let fn_index = Sim.Prng.int rng cfg.background_fns in
    record background
      {
        Controller.fn_id = Printf.sprintf "io-%d" fn_index;
        action = Workloads.io_blocking ~url:cfg.io_url;
      }
  in
  for _ = 1 to cfg.background_threads do
    track (fun () ->
        let rec work () =
          if Sim.Engine.now engine < t_end then begin
            match Sim.Channel.recv_timeout tokens ~timeout:1.0 with
            | None -> work ()
            | Some () ->
                serve ();
                work ()
          end
          else
            match Sim.Channel.try_recv tokens with
            | None -> ()
            | Some () ->
                serve ();
                work ()
        in
        work ())
  done;
  (* Bursts: a fresh CPU-bound function per burst, all requests fired
     concurrently. *)
  track (fun () ->
      Sim.Engine.sleep cfg.first_burst_at;
      let rec fire n =
        if Sim.Engine.now engine +. 0.001 < t_end then begin
          let spec =
            {
              Controller.fn_id = Printf.sprintf "burst-%d" n;
              action = Baselines.Backend_intf.Cpu_ms cfg.cpu_ms;
            }
          in
          for _ = 1 to cfg.burst_size do
            track (fun () -> record bursts spec)
          done;
          Sim.Engine.sleep cfg.burst_period;
          fire (n + 1)
        end
      in
      fire 0);
  (* Wait for every spawned worker to drain. *)
  Sim.Ivar.read finished;
  {
    background;
    background_sent = !sent;
    bursts;
    background_errors = Stats.Series.failures background;
    burst_errors = Stats.Series.failures bursts;
  }
