(* Engine macrobenchmark: host-side cost of the simulation core itself,
   written as a committed baseline (BENCH_engine.json) that CI compares
   fresh runs against.

   Two passes:
   - synthetic: a pure scheduler workload (many processes trading
     sleeps) sized so the event count dwarfs everything else — reports
     events/sec, host words allocated per event and the
     engine's own perf counters (dispatched / scheduled / max heap);
   - experiments: wall time of a trimmed fig4, chaos, reap and load
     run — the figures the observability plane instruments — so a
     costly regression in the instrumentation or the open-loop replay
     path shows up here even if the per-event synthetic number stays
     flat.

   Usage: dune exec bench/engine_bench.exe [-- --out PATH]
   (default PATH: BENCH_engine.json). *)

let synthetic_procs = 64
let synthetic_sleeps = 4096

type synthetic = {
  events : int;
  wall_s : float;
  events_per_sec : float;
  allocs_per_event : float;
  scheduled : int;
  max_heap : int;
}

(* Words allocated so far, counted as the GC does (minor + major -
   promoted). On OCaml 5 [Gc.quick_stat] sums only what the last
   collection recorded and [Gc.counters]' minor count is not in words,
   so the minor words come from [Gc.minor_words], the rest from
   [Gc.counters]. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let run_synthetic () =
  let engine = Sim.Engine.create ~seed:1L () in
  let w0 = words () in
  let t0 = Unix.gettimeofday () in
  for p = 1 to synthetic_procs do
    Sim.Engine.spawn engine
      ~name:(Printf.sprintf "proc-%d" p)
      (fun () ->
        for i = 1 to synthetic_sleeps do
          (* Deterministic, uneven periods so the heap sees real
             interleaving rather than one synchronized cohort. *)
          Sim.Engine.sleep (1e-4 *. float_of_int (1 + (((p * 7) + i) mod 13)))
        done)
  done;
  Sim.Engine.run engine;
  let wall_s = Unix.gettimeofday () -. t0 in
  let words = words () -. w0 in
  let perf = Sim.Engine.perf engine in
  let events = perf.Sim.Engine.dispatched in
  {
    events;
    wall_s;
    events_per_sec =
      (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
    allocs_per_event =
      (if events > 0 then words /. float_of_int events else 0.0);
    scheduled = perf.Sim.Engine.scheduled;
    max_heap = perf.Sim.Engine.max_heap;
  }

let timed f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let run_experiments () =
  let fig4 =
    timed (fun () -> Experiments.Fig4.run ~set_sizes:[ 64; 128 ] ())
  in
  let chaos =
    timed (fun () ->
        Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:40
          ~rates:[ 0.0; 0.05 ] ())
  in
  let reap = timed (fun () -> Experiments.Fig_reap.run ~functions:4 ~rounds:5 ())
  in
  let load =
    timed (fun () ->
        Experiments.Fig_load.run ~functions:48 ~hours:0.05 ~rps:[ 2.0; 8.0 ]
          ~arrival:"bursty" ())
  in
  let evict =
    timed (fun () ->
        Experiments.Fig_evict.run ~functions:24 ~hours:0.02 ~rate:8.0
          ~sizes:
            [
              0L;
              Int64.of_int (Mem.Mconfig.mib 3);
              Int64.of_int (Mem.Mconfig.mib 64);
            ]
          ())
  in
  (fig4, chaos, reap, load, evict)

let () =
  let out = ref "BENCH_engine.json" in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | arg :: _ ->
        Printf.eprintf "engine_bench: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let s = run_synthetic () in
  Printf.printf
    "synthetic: %d events in %.3fs — %.0f events/s, %.1f words/event, max \
     heap %d\n"
    s.events s.wall_s s.events_per_sec s.allocs_per_event s.max_heap;
  let fig4_wall_s, chaos_wall_s, reap_wall_s, fig_load_wall_s, fig_evict_wall_s
      =
    run_experiments ()
  in
  Printf.printf
    "experiments: fig4 %.3fs, chaos %.3fs, reap %.3fs, load %.3fs, evict \
     %.3fs\n"
    fig4_wall_s chaos_wall_s reap_wall_s fig_load_wall_s fig_evict_wall_s;
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "seuss-engine-bench/1");
        ( "synthetic",
          Obs.Json.Obj
            [
              ("events", Obs.Json.Int s.events);
              ("wall_s", Obs.Json.Float s.wall_s);
              ("events_per_sec", Obs.Json.Float s.events_per_sec);
              ("allocs_per_event", Obs.Json.Float s.allocs_per_event);
              ("scheduled", Obs.Json.Int s.scheduled);
              ("max_heap", Obs.Json.Int s.max_heap);
            ] );
        ( "experiments",
          Obs.Json.Obj
            [
              ("fig4_wall_s", Obs.Json.Float fig4_wall_s);
              ("chaos_wall_s", Obs.Json.Float chaos_wall_s);
              ("reap_wall_s", Obs.Json.Float reap_wall_s);
              ("fig_load_wall_s", Obs.Json.Float fig_load_wall_s);
              ("fig_evict_wall_s", Obs.Json.Float fig_evict_wall_s);
            ] );
      ]
  in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !out
