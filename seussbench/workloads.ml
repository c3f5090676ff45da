(* The benchmark's workloads and one repetition of each.

   Every workload is an open-loop Poisson replay of the [Workload.Fnset]
   corpus under Zipf(1.1) popularity, driven through the public entry
   points a user's experiment goes through: [Workload.Trace.synthesize],
   [Seuss.Node.create]/[start], and [Platform.Controller.invoke_custom]
   via [Workload.Replay.run]. Each is shaped so that one invocation path
   dominates, which is what lets a change to one layer show up on the
   workload that exercises it and stay flat on the others.

   A run replays [sub_traces] traces whose seeds are drawn from the run
   seed, each in a fresh simulation, and pools their latencies: one
   trace of a given length has a seed-to-seed tail spread several times
   wider than the pooled set. *)

type t = {
  name : string;
  why : string;
  config : Seuss.Config.t;
  functions : int;
  rate : float;  (* offered mean arrivals per second *)
  horizon : float;  (* simulated seconds of arrivals per sub-trace *)
  serialize : bool;
      (* at most one call in flight, gated at the client: snapshot-store
         evictions race with each other and with warm calls' snapshot
         pins (README, "Known failure"), so the eviction workload keeps
         them sequential *)
}

let alpha = 1.1
let sub_traces = 4

let hot_zipf =
  {
    name = "hot_zipf";
    why =
      "1024 fns at 96 req/s with the idle-UC cache on: ~99% hot path at 75% \
       of the ~128 req/s controller+shim plateau, so queueing sets the tail";
    config = Seuss.Config.default;
    functions = 1024;
    rate = 96.0;
    horizon = 900.0;
    serialize = false;
  }

let warm_cow =
  {
    name = "warm_cow";
    why =
      "256 fns at 32 req/s with the idle-UC cache off: ~98% warm deploys \
       from function snapshots, each paying ~490 demand COW faults";
    config = { Seuss.Config.default with Seuss.Config.cache_idle_ucs = false };
    functions = 256;
    rate = 32.0;
    horizon = 450.0;
    serialize = false;
  }

let evict_churn =
  {
    name = "evict_churn";
    why =
      "160 fns at 4 req/s, one call in flight, over a 4 MiB ws-policy \
       snapshot store with prefault: ~12% cold calls and ~1000 evictions \
       per sub-trace, store inserts beside lookups";
    config =
      {
        Seuss.Config.default with
        Seuss.Config.cache_idle_ucs = false;
        snapshot_cache_bytes = Int64.of_int (Mem.Mconfig.mib 4);
        snapshot_cache_policy = Seuss.Config.Snap_ws;
        prefault_working_set = true;
      };
    functions = 160;
    rate = 4.0;
    horizon = 2250.0;
    serialize = true;
  }

let all = [ hot_zipf; warm_cow; evict_churn ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The run seed is the only input: it seeds a splitmix stream whose
   first draws are the sub-trace seeds. *)
let sub_seeds ?(count = sub_traces) seed =
  let rng = Sim.Prng.create seed in
  Array.init count (fun _ -> Sim.Prng.next rng)

let trace ?(scale = 1.0) w ~seed =
  Workload.Trace.synthesize ~functions:w.functions ~alpha
    ~arrival:(Workload.Arrival.poisson ~rate:w.rate)
    ~horizon:(w.horizon *. scale) ~seed

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 One repetition} *)

type store = {
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
  pages_inserted : int;
  pages_unique : int;
  peak_bytes : int64;
}

(* What only the traced run collects: it attaches [Obs.Breakdown] and a
   counter of cold compiles per import profile to the node's log. *)
type traced = {
  overall : Obs.Breakdown.phase_means;
  cold : Obs.Breakdown.phase_means option;
  cold_by_profile : int array;  (* indexed small, medium, large *)
}

type rep = {
  seed : int64;
  calls : int;
  ok : int;
  errors : int;
  latencies : float array;  (* seconds, from each arrival's due time *)
  makespan : float;
  max_in_flight : int;
  node : Seuss.Node.stats;
  perf : Sim.Engine.perf;
  emitted : int;  (* events the node's log saw *)
  cow_faults : int;
  zero_fills : int;
  translations : int;  (* proxy flow set-ups *)
  store : store option;
  synth_cpu : float;  (* host CPU seconds of trace synthesis *)
  setup_cpu : float;  (* ... from synthesis start to the first arrival *)
  replay_cpu : float;  (* ... of the replay itself *)
  words : float;  (* words allocated during the replay *)
  major_gcs : int;
  traced : traced option;
  problems : string list;  (* failed checks, empty when correct *)
  digest : string;  (* [sim_digest] *)
  peak_rss_mb : float;  (* of the process that ran the repetition *)
}

let profile_slot i =
  match Workload.Fnset.profile_of_index i with
  | Workload.Fnset.Small -> 0
  | Medium -> 1
  | Large -> 2

let attach_tracer log =
  let bd = Obs.Breakdown.attach log in
  let cold_by_profile = Array.make 3 0 in
  Obs.Log.subscribe log (fun r ->
      match r.Obs.Log.ev with
      | Obs.Event.Invoke_finish { path = Obs.Event.Cold; fn_id; _ } -> (
          match Scanf.sscanf_opt fn_id "zf-%d%!" Fun.id with
          | Some i ->
              let p = profile_slot i in
              cold_by_profile.(p) <- cold_by_profile.(p) + 1
          | None -> ())
      | _ -> ());
  (bd, cold_by_profile)

let store_stats env s =
  {
    hits = Seuss.Snapstore.hits s;
    misses = Seuss.Snapstore.misses s;
    inserts =
      Obs.Metrics.sum_counters env.Seuss.Osenv.metrics "snapstore_inserts_total";
    evictions = Seuss.Snapstore.evictions s;
    pages_inserted = Seuss.Snapstore.pages_inserted s;
    pages_unique = Seuss.Snapstore.pages_unique s;
    peak_bytes = Seuss.Snapstore.peak_resident_bytes s;
  }

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> l
          | Some _ -> find ()
          | None -> failwith "no VmHWM in /proc/self/status"
        in
        find ())
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Everything simulated time determines: equal digests mean the same
   latencies to the bit, the same path mix and the same event count. *)
let sim_digest r =
  let b = Buffer.create ((8 * Array.length r.latencies) + 128) in
  Array.iter
    (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
    r.latencies;
  Buffer.add_string b
    (Printf.sprintf "%d %d %d %h %d %d %d %d %d" r.calls r.ok r.errors
       r.makespan r.max_in_flight r.node.Seuss.Node.cold r.node.warm r.node.hot
       r.perf.Sim.Engine.dispatched);
  Digest.to_hex (Digest.string (Buffer.contents b))

let gc_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Replay one sub-trace in a fresh simulation. Set-up (synthesis, boot)
   and replay are timed apart; after the replay the node is checked and
   shut down, and every failed check lands in [problems].
   @raise Sim.Engine.Process_failure when a simulated process raises. *)
let run_rep ?scale w ~seed ~traced =
  let c0 = cpu () in
  let trace = trace ?scale w ~seed in
  let synth_cpu = cpu () -. c0 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let rep =
    Experiments.Harness.run_sim ~seed (fun engine ->
        let env = Experiments.Harness.make_seuss_env engine in
        let node = Seuss.Node.create ~config:w.config env in
        Seuss.Node.start node;
        let controller =
          Platform.Controller.create engine
            (Platform.Controller.Seuss_backend (Seuss.Shim.create env node))
        in
        let tracer =
          if traced then Some (attach_tracer env.Seuss.Osenv.log) else None
        in
        let call ~fn =
          Platform.Controller.invoke_custom controller
            ~fn_id:(Workload.Fnset.fn_id fn) ~action:Baselines.Backend_intf.Nop
            ~source:(Workload.Fnset.source fn)
        in
        let invoke =
          if w.serialize then
            let gate = Sim.Semaphore.create 1 in
            fun ~fn -> Sim.Semaphore.with_permit gate (fun () -> call ~fn)
          else call
        in
        let g0 = Gc.quick_stat () in
        let c1 = cpu () in
        let r = Workload.Replay.run ~invoke trace in
        let replay_cpu = cpu () -. c1 in
        let g1 = Gc.quick_stat () in
        let metrics = env.Seuss.Osenv.metrics in
        let store =
          Option.map
            (fun s ->
              List.iter (problem "snapstore: %s") (Seuss.Snapstore.check s);
              store_stats env s)
            (Seuss.Node.snapstore node)
        in
        let traced =
          Option.map
            (fun (bd, cold_by_profile) ->
              match Obs.Breakdown.overall bd with
              | Some overall ->
                  {
                    overall;
                    cold = Obs.Breakdown.per_path bd Obs.Event.Cold;
                    cold_by_profile;
                  }
              | None -> failwith "traced replay saw no invocation")
            tracer
        in
        let rep =
          {
            seed;
            calls = r.Workload.Replay.invocations;
            ok = r.Workload.Replay.ok;
            errors = r.Workload.Replay.errors;
            latencies = Stats.Summary.samples r.Workload.Replay.latencies;
            makespan = r.Workload.Replay.makespan;
            max_in_flight = r.Workload.Replay.max_in_flight;
            node = Seuss.Node.stats node;
            perf = Sim.Engine.perf engine;
            emitted = Obs.Log.emitted env.Seuss.Osenv.log;
            cow_faults = Obs.Metrics.sum_counters metrics "mem_cow_faults_total";
            zero_fills = Obs.Metrics.sum_counters metrics "mem_zero_fills_total";
            translations = Net.Proxy.translations env.Seuss.Osenv.proxy;
            store;
            synth_cpu;
            setup_cpu = c1 -. c0;
            replay_cpu;
            words = gc_words g1 -. gc_words g0;
            major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
            traced;
            problems = [];
            digest = "";
            peak_rss_mb = 0.0;
          }
        in
        Seuss.Node.shutdown node;
        let frames = Mem.Frame.used_frames env.Seuss.Osenv.frames in
        if frames <> 0 then problem "%d frames still in use after shutdown" frames;
        rep)
  in
  let stuck = Experiments.Harness.last_stuck_waiters () in
  if stuck <> 0 then problem "%d processes stranded at quiescence" stuck;
  let events = Array.length trace.Workload.Trace.events in
  if rep.calls <> events then
    problem "replayed %d calls of a %d-event trace" rep.calls events;
  if rep.ok + rep.errors <> rep.calls then
    problem "ok %d + errors %d <> %d calls" rep.ok rep.errors rep.calls;
  if rep.errors <> 0 then problem "%d calls failed" rep.errors;
  let paths = rep.node.Seuss.Node.cold + rep.node.warm + rep.node.hot in
  if paths <> rep.calls then
    problem "path counts sum to %d, not the %d accepted calls" paths rep.calls;
  {
    rep with
    problems = List.rev !problems;
    digest = sim_digest rep;
    peak_rss_mb = peak_rss_mb ();
  }

exception Failed of string

(* [run_rep] in a forked child: every repetition starts from the same
   small heap, so its host time and peak RSS do not depend on how many
   repetitions ran before it. The child sends its result back marshalled
   over a pipe; a failure comes back as its message and raises [Failed]. *)
let run_isolated ?scale w ~seed ~traced =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let outcome : (rep, string) result =
        match run_rep ?scale w ~seed ~traced with
        | rep -> Ok rep
        | exception Sim.Engine.Process_failure (proc, e) ->
            Error
              (Printf.sprintf "simulated process %s raised %s" proc
                 (Printexc.to_string e))
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc outcome [];
      flush oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let outcome : (rep, string) result =
        try Marshal.from_channel ic
        with End_of_file -> Error "repetition died without a result"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match outcome with Ok rep -> rep | Error msg -> raise (Failed msg))
