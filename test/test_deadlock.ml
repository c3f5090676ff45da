(* Wait-for-graph deadlock detector coverage: the classic toys are
   caught with actionable provenance, daemons are exempt unless they sit
   on a cycle, the unarmed engine still counts stuck waiters, and the
   shipped experiments run clean (and byte-identically — test_arms
   checks that half) with the detector armed. *)

(* Experiments take their arming from the enclosing run configuration,
   which wins over the environment. *)
let with_deadlock on f =
  Experiments.Harness.with_run
    { Experiments.Run_config.default with Experiments.Run_config.deadlock = on }
    f

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* {1 The ABBA toy} *)

let abba () =
  let engine = Sim.Engine.create ~seed:3L ~deadlock:true () in
  let a = Sim.Semaphore.create 1 and b = Sim.Semaphore.create 1 in
  let reported = ref [] in
  Sim.Engine.add_deadlock_reporter engine (fun s -> reported := s :: !reported);
  Sim.Engine.spawn engine ~name:"forward" (fun () ->
      Sim.Semaphore.acquire a;
      Sim.Engine.sleep 1.0;
      Sim.Semaphore.acquire b);
  Sim.Engine.spawn engine ~name:"backward" (fun () ->
      Sim.Semaphore.acquire b;
      Sim.Engine.sleep 1.0;
      Sim.Semaphore.acquire a);
  Sim.Engine.run engine;
  (engine, List.rev !reported)

let check_abba_detected () =
  let engine, reported = abba () in
  Alcotest.(check int) "both processes stuck" 2
    (Sim.Engine.stuck_waiters engine);
  let stranded = Sim.Engine.stranded_waiters engine in
  Alcotest.(check int) "both stranded" 2 (List.length stranded);
  Alcotest.(check int) "reporter fired per stranded process" 2
    (List.length reported);
  List.iter
    (fun (s : Sim.Engine.stranded) ->
      Alcotest.(check bool) (s.Sim.Engine.proc ^ " on the wait cycle") true
        s.Sim.Engine.in_cycle;
      Alcotest.(check bool) (s.Sim.Engine.proc ^ " names its holders") true
        (s.Sim.Engine.holders <> []);
      Alcotest.(check bool) (s.Sim.Engine.proc ^ " resource is a semaphore")
        true
        (starts_with ~prefix:"semaphore#" s.Sim.Engine.resource))
    stranded;
  Alcotest.(check (list string))
    "provenance names both spawn sites" [ "backward"; "forward" ]
    (List.sort String.compare
       (List.map (fun s -> s.Sim.Engine.proc) stranded))

(* {1 The lost wakeup} *)

let check_lost_wakeup () =
  let engine = Sim.Engine.create ~seed:3L ~deadlock:true () in
  let ready = Sim.Ivar.create () in
  Sim.Engine.spawn engine ~name:"reader" (fun () ->
      (* Nobody ever fills [ready]. *)
      Sim.Ivar.read ready);
  Sim.Engine.run engine;
  Alcotest.(check int) "one stuck waiter" 1 (Sim.Engine.stuck_waiters engine);
  match Sim.Engine.stranded_waiters engine with
  | [ s ] ->
      Alcotest.(check string) "spawn-site provenance" "reader"
        s.Sim.Engine.proc;
      Alcotest.(check bool) "waiting on the ivar" true
        (starts_with ~prefix:"ivar#" s.Sim.Engine.resource);
      Alcotest.(check bool) "not a cycle, just forgotten" false
        s.Sim.Engine.in_cycle;
      Alcotest.(check (list int)) "an ivar has no holders" []
        s.Sim.Engine.holders;
      Alcotest.(check bool) "spawned before it parked" true
        (s.Sim.Engine.spawned_at <= s.Sim.Engine.waiting_since)
  | ss -> Alcotest.failf "expected exactly one stranded waiter, got %d"
            (List.length ss)

(* {1 Daemon exemption} *)

let check_daemon_exempt () =
  let engine = Sim.Engine.create ~seed:3L ~deadlock:true () in
  let ch = Sim.Channel.create () in
  Sim.Engine.spawn engine ~name:"accept-loop" ~daemon:true (fun () ->
      ignore (Sim.Channel.recv ch));
  Sim.Engine.run engine;
  Alcotest.(check int) "daemons are not stuck waiters" 0
    (Sim.Engine.stuck_waiters engine);
  Alcotest.(check int) "daemons are not stranded" 0
    (List.length (Sim.Engine.stranded_waiters engine))

let check_daemon_on_cycle_reported () =
  (* A daemon that participates in an ABBA cycle loses its exemption:
     the cycle starves the non-daemon half of the pair. *)
  let engine = Sim.Engine.create ~seed:3L ~deadlock:true () in
  let a = Sim.Semaphore.create 1 and b = Sim.Semaphore.create 1 in
  Sim.Engine.spawn engine ~name:"fg" (fun () ->
      Sim.Semaphore.acquire a;
      Sim.Engine.sleep 1.0;
      Sim.Semaphore.acquire b);
  Sim.Engine.spawn engine ~name:"bg" ~daemon:true (fun () ->
      Sim.Semaphore.acquire b;
      Sim.Engine.sleep 1.0;
      Sim.Semaphore.acquire a);
  Sim.Engine.run engine;
  Alcotest.(check int) "only the non-daemon counts as stuck" 1
    (Sim.Engine.stuck_waiters engine);
  Alcotest.(check (list string))
    "but the report includes the daemon on the cycle" [ "bg"; "fg" ]
    (List.sort String.compare
       (List.map
          (fun (s : Sim.Engine.stranded) -> s.Sim.Engine.proc)
          (Sim.Engine.stranded_waiters engine)))

(* {1 Unarmed behaviour} *)

let check_unarmed_still_counts () =
  let engine = Sim.Engine.create ~seed:3L () in
  Alcotest.(check bool) "detector off by default" false
    (Sim.Engine.deadlock_armed engine);
  let ready = Sim.Ivar.create () in
  Sim.Engine.spawn engine ~name:"reader" (fun () -> Sim.Ivar.read ready);
  Sim.Engine.run engine;
  Alcotest.(check int) "stuck counter works detector-off" 1
    (Sim.Engine.stuck_waiters engine);
  Alcotest.(check int) "but no wait-for graph was kept" 0
    (List.length (Sim.Engine.stranded_waiters engine))

let check_env_arms () =
  match Experiments.Run_config.parse [ ("SEUSS_DEADLOCK", "1") ] with
  | Error e -> Alcotest.fail e
  | Ok run ->
      let engine = Experiments.Harness.make_engine ~run ~seed:3L () in
      Alcotest.(check bool) "SEUSS_DEADLOCK=1 arms the harness engine" true
        (Sim.Engine.deadlock_armed engine)

(* {1 The San_deadlock event} *)

let check_event_roundtrip () =
  let e =
    Obs.Event.San_deadlock
      {
        resource = "semaphore#1";
        proc = "forward";
        pid = 2;
        spawned_at = 0.0;
        waiting_since = 1.0;
        in_cycle = true;
      }
  in
  match Obs.Event.of_json (Obs.Event.to_json ~time:2.5 e) with
  | Ok (2.5, e') ->
      Alcotest.(check bool) "payload survives the roundtrip" true (e = e')
  | _ -> Alcotest.fail "San_deadlock did not roundtrip through JSON"

(* {1 Shipped experiments with the detector armed} *)

let check_experiments_clean () =
  with_deadlock true (fun () ->
      let check_run name run =
        ignore (run ());
        Alcotest.(check int) (name ^ ": no stuck waiters") 0
          (Experiments.Harness.last_stuck_waiters ());
        Alcotest.(check int) (name ^ ": no stranded report") 0
          (List.length (Experiments.Harness.last_stranded_waiters ()))
      in
      check_run "fig4" (fun () ->
          Experiments.Fig4.run ~set_sizes:[ 16 ] ~client_threads:8 ~seed:7L ());
      check_run "chaos" (fun () ->
          Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:20
            ~rates:[ 0.0; 0.05 ] ~seed:7L ());
      check_run "reap" (fun () ->
          Experiments.Fig_reap.run ~functions:4 ~rounds:5 ~seed:7L ()))

let check_quiescence_counted_unarmed () =
  (* The counter is not gated on the detector: a detector-off run still
     proves its quiescence was genuine, closing the silent-quiescence
     hole where a stuck experiment looked identical to a finished one. *)
  with_deadlock false (fun () ->
      ignore (Experiments.Fig4.run ~set_sizes:[ 16 ] ~client_threads:8 ~seed:7L ());
      Alcotest.(check int) "fig4 unarmed: no stuck waiters" 0
        (Experiments.Harness.last_stuck_waiters ()))

let () =
  Alcotest.run "deadlock"
    [
      ( "toys",
        [
          Alcotest.test_case "ABBA cycle detected" `Quick check_abba_detected;
          Alcotest.test_case "lost wakeup reported" `Quick check_lost_wakeup;
        ] );
      ( "daemons",
        [
          Alcotest.test_case "parked daemon exempt" `Quick check_daemon_exempt;
          Alcotest.test_case "daemon on a cycle reported" `Quick
            check_daemon_on_cycle_reported;
        ] );
      ( "arming",
        [
          Alcotest.test_case "unarmed engine still counts" `Quick
            check_unarmed_still_counts;
          Alcotest.test_case "SEUSS_DEADLOCK arms create" `Quick check_env_arms;
        ] );
      ( "events",
        [
          Alcotest.test_case "San_deadlock JSON roundtrip" `Quick
            check_event_roundtrip;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "shipped experiments are deadlock-clean" `Quick
            check_experiments_clean;
          Alcotest.test_case "quiescence counted detector-off" `Quick
            check_quiescence_counted_unarmed;
        ] );
    ]
