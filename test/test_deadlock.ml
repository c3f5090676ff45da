(* Wait-for-graph deadlock detector coverage: the classic toys are
   caught with actionable provenance, daemons are exempt unless they sit
   on a cycle, the unarmed engine still counts stuck waiters, and the
   shipped experiments run clean (and byte-identically — test_arms
   checks that half) with the detector armed. *)

(* Experiments take their arming from the enclosing run configuration,
   which wins over the environment. *)
let with_check on f =
  Experiments.Harness.with_run
    { Experiments.Run_config.default with Experiments.Run_config.check = on }
    f

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* {1 The ABBA toy} *)

let abba () =
  let engine = Sim.Engine.create ~seed:3L ~check:true () in
  let a = Sim.Semaphore.create 1 and b = Sim.Semaphore.create 1 in
  let reported = ref [] in
  Sim.Engine.at_quiescence engine (fun () ->
      reported := Sim.Engine.stranded_waiters engine);
  Sim.Engine.spawn engine ~name:"forward" (fun () ->
      Sim.Semaphore.acquire a;
      Sim.Engine.sleep 1.0;
      Sim.Semaphore.acquire b);
  Sim.Engine.spawn engine ~name:"backward" (fun () ->
      Sim.Semaphore.acquire b;
      Sim.Engine.sleep 1.0;
      Sim.Semaphore.acquire a);
  Sim.Engine.run engine;
  (engine, !reported)

let check_abba_detected () =
  let engine, reported = abba () in
  Alcotest.(check int) "both processes stuck" 2
    (Sim.Engine.stuck_waiters engine);
  let stranded = Sim.Engine.stranded_waiters engine in
  Alcotest.(check int) "both stranded" 2 (List.length stranded);
  Alcotest.(check int) "a quiescence hook reads both" 2
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
  let engine = Sim.Engine.create ~seed:3L ~check:true () in
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
  let engine = Sim.Engine.create ~seed:3L ~check:true () in
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
  let engine = Sim.Engine.create ~seed:3L ~check:true () in
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

(* {1 Acquisition order}

   Armed, every semaphore acquire records held -> wanted edges, and an
   edge that closes a cycle is a stranded-report entry of its own, even
   when the two orders never overlap in time. *)

(* One process takes a then b, releases both, and later takes b then a:
   a schedule that can never deadlock, with an order that could. *)
let opposite_orders ~check =
  let engine = Sim.Engine.create ~seed:3L ~check () in
  let a = Sim.Semaphore.create 1 and b = Sim.Semaphore.create 1 in
  let nest x y =
    Sim.Semaphore.with_permit x (fun () ->
        Sim.Semaphore.with_permit y (fun () -> Sim.Engine.sleep 1.0))
  in
  Sim.Engine.spawn engine ~name:"orders" (fun () ->
      nest a b;
      Sim.Engine.sleep 1.0;
      nest b a);
  Sim.Engine.run engine;
  engine

let check_opposite_orders () =
  let engine = opposite_orders ~check:true in
  Alcotest.(check int) "nothing parked" 0 (Sim.Engine.stuck_waiters engine);
  match Sim.Engine.stranded_waiters engine with
  | [ s ] ->
      Alcotest.(check string) "the process that closed the cycle" "orders"
        s.Sim.Engine.proc;
      Alcotest.(check bool) "an order cycle" true s.Sim.Engine.in_cycle;
      Alcotest.(check string) "the cycle is named"
        "lock order semaphore#2 -> semaphore#1 -> semaphore#2"
        s.Sim.Engine.resource;
      Alcotest.(check (float 0.0)) "found when b -> a was attempted" 2.0
        s.Sim.Engine.waiting_since
  | ss ->
      Alcotest.failf "expected exactly one order cycle, got %d"
        (List.length ss)

let check_opposite_orders_unarmed () =
  let engine = opposite_orders ~check:false in
  Alcotest.(check int) "nothing parked" 0 (Sim.Engine.stuck_waiters engine);
  Alcotest.(check int) "no report unarmed" 0
    (List.length (Sim.Engine.stranded_waiters engine))

(* The one nesting lib/ has: Firecracker's setup permit, then a core
   inside Osenv.burn. Sixteen creators contend for both, in one order. *)
let check_one_order_silent () =
  let stranded =
    with_check true (fun () ->
        Experiments.Harness.run_sim ~seed:3L (fun engine ->
            let env = Seuss.Osenv.create engine in
            let backend =
              Baselines.Firecracker_backend.backend
                (Baselines.Firecracker_backend.create env)
            in
            let finished = ref 0 in
            for _ = 1 to 16 do
              Sim.Engine.spawn engine ~name:"creator" (fun () ->
                  if backend.Baselines.Backend_intf.create_instance () then
                    incr finished)
            done;
            Sim.Engine.sleep 60.0;
            Alcotest.(check int) "every creator finished" 16 !finished);
        Experiments.Harness.last_stranded_waiters ())
  in
  Alcotest.(check (list string)) "setup -> cpu is no cycle" []
    (List.map (fun s -> s.Sim.Engine.resource) stranded)

(* A with_permit whose body raises still releases: the process holds
   nothing afterwards, so b -> a later is an order of its own. *)
let check_raise_releases () =
  let engine = Sim.Engine.create ~seed:3L ~check:true () in
  let a = Sim.Semaphore.create 1 and b = Sim.Semaphore.create 1 in
  Sim.Engine.spawn engine ~name:"raiser" (fun () ->
      (try Sim.Semaphore.with_permit a (fun () -> raise Exit)
       with Exit -> ());
      Sim.Semaphore.with_permit b (fun () ->
          Sim.Semaphore.with_permit a (fun () -> Sim.Engine.sleep 1.0)));
  Sim.Engine.run engine;
  Alcotest.(check int) "a was released" 1 (Sim.Semaphore.available a);
  Alcotest.(check int) "no stale held entry, so no cycle" 0
    (List.length (Sim.Engine.stranded_waiters engine))

(* {1 Unarmed behaviour} *)

let check_unarmed_still_counts () =
  let engine = Sim.Engine.create ~seed:3L () in
  Alcotest.(check bool) "detector off by default" false
    (Sim.Engine.checked engine);
  let ready = Sim.Ivar.create () in
  Sim.Engine.spawn engine ~name:"reader" (fun () -> Sim.Ivar.read ready);
  Sim.Engine.run engine;
  Alcotest.(check int) "stuck counter works detector-off" 1
    (Sim.Engine.stuck_waiters engine);
  Alcotest.(check int) "but no wait-for graph was kept" 0
    (List.length (Sim.Engine.stranded_waiters engine))

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
  with_check true (fun () ->
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

(* The harness keeps the post-mortems of every run_sim inside one
   with_run, so a multi-run row cannot hide an earlier run's findings
   behind a clean last one. *)
let check_every_run_reported () =
  with_check true (fun () ->
      Experiments.Harness.run_sim ~seed:3L (fun engine ->
          Sim.Engine.spawn engine ~name:"forgotten" (fun () ->
              Sim.Ivar.read (Sim.Ivar.create ())));
      Experiments.Harness.run_sim ~seed:3L ignore;
      Alcotest.(check int) "the first run's stuck waiter" 1
        (Experiments.Harness.last_stuck_waiters ());
      Alcotest.(check (list string)) "and its stranded report" [ "forgotten" ]
        (List.map
           (fun s -> s.Sim.Engine.proc)
           (Experiments.Harness.last_stranded_waiters ())));
  with_check true (fun () ->
      Experiments.Harness.run_sim ~seed:3L ignore;
      Alcotest.(check int) "a new with_run starts clean" 0
        (List.length (Experiments.Harness.last_stranded_waiters ())))

let check_quiescence_counted_unarmed () =
  (* The counter is not gated on the detector: a detector-off run still
     proves its quiescence was genuine, closing the silent-quiescence
     hole where a stuck experiment looked identical to a finished one. *)
  with_check false (fun () ->
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
      ( "lock order",
        [
          Alcotest.test_case "opposite orders at different times" `Quick
            check_opposite_orders;
          Alcotest.test_case "unarmed order check is silent" `Quick
            check_opposite_orders_unarmed;
          Alcotest.test_case "setup then cpu is one order" `Quick
            check_one_order_silent;
          Alcotest.test_case "a raising with_permit leaves nothing held"
            `Quick check_raise_releases;
        ] );
      ( "arming",
        [
          Alcotest.test_case "unarmed engine still counts" `Quick
            check_unarmed_still_counts;
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
          Alcotest.test_case "post-mortems cover every run" `Quick
            check_every_run_reported;
        ] );
    ]
