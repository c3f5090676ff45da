(* Schedule-sanitizer coverage: the tie shuffler catches deliberately
   order-dependent code and leaves the shipped experiments byte-identical;
   the happens-before checker flags unsynchronized same-time access and
   stays quiet for synchronized or time-separated access. *)

(* {1 Tie shuffling} *)

(* Experiments read their arming from the environment at the harness
   boundary; "" reads as unset (Unix offers no unsetenv). *)
let with_shuffle seed f =
  Unix.putenv "SEUSS_SHUFFLE_SEED"
    (match seed with None -> "" | Some s -> Int64.to_string s);
  Fun.protect ~finally:(fun () -> Unix.putenv "SEUSS_SHUFFLE_SEED" "") f

(* Deliberately order-dependent: the output string is exactly the order
   in which same-timestamp processes ran. *)
let toy ?tie_seed () =
  let engine = Sim.Engine.create ~seed:3L ?tie_seed () in
  let out = Buffer.create 16 in
  for i = 1 to 8 do
    Sim.Engine.spawn engine
      ~name:(Printf.sprintf "p%d" i)
      (fun () -> Buffer.add_string out (string_of_int i))
  done;
  Sim.Engine.run engine;
  Buffer.contents out

let fifo_baseline () =
  Alcotest.(check string) "unarmed runs are FIFO and repeatable" (toy ())
    (toy ());
  Alcotest.(check string) "FIFO order is spawn order" "12345678" (toy ())

let shuffle_catches_order_dependence () =
  let baseline = toy () in
  let perturbed =
    List.exists
      (fun s -> not (String.equal baseline (toy ~tie_seed:s ())))
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "some shuffle seed exposes the order dependence" true
    perturbed

let shuffle_deterministic_per_seed () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "tie seed %Ld replays identically" s)
        (toy ~tie_seed:s ())
        (toy ~tie_seed:s ()))
    [ 1L; 2L; 3L ]

(* {1 Experiment byte-identity under shuffling} *)

let assert_shuffle_identical name render =
  let baseline = with_shuffle None render in
  List.iter
    (fun s ->
      let shuffled = with_shuffle (Some s) render in
      Alcotest.(check bool)
        (Printf.sprintf "%s byte-identical under tie seed %Ld" name s)
        true
        (String.equal baseline shuffled))
    [ 1L; 2L; 3L ]

let fig4_identity () =
  assert_shuffle_identical "fig4" (fun () ->
      Experiments.Fig4.render
        (Experiments.Fig4.run ~set_sizes:[ 64 ] ~client_threads:8 ~seed:5L ()))

let chaos_identity () =
  assert_shuffle_identical "fig_chaos" (fun () ->
      let r =
        Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:30
          ~rates:[ 0.0; 0.05 ] ~seed:5L ()
      in
      Obs.Json.to_string (Experiments.Fig_chaos.to_json r)
      ^ r.Experiments.Fig_chaos.timeline)

let reap_identity () =
  assert_shuffle_identical "fig_reap" (fun () ->
      Obs.Json.to_string
        (Experiments.Fig_reap.to_json
           (Experiments.Fig_reap.run ~functions:4 ~rounds:6 ~seed:5L ())))

(* A trimmed fig_load sweep (the timeline lands on the top point's
   SEUSS arm, so the shuffled render must reproduce it byte-for-byte
   too). *)
let fig_load_small () =
  let r =
    Experiments.Fig_load.run ~functions:24 ~hours:0.02 ~rps:[ 2.0; 6.0 ]
      ~arrival:"bursty" ~seed:5L ()
  in
  Obs.Json.to_string (Experiments.Fig_load.to_json r)
  ^ Experiments.Fig_load.render r

let fig_load_identity () =
  assert_shuffle_identical "fig_load" fig_load_small

let fig_load_run_twice () =
  Alcotest.(check bool) "fig_load run-twice byte-identical" true
    (String.equal
       (with_shuffle None fig_load_small)
       (with_shuffle None fig_load_small))

(* {1 Happens-before checking} *)

let hb_run body =
  let engine = Sim.Engine.create ~seed:1L () in
  ignore (Sim.Hb.enable engine);
  body engine;
  Sim.Engine.run engine;
  Sim.Hb.races engine

let hb_write_write () =
  let cell = Sim.Hb.cell ~name:"toy.cell" in
  let races =
    hb_run (fun engine ->
        Sim.Engine.spawn engine ~name:"w1" (fun () -> Sim.Hb.write cell);
        Sim.Engine.spawn engine ~name:"w2" (fun () -> Sim.Hb.write cell))
  in
  match races with
  | [ r ] ->
      Alcotest.(check string) "kind" "write/write" (Sim.Hb.kind_name r.Sim.Hb.kind);
      Alcotest.(check string) "cell" "toy.cell" r.Sim.Hb.cell
  | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)

let hb_read_write () =
  let cell = Sim.Hb.cell ~name:"toy.rw" in
  let races =
    hb_run (fun engine ->
        Sim.Engine.spawn engine ~name:"r" (fun () -> Sim.Hb.read cell);
        Sim.Engine.spawn engine ~name:"w" (fun () -> Sim.Hb.write cell))
  in
  match races with
  | [ r ] ->
      Alcotest.(check string) "kind" "read/write" (Sim.Hb.kind_name r.Sim.Hb.kind)
  | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)

let hb_reads_never_race () =
  let cell = Sim.Hb.cell ~name:"toy.rr" in
  let races =
    hb_run (fun engine ->
        Sim.Engine.spawn engine ~name:"r1" (fun () -> Sim.Hb.read cell);
        Sim.Engine.spawn engine ~name:"r2" (fun () -> Sim.Hb.read cell))
  in
  Alcotest.(check int) "read/read is no race" 0 (List.length races)

let hb_sync_edge_orders () =
  (* Writer publishes through an ivar; the reader's write is ordered
     after it even though both land at t=0. *)
  let cell = Sim.Hb.cell ~name:"toy.sync" in
  let races =
    hb_run (fun engine ->
        let iv = Sim.Ivar.create () in
        Sim.Engine.spawn engine ~name:"first" (fun () ->
            Sim.Hb.write cell;
            Sim.Ivar.fill iv ());
        Sim.Engine.spawn engine ~name:"second" (fun () ->
            Sim.Ivar.read iv;
            Sim.Hb.write cell))
  in
  Alcotest.(check int) "ivar edge synchronizes" 0 (List.length races)

let hb_time_separation_orders () =
  let cell = Sim.Hb.cell ~name:"toy.time" in
  let races =
    hb_run (fun engine ->
        Sim.Engine.spawn engine ~name:"early" (fun () -> Sim.Hb.write cell);
        Sim.Engine.spawn engine ~name:"late" (fun () ->
            Sim.Engine.sleep 1.0;
            Sim.Hb.write cell))
  in
  Alcotest.(check int) "the clock serializes distinct instants" 0
    (List.length races)

let hb_spawn_edge_orders () =
  (* Parent writes, then spawns a child that writes at the same instant:
     the spawn edge orders them. *)
  let cell = Sim.Hb.cell ~name:"toy.spawn" in
  let races =
    hb_run (fun engine ->
        Sim.Engine.spawn engine ~name:"parent" (fun () ->
            Sim.Hb.write cell;
            Sim.Engine.spawn engine ~name:"child" (fun () -> Sim.Hb.write cell)))
  in
  Alcotest.(check int) "spawn edge synchronizes" 0 (List.length races)

let hb_dormant_is_free () =
  let cell = Sim.Hb.cell ~name:"toy.dormant" in
  let engine = Sim.Engine.create ~seed:1L () in
  Sim.Engine.spawn engine ~name:"w" (fun () -> Sim.Hb.write cell);
  Sim.Engine.run engine;
  Alcotest.(check int) "no checker, no races" 0 (List.length (Sim.Hb.races engine));
  Alcotest.(check bool) "not enabled" false (Sim.Hb.enabled engine)

let chaos_small () =
  let r =
    Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:30
      ~rates:[ 0.0; 0.05 ] ~seed:5L ()
  in
  Obs.Json.to_string (Experiments.Fig_chaos.to_json r)
  ^ r.Experiments.Fig_chaos.timeline

let with_hb f =
  Unix.putenv "SEUSS_HB" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "SEUSS_HB" "0") f

let experiments_race_free () =
  (* The acceptance gate: shipped workloads report zero unsynchronized
     pairs with the checker armed. Single-node: drive concurrent
     invocations through the full controller stack and read the race
     count off the engine. *)
  let run =
    { Experiments.Run_config.default with Experiments.Run_config.hb = true }
  in
  let races =
    Experiments.Harness.run_sim ~run ~seed:5L (fun engine ->
        let env = Experiments.Harness.make_seuss_env engine in
        let controller, _node = Experiments.Harness.seuss_controller env in
        let live = ref 8 in
        let all_done = Sim.Ivar.create () in
        for i = 1 to 8 do
          Sim.Engine.spawn engine
            ~name:(Printf.sprintf "client-%d" i)
            (fun () ->
              for j = 0 to 4 do
                ignore
                  (Platform.Controller.invoke controller
                     {
                       Platform.Controller.fn_id =
                         Printf.sprintf "fn-%d" (((i * 5) + j) mod 6);
                       action = Platform.Workloads.nop;
                     })
              done;
              decr live;
              if !live = 0 then Sim.Ivar.fill all_done ())
        done;
        Sim.Ivar.read all_done;
        Sim.Hb.race_count engine)
  in
  Alcotest.(check int) "no races in the single-node stack" 0 races;
  (* Cluster: the chaos sweep exercises the shared registry. Arming the
     checker must be invisible — same bytes, no San_race in the
     timeline — which also proves it found nothing to report. *)
  let plain = chaos_small () in
  let armed = with_hb chaos_small in
  Alcotest.(check bool) "chaos run unchanged with checker armed" true
    (String.equal plain armed)

let () =
  Alcotest.run "sanitizer"
    [
      ( "shuffle",
        [
          Alcotest.test_case "unarmed is FIFO" `Quick fifo_baseline;
          Alcotest.test_case "catches order dependence" `Quick
            shuffle_catches_order_dependence;
          Alcotest.test_case "deterministic per seed" `Quick
            shuffle_deterministic_per_seed;
        ] );
      ( "identity",
        [
          Alcotest.test_case "fig4" `Slow fig4_identity;
          Alcotest.test_case "fig_chaos" `Slow chaos_identity;
          Alcotest.test_case "fig_reap" `Slow reap_identity;
          Alcotest.test_case "fig_load run-twice" `Slow fig_load_run_twice;
          Alcotest.test_case "fig_load" `Slow fig_load_identity;
        ] );
      ( "happens-before",
        [
          Alcotest.test_case "write/write race" `Quick hb_write_write;
          Alcotest.test_case "read/write race" `Quick hb_read_write;
          Alcotest.test_case "read/read clean" `Quick hb_reads_never_race;
          Alcotest.test_case "sync edge" `Quick hb_sync_edge_orders;
          Alcotest.test_case "time separation" `Quick hb_time_separation_orders;
          Alcotest.test_case "spawn edge" `Quick hb_spawn_edge_orders;
          Alcotest.test_case "dormant free" `Quick hb_dormant_is_free;
          Alcotest.test_case "experiments race-free" `Slow experiments_race_free;
        ] );
    ]
