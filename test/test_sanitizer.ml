(* Schedule-sanitizer coverage: the tie shuffler catches deliberately
   order-dependent code and leaves the shipped experiments byte-identical;
   the happens-before checker flags unsynchronized same-time access and
   stays quiet for synchronized or time-separated access. *)

(* {1 Tie shuffling} *)

(* Experiments take their arming from the enclosing run configuration,
   which wins over the environment, so the unshuffled baseline stays
   unshuffled even when the suite runs under SEUSS_SHUFFLE_SEED. *)
let with_shuffle seed f =
  Experiments.Harness.with_run
    {
      Experiments.Run_config.default with
      Experiments.Run_config.tie_seed = seed;
    }
    f

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
      Experiments.(
        Report.to_text
          (Fig4.report (Fig4.run ~set_sizes:[ 64 ] ~client_threads:8 ~seed:5L ()))))

let chaos_identity () =
  assert_shuffle_identical "fig_chaos" (fun () ->
      let r =
        Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:30
          ~rates:[ 0.0; 0.05 ] ~seed:5L ()
      in
      Experiments.(Report.to_json (Fig_chaos.report r))
      ^ r.Experiments.Fig_chaos.timeline)

let reap_identity () =
  assert_shuffle_identical "fig_reap" (fun () ->
      Experiments.(
        Report.to_json (Fig_reap.report (Fig_reap.run ~functions:4 ~rounds:6 ~seed:5L ()))))

(* A trimmed fig_load sweep (the timeline lands on the top point's
   SEUSS arm, so the shuffled render must reproduce it byte-for-byte
   too). *)
let fig_load_small () =
  let r =
    Experiments.Fig_load.run ~functions:24 ~hours:0.02 ~rps:[ 2.0; 6.0 ]
      ~arrival:"bursty" ~seed:5L ()
  in
  let report = Experiments.Fig_load.report r in
  Experiments.Report.to_json report ^ Experiments.Report.to_text report

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

(* A writer publishes through a blocking primitive; the reader's write
   is ordered after it even though both land at t=0. The channel
   receivers run first and park, so the send wakes them: the timed
   receive's edge is carried by the channel's own sync alone. *)
let hb_sync_edge_orders () =
  let edge name ~publish ~await =
    (* A cell per run: a cell keeps its accesses at an instant across
       engines, and every run here is at t=0. *)
    let cell = Sim.Hb.cell ~name:"toy.sync" in
    let races =
      hb_run (fun engine ->
          Sim.Engine.spawn engine ~name:"second" (fun () ->
              await ();
              Sim.Hb.write cell);
          Sim.Engine.spawn engine ~name:"first" (fun () ->
              Sim.Hb.write cell;
              publish ()))
    in
    Alcotest.(check int) (name ^ " edge synchronizes") 0 (List.length races)
  in
  let iv = Sim.Ivar.create () in
  edge "ivar" ~publish:(fun () -> Sim.Ivar.fill iv ()) ~await:(fun () ->
      Sim.Ivar.read iv);
  let ch = Sim.Channel.create () in
  edge "channel recv" ~publish:(fun () -> Sim.Channel.send ch ()) ~await:(fun () ->
      Sim.Channel.recv ch);
  let ch = Sim.Channel.create () in
  edge "channel recv_timeout"
    ~publish:(fun () -> Sim.Channel.send ch ())
    ~await:(fun () ->
      Alcotest.(check (option unit)) "received" (Some ())
        (Sim.Channel.recv_timeout ch ~timeout:1.0))

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

(* A race reporter runs inside the access it reports, in an atomic
   section: one that yields fails the racing process, naming the
   section. *)
let hb_reporter_must_not_suspend () =
  let cell = Sim.Hb.cell ~name:"toy.reported" in
  let engine = Sim.Engine.create ~seed:1L () in
  ignore (Sim.Hb.enable engine);
  Sim.Hb.add_reporter engine (fun _ -> Sim.Engine.yield ());
  Sim.Engine.spawn engine ~name:"w1" (fun () -> Sim.Hb.write cell);
  Sim.Engine.spawn engine ~name:"w2" (fun () -> Sim.Hb.write cell);
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "a yielding reporter went unnoticed"
  | exception Sim.Engine.Process_failure (name, Invalid_argument msg) ->
      Alcotest.(check string) "the second writer fails" "w2" name;
      Alcotest.(check string) "message"
        "Engine.yield inside atomic section \"race reporter\", which must \
         not suspend"
        msg

let experiments_race_free () =
  (* The acceptance gate: shipped workloads report zero unsynchronized
     pairs with the checker armed. Single-node: drive concurrent
     invocations through the full controller stack and read the race
     count off the engine. The cluster experiments run armed in
     test_arms's sweep, which requires them to stay byte-identical. *)
  let run =
    { Experiments.Run_config.default with Experiments.Run_config.hb = true }
  in
  let races =
    Experiments.Harness.with_run run @@ fun () ->
    Experiments.Harness.run_sim ~seed:5L (fun engine ->
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
  Alcotest.(check int) "no races in the single-node stack" 0 races

(* {2 Pruned clocks against an unpruned reference}

   The checker prunes process clocks and sync records to the current
   instant. The reference below is the same checker without that
   pruning: full vector clocks, kept forever. Driven in lockstep by
   random spawn/signal/observe/access schedules over a few shared
   instants, both must report the same races in the same order. *)

type hop =
  | Sleep of float
  | Signal of int
  | Observe of int
  | Read of int
  | Write of int
  | Spawn of hop list

let rec show_hops ops = "[" ^ String.concat "; " (List.map show_hop ops) ^ "]"

and show_hop = function
  | Sleep d -> Printf.sprintf "sleep %g" d
  | Signal i -> Printf.sprintf "signal s%d" i
  | Observe i -> Printf.sprintf "observe s%d" i
  | Read i -> Printf.sprintf "read c%d" i
  | Write i -> Printf.sprintf "write c%d" i
  | Spawn ops -> "spawn " ^ show_hops ops

let gen_schedule =
  let open QCheck.Gen in
  let leaf =
    [
      (2, map (fun d -> Sleep (float_of_int d)) (int_bound 1));
      (3, map (fun i -> Signal i) (int_bound 2));
      (3, map (fun i -> Observe i) (int_bound 2));
      (3, map (fun i -> Read i) (int_bound 2));
      (3, map (fun i -> Write i) (int_bound 2));
    ]
  in
  let rec script depth =
    let op =
      if depth = 0 then frequency leaf
      else frequency ((2, map (fun s -> Spawn s) (script (depth - 1))) :: leaf)
    in
    list_size (int_bound 7) op
  in
  list_size (int_range 1 4) (script 2)

module Ref_hb = struct
  module M = Map.Make (Int)

  type proc = { id : int; mutable vc : int M.t }

  let get vc id = Option.value ~default:0 (M.find_opt id vc)
  let join = M.union (fun _ a b -> Some (max a b))
  let bump p = p.vc <- M.add p.id (get p.vc p.id + 1) p.vc

  type t = {
    mutable next : int;
    svcs : int M.t array;
    cells : (float * (int * bool * int) list) array; (* time, accesses *)
    mutable races : (string * string * float * int * int) list;
  }

  let create () =
    {
      next = 0;
      svcs = Array.make 3 M.empty;
      cells = Array.make 3 (neg_infinity, []);
      races = [];
    }

  (* Mirrors Hb's spawn fork: the child's id is taken at the
     spawn point, and the parent moves on past what it handed down. *)
  let spawn t parent =
    t.next <- t.next + 1;
    let inherited =
      match parent with
      | None -> M.empty
      | Some p ->
          let vc = p.vc in
          bump p;
          vc
    in
    { id = t.next; vc = M.add t.next 1 inherited }

  let signal t p i =
    t.svcs.(i) <- join t.svcs.(i) p.vc;
    bump p

  let observe t p i = p.vc <- join p.vc t.svcs.(i)

  let access t p i ~write ~now =
    let atime, accs = t.cells.(i) in
    let accs = if now > atime then [] else accs in
    let own = get p.vc p.id in
    let covered =
      List.exists
        (fun (id, w, o) -> id = p.id && o = own && (w || not write))
        accs
    in
    if covered then t.cells.(i) <- (now, accs)
    else begin
      List.iter
        (fun (id, w, o) ->
          if id <> p.id && (w || write) && o > get p.vc id then
            t.races <-
              ( Printf.sprintf "c%d" i,
                (if w && write then "write/write" else "read/write"),
                now,
                id,
                p.id )
              :: t.races)
        accs;
      t.cells.(i) <- (now, (p.id, write, own) :: accs)
    end
end

let hb_pruned_matches_reference =
  QCheck.Test.make ~count:300 ~name:"pruned clocks report what full clocks do"
    (QCheck.make ~print:(fun ss -> String.concat "\n" (List.map show_hops ss))
       gen_schedule)
    (fun scripts ->
      let engine = Sim.Engine.create ~seed:1L () in
      ignore (Sim.Hb.enable engine);
      let syncs = Array.init 3 (fun _ -> Sim.Hb.make_sync ()) in
      let cells =
        Array.init 3 (fun i -> Sim.Hb.cell ~name:(Printf.sprintf "c%d" i))
      in
      let reference = Ref_hb.create () in
      let rec exec p ops =
        List.iter
          (function
            | Sleep d -> Sim.Engine.sleep d
            | Signal i ->
                Sim.Hb.signal syncs.(i);
                Ref_hb.signal reference p i
            | Observe i ->
                Sim.Hb.observe syncs.(i);
                Ref_hb.observe reference p i
            | Read i ->
                Sim.Hb.read cells.(i);
                Ref_hb.access reference p i ~write:false
                  ~now:(Sim.Engine.now engine)
            | Write i ->
                Sim.Hb.write cells.(i);
                Ref_hb.access reference p i ~write:true
                  ~now:(Sim.Engine.now engine)
            | Spawn ops -> spawn (Some p) ops)
          ops
      and spawn parent ops =
        let child = Ref_hb.spawn reference parent in
        Sim.Engine.spawn engine (fun () -> exec child ops)
      in
      List.iter (spawn None) scripts;
      Sim.Engine.run engine;
      let got =
        List.map
          (fun (r : Sim.Hb.race) ->
            ( r.Sim.Hb.cell,
              Sim.Hb.kind_name r.Sim.Hb.kind,
              r.Sim.Hb.time,
              r.Sim.Hb.first_pid,
              r.Sim.Hb.second_pid ))
          (Sim.Hb.races engine)
      in
      got = List.rev reference.Ref_hb.races)

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
          Alcotest.test_case "reporter must not suspend" `Quick
            hb_reporter_must_not_suspend;
          QCheck_alcotest.to_alcotest hb_pruned_matches_reference;
          Alcotest.test_case "experiments race-free" `Slow experiments_race_free;
        ] );
    ]
