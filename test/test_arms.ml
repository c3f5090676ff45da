(* The arm sweep: every registered experiment, run in this one process
   under every arm that must be inert, against its own plain output.

   Two guarantees hold for every row of Experiments.All.registry:
   - determinism: the plain run repeats byte for byte in one process,
     and shuffling the order of same-timestamp events (tie seeds 1-3)
     changes no byte;
   - inert until armed: the happens-before checker, the deadlock
     detector, the ownership census, the timeline sampler and trace
     sampling change no byte, alone or all together.

   "Off is the same as unset" needs no runs here: test_experiments's
   run_config parse table proves every off spelling of every variable
   parses to Run_config.default, and seusslint's ambient-env rule keeps
   Run_config.of_env the only reader of the environment in lib/.

   Every run is scoped with Harness.with_run, which wins over the
   environment, so the plain baseline stays plain when the suite itself
   runs under an armed SEUSS_* variable.

   The rows carry seussctl's arguments and render what the subcommand
   prints at a given --seed. They live here, not in the registry,
   because a runnable row in lib/ would be code only tests use; the
   first case keeps the two name lists equal. *)

module Rc = Experiments.Run_config
module H = Experiments.Harness

let json j = Obs.Json.to_string j ^ "\n"
let mib n = Int64.of_int (Mem.Mconfig.mib n)

(* [seeds]: the first runs every arm. A row whose determinism is
   checked at several run seeds runs each later seed plain and shuffled
   with that seed as tie seed; the two runs agreeing covers the repeat
   too. *)
type row = {
  name : string;
  args : string;  (** seussctl arguments, without --seed *)
  seeds : int64 list;
  render : int64 -> string;
}

let rows =
  let open Experiments in
  let row ?(seeds = [ 7L ]) name args render = { name; args; seeds; render } in
  [
    row "table1" "table1 -n 20" (fun seed ->
        Table1.render (Table1.run ~invocations:20 ~seed ()));
    row "table2" "table2 -n 15" (fun seed ->
        Table2.render (Table2.run ~invocations:15 ~seed ()));
    row "table3" "table3 --mem-gib 1" (fun seed ->
        Table3.render (Table3.run ~budget_bytes:(mib 1024) ~seed ()));
    row "fig4" "fig4 --sizes 64,256" (fun seed ->
        Fig4.render
          (Fig4.run ~set_sizes:[ 64; 256 ] ~client_threads:32 ~seed ()));
    row "fig5" "fig5 --sizes 64 --requests 128" (fun seed ->
        Fig5.render (Fig5.run ~set_sizes:[ 64 ] ~requests:128 ~seed ()));
    row "burst" "burst --duration 24 --period 8 --burst-size 16" (fun seed ->
        Fig_burst.render
          (Fig_burst.run ~period:8.0 ~duration:24.0 ~burst_size:16 ~seed ()));
    row "load" ~seeds:[ 1L; 2L; 3L ]
      "load --hours 0.02 --functions 32 --rps 2,8 --arrival bursty --json"
      (fun seed ->
        json
          (Fig_load.to_json
             (Fig_load.run ~hours:0.02 ~functions:32 ~rps:[ 2.0; 8.0 ]
                ~arrival:"bursty" ~seed ())));
    row "ablations" "ablations -n 10" (fun seed ->
        Ablations.render (Ablations.run ~invocations:10 ~seed ()));
    row "drseuss" "drseuss --functions 12" (fun seed ->
        Drseuss_exp.render (Drseuss_exp.run ~functions:12 ~seed ()));
    row "chaos" ~seeds:[ 7L; 29L; 101L ] "chaos --json --events" (fun seed ->
        let r = Fig_chaos.run ~seed () in
        json (Fig_chaos.to_json r) ^ r.Fig_chaos.timeline);
    row "reap" ~seeds:[ 7L; 29L; 101L ] "reap --json" (fun seed ->
        json (Fig_reap.to_json (Fig_reap.run ~seed ())));
    row "evict" ~seeds:[ 5L; 17L; 43L ]
      "evict --functions 24 --hours 0.02 --rate 8 --sizes 0,3m,64m --json"
      (fun seed ->
        json
          (Fig_evict.to_json
             (Fig_evict.run ~functions:24 ~hours:0.02 ~rate:8.0
                ~sizes:[ 0L; mib 3; mib 64 ] ~seed ())));
    row "ksm" "ksm --mem-mib 768" (fun seed ->
        Ksm_exp.render (Ksm_exp.run ~budget_mib:768 ~seed ()));
    row "autoao" "autoao -n 8" (fun seed ->
        Auto_ao.render (Auto_ao.run ~invocations:8 ~seed ()));
  ]

(* Rows whose output depends on the order of same-instant events, each
   with the reason. For these the shuffle arms must change the output
   under some seed (so the entry cannot go stale), and every other arm
   must still be byte-identical. *)
let tie_order_dependent =
  [
    ( "burst",
      "same-instant arrivals at the capacity-1 FIFOs of \
       Platform.Controller's pipeline and Seuss.Shim's connection are \
       served in engine tie order, and burst plots every request" );
  ]

let arms : (string * Rc.t) list =
  let d = Rc.default in
  [
    ("repeat", d);
    ("tie seed 1", { d with Rc.tie_seed = Some 1L });
    ("tie seed 2", { d with Rc.tie_seed = Some 2L });
    ("tie seed 3", { d with Rc.tie_seed = Some 3L });
    ("hb", { d with Rc.hb = true });
    ("deadlock", { d with Rc.deadlock = true });
    ("own", { d with Rc.own = true });
    ("timeline", { d with Rc.timeline = true });
    ("trace 1/7", { d with Rc.trace_sample = Some 7 });
    ( "all, tie seed 2",
      {
        d with
        Rc.tie_seed = Some 2L;
        hb = true;
        deadlock = true;
        own = true;
        timeline = true;
        trace_sample = Some 7;
      } );
  ]

(* The first line where two outputs part, for a readable failure. *)
let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys ->
        if String.equal x y then go (n + 1) (xs, ys) else (n, x, y)
    | x :: _, [] -> (n, x, "<end of output>")
    | [], y :: _ -> (n, "<end of output>", y)
    | [], [] -> (n, "", "")
  in
  go 1 (la, lb)

(* Run [render] under [run], then check the findings the harness keeps
   for its most recent run: nothing parked at quiescence, no stranded
   waiter, no leaked resource. *)
let armed_output cmd (label, run) render =
  let out = H.with_run run render in
  let where what = Printf.sprintf "%s [%s]: %s" cmd label what in
  Alcotest.(check int) (where "no stuck waiters") 0 (H.last_stuck_waiters ());
  Alcotest.(check int) (where "no stranded waiters") 0
    (List.length (H.last_stranded_waiters ()));
  Alcotest.(check (list string)) (where "no leaked resources") []
    (List.map fst (H.last_leaked_resources ()));
  out

(* Compare every arm's output to [plain]; for a row on the tie-order
   list, the shuffle arms are exempt and report whether any differed. *)
let compare_arms ~cmd ~tie_dependent ~plain arms render =
  List.fold_left
    (fun shuffled_differs ((label, run) as arm) ->
      let out = armed_output cmd arm render in
      let identical = String.equal plain out in
      if tie_dependent && Option.is_some run.Rc.tie_seed then
        shuffled_differs || not identical
      else if identical then shuffled_differs
      else
        let line, want, got = first_difference plain out in
        Alcotest.failf
          "%s [%s] differs from plain at line %d:\n  plain: %s\n  armed: %s"
          cmd label line want got)
    false arms

let sweep_row row () =
  let tie_dependent = List.mem_assoc row.name tie_order_dependent in
  let shuffled_differs =
    List.mapi
      (fun i seed ->
        let cmd = Printf.sprintf "%s --seed %Ld" row.args seed in
        let render () = row.render seed in
        let plain = armed_output cmd ("plain", Rc.default) render in
        let arms =
          if i = 0 then arms
          else
            [
              ( Printf.sprintf "tie seed %Ld" seed,
                { Rc.default with Rc.tie_seed = Some seed } );
            ]
        in
        compare_arms ~cmd ~tie_dependent ~plain arms render)
      row.seeds
  in
  if tie_dependent then
    Alcotest.(check bool)
      (row.name
     ^ ": some tie seed changes the output (else drop it from the list)")
      true
      (List.exists Fun.id shuffled_differs)

let rows_match_registry () =
  let registered = List.map fst Experiments.All.registry in
  let swept = List.map (fun row -> row.name) rows in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " has a sweep row") true (List.mem n swept))
    registered;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is a registered experiment") true
        (List.mem n registered))
    swept;
  Alcotest.(check int) "row names unique" (List.length swept)
    (List.length (List.sort_uniq compare swept));
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) (n ^ " on the tie-order list is a row") true
        (List.mem n swept))
    tie_order_dependent;
  List.iter
    (fun (n, doc) ->
      Alcotest.(check bool) (n ^ " documented") true (String.length doc > 0))
    Experiments.All.registry

let () =
  Alcotest.run "arms"
    [
      ( "registry",
        [ Alcotest.test_case "rows match" `Quick rows_match_registry ] );
      ( "sweep",
        List.map
          (fun row -> Alcotest.test_case row.name `Slow (sweep_row row))
          rows );
    ]
