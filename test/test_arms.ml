(* The arm sweep: every registered experiment, run in this one process
   under every arm that must be inert, against its own plain output.

   Two guarantees hold for every experiment row of seussctl (Cli.rows):
   - determinism: the plain run repeats byte for byte in one process,
     and shuffling the order of same-timestamp events (tie seeds 1-3)
     changes no byte;
   - inert until armed: the happens-before checker, the deadlock
     detector and the ownership census change no byte, alone or all
     together;
   - survives the fault plan: at a 1% fault rate the row completes
     with nothing stuck, stranded or leaked, and the sanitizers and a
     tie shuffle change no byte of its output there either.

   "Off is the same as unset" needs no runs here: test_experiments's
   run_config parse table proves every off spelling of every variable
   parses to Run_config.default, and seusslint's ambient-env rule keeps
   Run_config.of_env the only reader of the environment in lib/.

   Every run is scoped with Harness.with_run, which wins over the
   environment, so the plain baseline stays plain when the suite itself
   runs under an armed SEUSS_* variable.

   The rows name seussctl's experiment rows (Cli.rows) and give their
   arguments at sizes trimmed for the sweep; each run goes through
   Cli.run, so the sweep checks the CLI itself. The first case keeps
   the two name lists equal. *)

module Rc = Experiments.Run_config
module H = Experiments.Harness

(* [args] come after the subcommand, without --seed. [seeds]: the first
   runs every arm. A row whose determinism is checked at several run
   seeds runs each later seed plain and shuffled with that seed as tie
   seed; the two runs agreeing covers the repeat too. *)
type row = { name : string; args : string; seeds : int64 list }

let rows =
  let row ?(seeds = [ 7L ]) name args = { name; args; seeds } in
  [
    row "table1" "-n 20";
    row "table2" "-n 15";
    row "table3" "--mem-gib 1";
    row "fig4" "--sizes 64,256";
    row "fig5" "--sizes 64 --requests 128";
    row "burst" "--duration 24 --period 8 --burst-size 16";
    row "load" ~seeds:[ 1L; 2L; 3L ]
      "--hours 0.02 --functions 32 --rps 2,8 --arrival bursty --json";
    row "ablations" "-n 10";
    row "drseuss" "--functions 12";
    row "chaos" ~seeds:[ 7L; 29L; 101L ] "--json --events";
    row "reap" ~seeds:[ 7L; 29L; 101L ] "--json";
    row "evict" ~seeds:[ 5L; 17L; 43L ]
      "--functions 24 --hours 0.02 --rate 8 --sizes 0,3m,64m --json";
    row "ksm" "--mem-mib 768";
    row "autoao" "-n 8";
  ]

(* What `seussctl <name> <args> --seed <seed> [extra]` prints. *)
let render ?(extra = []) row seed () =
  Cli.run
    (List.find (fun (r : Cli.row) -> r.name = row.name) Cli.rows)
    (Cli.words row.args @ (Printf.sprintf "--seed=%Ld" seed :: extra))

(* Rows whose output depends on the order of same-instant events, each
   with the reason. For these the shuffle arms must change the output
   under some seed (so the entry cannot go stale), and every other arm
   must still be byte-identical. None does today. *)
let tie_order_dependent : (string * string) list = []

(* The fault arms run at each row's first seed. Under the fault plan a
   row's output legitimately moves, so the two arms are compared with
   each other, not with plain: arming every sanitizer and shuffling ties
   on top of the same plan must change no byte, and the run must finish
   with nothing stuck, stranded or leaked. A row that cannot pass them
   goes on this list with its reason and skips them. None does today. *)
let fault_exempt : (string * string) list = []

let fault_plan = ("fault plan", { Rc.default with Rc.fault_rate = 0.01 })

let fault_plan_all =
  ( "fault plan, every sanitizer, tie seed 2",
    {
      (snd fault_plan) with
      Rc.tie_seed = Some 2L;
      hb = true;
      deadlock = true;
      own = true;
    } )

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
    ( "all, tie seed 2",
      {
        d with
        Rc.tie_seed = Some 2L;
        hb = true;
        deadlock = true;
        own = true;
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

(* Compare every arm's output to [plain] (the output of the arm named
   [base]); for a row on the tie-order list, the shuffle arms are exempt
   and report whether any differed. *)
let compare_arms ?(base = "plain") ~cmd ~tie_dependent ~plain arms render =
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
          "%s [%s] differs from %s at line %d:\n  %s: %s\n  armed: %s"
          cmd label base line base want got)
    false arms

let sweep_row row () =
  let tie_dependent = List.mem_assoc row.name tie_order_dependent in
  let shuffled_differs =
    List.mapi
      (fun i seed ->
        let cmd = Printf.sprintf "%s %s --seed %Ld" row.name row.args seed in
        let render = render row seed in
        let plain = armed_output cmd ("plain", Rc.default) render in
        let arms =
          if i = 0 then arms
          else
            [
              ( Printf.sprintf "tie seed %Ld" seed,
                { Rc.default with Rc.tie_seed = Some seed } );
            ]
        in
        let shuffled_differs =
          compare_arms ~cmd ~tie_dependent ~plain arms render
        in
        if i = 0 && not (List.mem_assoc row.name fault_exempt) then
          ignore
            (compare_arms ~base:(fst fault_plan) ~cmd ~tie_dependent
               ~plain:(armed_output cmd fault_plan render)
               [ fault_plan_all ] render);
        shuffled_differs)
      row.seeds
  in
  if tie_dependent then
    Alcotest.(check bool)
      (row.name
     ^ ": some tie seed changes the output (else drop it from the list)")
      true
      (List.exists Fun.id shuffled_differs)

let rows_match_registry () =
  let registered = List.map (fun (r : Cli.row) -> r.name) Cli.rows in
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
    (fun (n, _) ->
      Alcotest.(check bool) (n ^ " on the fault-exempt list is a row") true
        (List.mem n swept))
    fault_exempt;
  List.iter
    (fun (r : Cli.row) ->
      Alcotest.(check bool) (r.name ^ " documented") true
        (String.length r.doc > 0))
    Cli.rows

(* The records of a CSV file as Report.write_csv writes them: every
   record ends in a newline, and a quoted field may hold commas,
   newlines and doubled quotes. *)
let csv_records text =
  let records = ref [] and record = ref [] and field = Buffer.create 16 in
  let quoted = ref false in
  let end_field () =
    record := Buffer.contents field :: !record;
    Buffer.clear field
  in
  String.iteri
    (fun i c ->
      match c with
      | '"' ->
          quoted := not !quoted;
          if !quoted && i > 0 && text.[i - 1] = '"' then Buffer.add_char field c
      | ',' when not !quoted -> end_field ()
      | '\n' when not !quoted ->
          end_field ();
          records := List.rev !record :: !records;
          record := []
      | c -> Buffer.add_char field c)
    text;
  List.rev !records

(* Every --csv writer, run at its sweep arguments: a header, at least
   one data row, and every row as wide as the header. *)
let csv_writers () =
  List.iter
    (fun name ->
      let row = List.find (fun row -> row.name = name) rows in
      let path = Filename.temp_file ("seuss-" ^ name) ".csv" in
      let extra = [ "--csv"; path ] in
      ignore (H.with_run Rc.default (render ~extra row (List.hd row.seeds)));
      let text = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      match csv_records text with
      | header :: (_ :: _ as data) when List.for_all (( <> ) "") header ->
          List.iteri
            (fun i r ->
              Alcotest.(check int)
                (Printf.sprintf "%s: row %d width" name (i + 1))
                (List.length header) (List.length r))
            data
      | _ -> Alcotest.failf "%s: want a named header and a data row" name)
    [ "fig4"; "fig5"; "burst"; "chaos"; "reap"; "load"; "evict" ]

let () =
  Alcotest.run "arms"
    [
      ( "registry",
        [ Alcotest.test_case "rows match" `Quick rows_match_registry ] );
      ("csv", [ Alcotest.test_case "every writer" `Slow csv_writers ]);
      ( "sweep",
        List.map
          (fun row -> Alcotest.test_case row.name `Slow (sweep_row row))
          rows );
    ]
