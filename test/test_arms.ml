(* The arm sweep: every registered experiment, run under every arm that
   must be inert, against its own plain output, and that plain output
   against the row's committed golden.

   These guarantees hold for every experiment row of seussctl (Cli.rows):
   - the contract: at the row's first seed, the plain output is the one
     committed in test/arms_golden/<row>.txt;
   - determinism: the plain run repeats byte for byte in one process,
     and shuffling the order of same-timestamp events (tie seeds 1-3)
     changes no byte;
   - inert until armed: the happens-before checker, the deadlock
     detector and the ownership census change no byte, alone or all
     together;
   - survives the fault plan: at a 1% fault rate the row completes
     with nothing stuck, stranded or leaked, its output is the one
     committed in test/arms_golden/<row>.fault.txt, and the sanitizers
     and a tie shuffle change no byte of it.

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

(* With ARMS_GOLDEN_DIR set, each row's plain output at its first seed
   must equal <dir>/arms-<row>.out, and its fault-plan output
   <dir>/arms-<row>.fault.out: the seussctl binary's output at the same
   arguments, which test/dune writes and diffs against the committed
   test/arms_golden/<row>.txt and <row>.fault.txt. So each golden is
   checked on the run the sweep makes anyway. A row with no golden, or
   no rule in test/dune that writes its output, fails. *)
let check_golden ?(kind = "") row text =
  match Sys.getenv_opt "ARMS_GOLDEN_DIR" with
  | None | Some "" -> ()
  | Some dir ->
      let name = row.name ^ kind in
      let golden =
        Filename.concat dir (Filename.concat "arms_golden" (name ^ ".txt"))
      and binary = Filename.concat dir ("arms-" ^ name ^ ".out") in
      List.iter
        (fun path ->
          if not (Sys.file_exists path) then
            Alcotest.failf "%s: no %s (list it in test/dune)" row.name path)
        [ golden; binary ];
      let want = In_channel.with_open_bin binary In_channel.input_all in
      if not (String.equal want text) then
        let line, w, g = first_difference want text in
        Alcotest.failf
          "%s: in-process output differs from %s at line %d:\n\
          \  binary: %s\n\
          \  in-process: %s"
          name binary line w g

let sweep_row row () =
  let tie_dependent = List.mem_assoc row.name tie_order_dependent in
  let shuffled_differs =
    List.mapi
      (fun i seed ->
        let cmd = Printf.sprintf "%s %s --seed %Ld" row.name row.args seed in
        let render = render row seed in
        let plain = armed_output cmd ("plain", Rc.default) render in
        if i = 0 then check_golden row plain;
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
        if i = 0 && not (List.mem_assoc row.name fault_exempt) then begin
          let faulted = armed_output cmd fault_plan render in
          check_golden ~kind:".fault" row faulted;
          ignore
            (compare_arms ~base:(fst fault_plan) ~cmd ~tie_dependent
               ~plain:faulted [ fault_plan_all ] render)
        end;
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

(* What [row] prints at its sweep arguments and first seed, with
   [extra] after the arguments. *)
let output ~extra row =
  H.with_run Rc.default (render ~extra row (List.hd row.seeds))

let sweep_row_named name = List.find (fun row -> row.name = name) rows

(* What [row] prints at its sweep arguments with --csv, and the CSV's
   records. *)
let csv_of row =
  let path = Filename.temp_file ("seuss-" ^ row.name) ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let out = output ~extra:[ "--csv"; path ] row in
      (out, csv_records (In_channel.with_open_bin path In_channel.input_all)))

(* The JSON object of a --json output: its first line (chaos's --events
   lines follow it). *)
let json_object name out =
  match Obs.Json.of_string (List.hd (String.split_on_char '\n' out)) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s --json: %s" name msg

(* What [row] prints with --json at its sweep arguments, and its JSON
   object. *)
let json_of row =
  let args = List.filter (( <> ) "--json") (Cli.words row.args) in
  let out =
    output { row with args = String.concat " " args } ~extra:[ "--json" ]
  in
  (out, json_object row.name out)

(* Every row's --csv, run at its sweep arguments: a header, at least one
   data row, and every row as wide as the header. *)
let csv_writers () =
  List.iter
    (fun (r : Cli.row) ->
      let name = r.name in
      match snd (csv_of (sweep_row_named name)) with
      | header :: (_ :: _ as data) when List.for_all (( <> ) "") header ->
          List.iteri
            (fun i r ->
              Alcotest.(check int)
                (Printf.sprintf "%s: row %d width" name (i + 1))
                (List.length header) (List.length r))
            data
      | _ -> Alcotest.failf "%s: want a named header and a data row" name)
    Cli.rows

(* Every row's --json, run at its sweep arguments, parses and repeats
   byte for byte. *)
let json_writers () =
  List.iter
    (fun (r : Cli.row) ->
      let row = sweep_row_named r.name in
      let first, _ = json_of row and again, _ = json_of row in
      Alcotest.(check string) (r.name ^ " --json repeats") first again)
    Cli.rows

let member_exn key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "no member %s" key

(* The writers read one table: each evict arm's p99_ms in the JSON is the
   CSV's p99_ms cell at CSV precision. evict's sweep arguments include
   --json, so one run prints the JSON and writes the CSV. *)
let writers_agree () =
  let row = sweep_row_named "evict" in
  let out, records = csv_of row in
  let arms =
    match member_exn "arms" (json_object row.name out) with
    | Obs.Json.List arms -> arms
    | _ -> Alcotest.fail "arms is not a list"
  in
  match records with
  | header :: data ->
      let index =
        let rec go i = function
          | [] -> Alcotest.fail "no p99_ms column"
          | "p99_ms" :: _ -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 header
      in
      Alcotest.(check int) "one record per arm" (List.length arms)
        (List.length data);
      List.iter2
        (fun arm record ->
          match Obs.Json.to_float (member_exn "p99_ms" arm) with
          | Some p99 ->
              Alcotest.(check string) "p99_ms" (Printf.sprintf "%.6f" p99)
                (List.nth record index)
          | None -> Alcotest.fail "p99_ms is not a number")
        arms data
  | [] -> Alcotest.fail "empty CSV"

(* A table's numbers are numbers: Table 2's paper value for the
   network+interp AO cold start is 7.5 in the JSON. *)
let paper_is_numeric () =
  let _, json = json_of (sweep_row_named "table2") in
  let quantity = "Cold start, network+interp AO" in
  let row =
    match member_exn "quantities" json with
    | Obs.Json.List rows -> (
        match
          List.find_opt
            (fun q -> Obs.Json.to_str (member_exn "quantity" q) = Some quantity)
            rows
        with
        | Some row -> row
        | None -> Alcotest.failf "no %S row" quantity)
    | _ -> Alcotest.fail "quantities is not a list"
  in
  Alcotest.(check (option (float 0.0))) "paper" (Some 7.5)
    (Obs.Json.to_float (member_exn "paper" row))

let () =
  Alcotest.run "arms"
    [
      ( "registry",
        [ Alcotest.test_case "rows match" `Quick rows_match_registry ] );
      ("csv", [ Alcotest.test_case "every writer" `Slow csv_writers ]);
      ( "json",
        [
          Alcotest.test_case "every writer" `Slow json_writers;
          Alcotest.test_case "writers share one table" `Slow writers_agree;
          Alcotest.test_case "paper values are numbers" `Slow paper_is_numeric;
        ] );
      ( "sweep",
        List.map
          (fun row -> Alcotest.test_case row.name `Slow (sweep_row row))
          rows );
    ]
