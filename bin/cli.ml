(* The experiment subcommands of seussctl, one row each: its flags and
   what it prints live in [term], and [quick]/[full] are the argument
   lines `seussctl all` runs it with. seussctl, `all`, `info` and the
   arm sweep (test/test_arms.ml) all run an experiment through its row,
   so nothing describes an experiment twice. *)

open Cmdliner
module E = Experiments

(* Numeric flags are range-checked where Cmdliner parses them, so an
   out-of-range value is a usage error naming the flag, never a hang or
   an uncaught exception inside an experiment. *)
let bounded conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let pos_int = bounded Arg.int (fun n -> n > 0) "a positive integer"
let nonneg_int = bounded Arg.int (fun n -> n >= 0) "a non-negative integer"

let pos_float =
  bounded Arg.float
    (fun x -> Float.is_finite x && x > 0.0)
    "a finite positive number"

let nonneg_float =
  bounded Arg.float
    (fun x -> Float.is_finite x && x >= 0.0)
    "a finite non-negative number"

let seed_arg =
  let doc = "PRNG seed (experiments are deterministic per seed)." in
  Arg.(value & opt int64 7L & info [ "seed" ] ~docv:"SEED" ~doc)

(* Every row takes --json and --csv: its experiment's term evaluates to
   the result's Report.t, and [row] prints it with Report's writers. *)
let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the result's table as CSV.")

let json_arg =
  let doc =
    "Emit the result as one canonical JSON object (bit-identical across \
     runs of the same seed) instead of text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

type row = {
  name : string;
  doc : string;
  term : string Term.t;
  quick : string list;
  full : string list;
}

(* By default both scales run the subcommand's own defaults, which are
   the paper's parameters. *)
let row name ?(quick = [ "" ]) ?(full = [ "" ]) doc report =
  let print report json csv =
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (E.Report.to_csv report)))
      csv;
    if json then E.Report.to_json report else E.Report.to_text report
  in
  let term = Term.(const print $ report $ json_arg $ csv_arg) in
  { name; doc; term; quick; full }

let table1 =
  let invocations =
    Arg.(
      value & opt pos_int 475
      & info [ "n"; "invocations" ] ~docv:"N"
          ~doc:"Invocations per path (paper: 475).")
  in
  let run invocations seed =
    E.Table1.report (E.Table1.run ~invocations ~seed ())
  in
  row "table1" ~quick:[ "-n 60" ]
    "Table 1: SEUSS microbenchmarks"
    Term.(const run $ invocations $ seed_arg)

let table2 =
  let invocations =
    Arg.(value & opt nonneg_int 50 & info [ "n" ] ~docv:"N" ~doc:"Invocations per cell.")
  in
  let run invocations seed =
    E.Table2.report (E.Table2.run ~invocations ~seed ())
  in
  row "table2" ~quick:[ "-n 15" ]
    "Table 2: latency across AO levels"
    Term.(const run $ invocations $ seed_arg)

let table3 =
  let mem_gib =
    Arg.(
      value
      & opt (bounded int (fun n -> n >= 1 && n <= 256) "an integer in [1, 256]") 88
      & info [ "mem-gib" ] ~docv:"GIB"
          ~doc:
            "Node memory budget in GiB, 1 to 256 (paper: 88; smaller runs \
             faster).")
  in
  let rate_sample =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "rate-sample" ] ~docv:"N"
          ~doc:
            "Instances created per creation-rate measurement (default: the \
             measured density, at most 4000 for SEUSS).")
  in
  let run mem_gib rate_sample seed =
    let budget_bytes =
      Int64.mul (Int64.of_int mem_gib) (Int64.of_int (Mem.Mconfig.mib 1024))
    in
    E.Table3.report (E.Table3.run ~budget_bytes ?rate_sample ~seed ())
  in
  row "table3" ~quick:[ "--mem-gib 6 --rate-sample 200" ]
    "Table 3: cache density and creation rates"
    Term.(const run $ mem_gib $ rate_sample $ seed_arg)

let fig4 =
  let sizes =
    Arg.(
      value
      & opt (list pos_int) E.Fig4.default_set_sizes
      & info [ "sizes" ] ~docv:"M,M,..."
          ~doc:"Unique-function set sizes (one trial each).")
  in
  let threads =
    Arg.(value & opt pos_int 32 & info [ "threads" ] ~docv:"C" ~doc:"Client threads.")
  in
  let run sizes threads seed =
    E.Fig4.report (E.Fig4.run ~set_sizes:sizes ~client_threads:threads ~seed ())
  in
  row "fig4" ~quick:[ "--sizes 64,256,1024,4096" ]
    "Figure 4: platform throughput vs set size"
    Term.(const run $ sizes $ threads $ seed_arg)

let fig5 =
  let sizes =
    Arg.(
      value & opt (list pos_int) [ 64; 2048; 65536 ]
      & info [ "sizes" ] ~docv:"M,M,..." ~doc:"Set sizes (paper: 64,2048,65536).")
  in
  let requests =
    Arg.(value & opt pos_int 2048 & info [ "requests" ] ~docv:"N" ~doc:"Measured requests per panel.")
  in
  let run sizes requests seed =
    E.Fig5.report (E.Fig5.run ~set_sizes:sizes ~requests ~seed ())
  in
  row "fig5" ~quick:[ "--sizes 64,2048 --requests 768" ]
    "Figure 5: end-to-end latency percentiles"
    Term.(const run $ sizes $ requests $ seed_arg)

let burst =
  let period =
    Arg.(
      value & opt pos_float 32.0
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Burst period (paper: 32, 16, 8).")
  in
  let duration =
    Arg.(value & opt nonneg_float 300.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let size =
    Arg.(value & opt nonneg_int 64 & info [ "burst-size" ] ~docv:"N" ~doc:"Concurrent requests per burst.")
  in
  let run period duration size seed =
    E.Fig_burst.report
      (E.Fig_burst.run ~period ~duration ~burst_size:size ~seed ())
  in
  row "burst" ~quick:[ "--period 16 --duration 96" ]
    ~full:[ "--period 32"; "--period 16"; "--period 8" ]
    "Figures 6-8: burst resiliency"
    Term.(const run $ period $ duration $ size $ seed_arg)

let load =
  let hours =
    Arg.(
      value
      & opt pos_float E.Fig_load.default_hours
      & info [ "hours" ] ~docv:"H" ~doc:"Simulated hours of arrivals per arm.")
  in
  let functions =
    Arg.(
      value
      & opt pos_int E.Fig_load.default_functions
      & info [ "functions" ] ~docv:"M"
          ~doc:"Synthetic functions under the Zipf popularity model.")
  in
  let alpha =
    Arg.(
      value
      & opt nonneg_float E.Fig_load.default_alpha
      & info [ "alpha" ] ~docv:"A" ~doc:"Zipf popularity exponent.")
  in
  let arrival =
    let names = E.Fig_load.arrival_names in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) names)) E.Fig_load.default_arrival
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:("Inter-arrival process: " ^ doc_alts ~quoted:false names ^ "."))
  in
  let rps =
    Arg.(
      value
      & opt (list pos_float) E.Fig_load.default_rps
      & info [ "rps" ] ~docv:"R,R,..." ~doc:"Offered mean arrival rates to sweep.")
  in
  let save_traces =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-traces" ] ~docv:"PREFIX"
          ~doc:
            "Also write each sweep point's synthesized trace to \
             $(docv)-<rps>.jsonl (replayable with $(b,--trace)).")
  in
  let trace_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Replay a saved trace (JSONL) as a single sweep point instead \
             of synthesizing; shape flags are ignored.")
  in
  let run hours functions alpha arrival rps save_traces trace_in seed =
    let loaded =
      Option.map
        (fun path ->
          match Workload.Trace.load ~path with
          | Ok trace -> trace
          | Error msg ->
              Printf.eprintf "seussctl: cannot load trace %s: %s\n" path msg;
              exit 2)
        trace_in
    in
    let r =
      match loaded with
      | Some trace -> E.Fig_load.run_trace ~seed trace
      | None -> E.Fig_load.run ~hours ~functions ~alpha ~arrival ~rps ~seed ()
    in
    Option.iter
      (fun prefix ->
        List.iter
          (fun (p : E.Fig_load.point) ->
            (* A replayed trace is saved as loaded. Synthesis is pure,
               so a sweep's traces are rematerialized from the report
               parameters. *)
            let trace =
              match loaded with
              | Some trace -> trace
              | None ->
                  Workload.Trace.synthesize ~functions:r.E.Fig_load.functions
                    ~alpha:r.E.Fig_load.alpha
                    ~arrival:
                      (E.Fig_load.arrival_of_name r.E.Fig_load.arrival
                         ~rate:p.E.Fig_load.offered_rps)
                    ~horizon:r.E.Fig_load.horizon ~seed:r.E.Fig_load.seed
            in
            let path =
              Printf.sprintf "%s-%g.jsonl" prefix p.E.Fig_load.offered_rps
            in
            Workload.Trace.save ~path trace;
            Printf.eprintf "seussctl: wrote %s (%d events)\n" path
              (Array.length trace.Workload.Trace.events))
          r.E.Fig_load.points)
      save_traces;
    E.Fig_load.report r
  in
  row "load"
    ~quick:[ "--functions 64 --hours 0.05 --rps 2,8 --arrival bursty" ]
    "Extension: open-loop tail latency vs offered load (Zipf/MMPP trace \
     replay against SEUSS and the container baselines)"
    Term.(
      const run $ hours $ functions $ alpha $ arrival $ rps $ save_traces
      $ trace_in $ seed_arg)

let ablations =
  let invocations =
    Arg.(value & opt nonneg_int 30 & info [ "n" ] ~docv:"N" ~doc:"Invocations per cell.")
  in
  let run invocations seed =
    E.Ablations.report (E.Ablations.run ~invocations ~seed ())
  in
  row "ablations" ~quick:[ "-n 10" ]
    "Design-choice ablations (DESIGN.md)"
    Term.(const run $ invocations $ seed_arg)

let drseuss =
  let nodes =
    Arg.(value & opt pos_int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let functions =
    Arg.(value & opt nonneg_int 40 & info [ "functions" ] ~docv:"M" ~doc:"Unique functions.")
  in
  let run nodes functions seed =
    E.Drseuss_exp.report (E.Drseuss_exp.run ~nodes ~functions ~seed ())
  in
  row "drseuss" ~quick:[ "--functions 12" ]
    "Extension: distributed snapshot cache (paper S9)"
    Term.(const run $ nodes $ functions $ seed_arg)

let chaos =
  let nodes =
    Arg.(value & opt pos_int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let functions =
    Arg.(value & opt pos_int 25 & info [ "functions" ] ~docv:"M" ~doc:"Unique functions (default coprime to the cluster size, so repeats migrate across nodes and exercise the fetch path).")
  in
  let calls =
    Arg.(
      value & opt pos_int 200
      & info [ "calls" ] ~docv:"K" ~doc:"Invocations per fault rate.")
  in
  let rates =
    Arg.(
      value
      & opt
          (list
             (bounded Arg.float (fun r -> r >= 0.0 && r <= 1.0) "in [0, 1]"))
          E.Fig_chaos.default_rates
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Injected per-site fault rates to sweep (0 = control arm).")
  in
  let events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Also dump the highest-rate run's failure/recovery timeline \
                as JSONL (crashes, evictions, retries, failovers).")
  in
  let run nodes functions calls rates events seed =
    let r = E.Fig_chaos.run ~nodes ~functions ~calls ~rates ~seed () in
    let report = E.Fig_chaos.report r in
    if events then
      {
        report with
        sections = report.sections @ [ E.Report.raw r.E.Fig_chaos.timeline ];
      }
    else report
  in
  row "chaos"
    "Extension: DR-SEUSS availability and tail latency under \
     deterministic fault injection"
    Term.(
      const run $ nodes $ functions $ calls $ rates $ events $ seed_arg)

let reap =
  let functions =
    Arg.(
      value & opt pos_int 8
      & info [ "functions" ] ~docv:"M" ~doc:"Distinct functions.")
  in
  let rounds =
    Arg.(
      value & opt pos_int 20
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Measured warm rounds per arm (the recording round is \
             excluded).")
  in
  let run functions rounds seed =
    E.Fig_reap.report (E.Fig_reap.run ~functions ~rounds ~seed ())
  in
  row "reap" ~quick:[ "--functions 4 --rounds 8" ]
    "Extension: REAP-style working-set record & prefault on warm \
     snapshot deploys, on vs off"
    Term.(const run $ functions $ rounds $ seed_arg)

let evict =
  let cache_bytes =
    let parse s =
      match E.Run_config.parse_bytes s with
      | Some v -> Ok v
      | None -> Error (`Msg (Printf.sprintf "malformed cache size %S" s))
    in
    Arg.conv ~docv:"B" (parse, fun ppf v -> Format.fprintf ppf "%Ld" v)
  in
  let policy =
    let parse s =
      match Seuss.Config.policy_of_name (String.lowercase_ascii s) with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown eviction policy %S" s))
    in
    Arg.conv ~docv:"POLICY"
      (parse, fun ppf p -> Format.pp_print_string ppf (Seuss.Config.policy_name p))
  in
  let hours =
    Arg.(
      value
      & opt pos_float E.Fig_evict.default_hours
      & info [ "hours" ] ~docv:"H" ~doc:"Simulated hours of arrivals per arm.")
  in
  let functions =
    Arg.(
      value
      & opt pos_int E.Fig_evict.default_functions
      & info [ "functions" ] ~docv:"M"
          ~doc:"Synthetic functions under the Zipf popularity model.")
  in
  let alpha =
    Arg.(
      value
      & opt nonneg_float E.Fig_evict.default_alpha
      & info [ "alpha" ] ~docv:"A" ~doc:"Zipf popularity exponent.")
  in
  let rate =
    Arg.(
      value
      & opt pos_float E.Fig_evict.default_rate
      & info [ "rate" ] ~docv:"R" ~doc:"Offered mean arrival rate, req/s.")
  in
  let sizes =
    Arg.(
      value
      & opt (list cache_bytes) E.Fig_evict.default_sizes
      & info [ "sizes" ] ~docv:"B,B,..."
          ~doc:
            "Cache budgets to sweep, bytes with optional binary k/m/g \
             suffix; 0 is the disarmed baseline.")
  in
  let policy =
    Arg.(
      value
      & opt policy E.Fig_evict.default_policy
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Eviction policy: lru or ws.")
  in
  let run hours functions alpha rate sizes policy seed =
    E.Fig_evict.report
      (E.Fig_evict.run ~hours ~functions ~alpha ~rate ~sizes ~policy ~seed ())
  in
  row "evict"
    ~quick:[ "--functions 24 --hours 0.02 --rate 8 --sizes 0,3m,64m" ]
    "Extension: content-addressed snapshot store under memory pressure — \
     hit rate, dedup ratio and tail latency vs cache budget"
    Term.(
      const run $ hours $ functions $ alpha $ rate $ sizes $ policy $ seed_arg)

let ksm =
  let mem =
    Arg.(value & opt pos_int 3072 & info [ "mem-mib" ] ~docv:"MIB" ~doc:"Node memory budget.")
  in
  let run mem seed = E.Ksm_exp.report (E.Ksm_exp.run ~budget_mib:mem ~seed ()) in
  row "ksm" ~quick:[ "--mem-mib 1536" ] ~full:[ "--mem-mib 4096" ]
    "Ablation: retroactive dedup (KSM) vs snapshot stacks"
    Term.(const run $ mem $ seed_arg)

let autoao =
  let invocations =
    Arg.(value & opt nonneg_int 20 & info [ "n" ] ~docv:"N" ~doc:"Invocations per cell.")
  in
  let run invocations seed =
    E.Auto_ao.report (E.Auto_ao.run ~invocations ~seed ())
  in
  row "autoao" ~quick:[ "-n 8" ]
    "Extension: black-box discovery of AO opportunities (paper S9)"
    Term.(const run $ invocations $ seed_arg)

let rows =
  [
    table1; table2; table3; fig4; fig5; burst; load; ablations; drseuss;
    chaos; reap; evict; ksm; autoao;
  ]

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let run row args =
  match
    Cmd.eval_value ~catch:false
      ~argv:(Array.of_list (row.name :: args))
      (Cmd.v (Cmd.info row.name) row.term)
  with
  | Ok (`Ok out) -> out
  | Ok (`Help | `Version) | Error _ ->
      Printf.ksprintf failwith "Cli.run: %s %s did not run" row.name
        (String.concat " " args)
