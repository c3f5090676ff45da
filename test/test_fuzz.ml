(* Boundary fuzz: seeded byte mutations of valid inputs (Mutate), fed
   to every parser that reads bytes from outside the program. Each must
   return Ok or Error and never raise. The corpus is valid input of each
   format.

   The generator is seeded from the shared property seed, so a failure
   reproduces with the same SEUSS_PROP_SEED (see Prop_seed). *)

let base_seed = Prop_seed.base ~default:31L
let count = 5000

(* [parse] must not raise on any mutant of [corpus]. *)
let never_raises name corpus parse =
  let rand = Mutate.rand ~seed:base_seed name in
  QCheck_alcotest.to_alcotest ~rand
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:(Printf.sprintf "%S") (Mutate.mutant corpus))
       (fun s ->
         parse s;
         true))

let ignore_result (_ : (_, string) result) = ()

(* {1 Corpora} *)

(* One line of each kind `seussctl events` prints. *)
let event_lines =
  [
    {|{"ts":5.0542431175999969,"type":"snapshot_capture","name":"nodejs-base","pages":29361,"bytes":120262656}|};
    {|{"ts":5.0543631175999968,"type":"invoke_start","fn_id":"fn-0"}|};
    {|{"ts":5.0543631175999968,"type":"fault_injected","site":"oom_storm","detail":"allocation spike"}|};
    {|{"ts":5.074788126399997,"type":"cow_fault","uc_id":3,"pages":1}|};
    {|{"ts":5.0789343463999961,"type":"snap_delta","snapshot":"fn-fn-0","parent":"nodejs-base","delta_pages":546,"delta_bytes":2236416}|};
    {|{"ts":5.0789343463999961,"type":"snap_dedup","snapshot":"fn-fn-0","delta_pages":546,"shared_pages":0,"unique_pages":546}|};
    {|{"ts":5.0997510499999956,"type":"invoke_finish","fn_id":"fn-0","path":"cold","queue":0,"deploy":0.00041700000000055581,"import":0.024154228799998734,"run":0.020816703599999542,"total":0.045387932399998832,"ok":true}|};
    {|{"ts":8.1526765275999988,"type":"invoke_retry","fn_id":"fn-0"}|};
    {|{"ts":12.177835356400005,"type":"oom_wake","free_bytes":94366781440}|};
    {|{"ts":14.181864758800005,"type":"uc_reclaim","uc_id":12,"fn_id":"fn-0"}|};
  ]

let json_corpus =
  event_lines
  @ [
      {|[1, -2.5e3, "a\"b\\cé", [], {}, [[null]], true, false]|};
      {|{"nested": {"list": [0.1, 2, {"k": "v"}], "empty": ""}}|};
    ]

let jsonl_corpus = [ String.concat "\n" event_lines ^ "\n" ]

let trace_corpus =
  [
    Workload.Trace.to_jsonl
      (Workload.Trace.synthesize ~functions:4 ~alpha:1.1
         ~arrival:(Workload.Arrival.poisson ~rate:2.0)
         ~horizon:4.0 ~seed:3L);
  ]

(* Small step budget: mutants may loop forever. *)
let minijs_hooks =
  { Interp.Eval.default_hooks with Interp.Eval.max_ops = 2_000 }

let run_minijs source =
  match
    Interp.Minijs.load ~hooks:minijs_hooks ~host:Interp.Builtins.null_host
      source
  with
  | Error _ -> ()
  | Ok p -> ignore_result (Interp.Minijs.run_main p ~args_literal:"{}")

let run_config_values =
  [ "1"; "0"; "yes"; "off"; "42"; "0.05"; "1/7"; "4m"; "1g"; "lru"; "ws" ]

(* Each variable's parser sees the mutant on its own: [parse] stops at
   the first malformed variable. *)
let run_config value =
  List.iter
    (fun var -> ignore_result (Experiments.Run_config.parse [ (var, value) ]))
    Experiments.Run_config.vars;
  ignore (Experiments.Run_config.parse_bytes value)

let () =
  Alcotest.run "fuzz"
    [
      ( "boundaries",
        [
          never_raises "Obs.Json.of_string" json_corpus (fun s ->
              ignore_result (Obs.Json.of_string s));
          never_raises "Obs.Log.parse_jsonl" jsonl_corpus (fun s ->
              ignore_result (Obs.Log.parse_jsonl s));
          never_raises "Workload.Trace.of_jsonl" trace_corpus (fun s ->
              ignore_result (Workload.Trace.of_jsonl s));
          never_raises Mutate.minijs_name Mutate.minijs_corpus run_minijs;
          never_raises "Run_config.parse + parse_bytes" run_config_values
            run_config;
        ] );
    ]
