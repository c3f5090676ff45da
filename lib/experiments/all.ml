type scale = Quick | Full

type experiment = {
  name : string;
  doc : string;
  section : scale -> seed:int64 -> string;
}

let progress fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("[experiments] " ^ s);
      flush stderr)
    fmt

(* One row per experiment-producing seussctl subcommand: the single
   source of the CLI docs (seussctl derives each Cmd.info from here and
   refuses to start if a row has no subcommand), of the experiment list
   printed by `seussctl info`, and of the sections of `seussctl all`. *)
let registry =
  let row name doc section = { name; doc; section } in
  [
    row "table1" "Table 1: SEUSS microbenchmarks" (fun scale ~seed ->
        let invocations = match scale with Quick -> 60 | Full -> 475 in
        progress "Table 1 (microbenchmarks, %d invocations/path)..."
          invocations;
        Table1.render (Table1.run ~invocations ~seed ()));
    row "table2" "Table 2: latency across AO levels" (fun scale ~seed ->
        let invocations = match scale with Quick -> 15 | Full -> 50 in
        progress "Table 2 (AO levels)...";
        Table2.render (Table2.run ~invocations ~seed ()));
    row "table3" "Table 3: cache density and creation rates" (fun scale ~seed ->
        progress "Table 3 (density & creation rates)...";
        Table3.render
          (match scale with
          | Quick ->
              Table3.run ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 6144))
                ~rate_sample:200 ~seed ()
          | Full -> Table3.run ~seed ()));
    row "fig4" "Figure 4: platform throughput vs set size" (fun scale ~seed ->
        progress "Figure 4 (throughput vs set size)...";
        Fig4.render
          (match scale with
          | Quick -> Fig4.run ~set_sizes:[ 64; 256; 1024; 4096 ] ~seed ()
          | Full -> Fig4.run ~seed ()));
    row "fig5" "Figure 5: end-to-end latency percentiles" (fun scale ~seed ->
        progress "Figure 5 (latency percentiles)...";
        Fig5.render
          (match scale with
          | Quick -> Fig5.run ~set_sizes:[ 64; 2048 ] ~requests:768 ~seed ()
          | Full -> Fig5.run ~seed ()));
    row "burst" "Figures 6-8: burst resiliency" (fun scale ~seed ->
        let periods, duration =
          match scale with
          | Quick -> ([ 16.0 ], 96.0)
          | Full -> ([ 32.0; 16.0; 8.0 ], 300.0)
        in
        String.concat "\n"
          (List.map
             (fun period ->
               progress "Figures 6-8 (burst every %.0f s)..." period;
               Fig_burst.render (Fig_burst.run ~period ~duration ~seed ()))
             periods));
    row "load"
      "Extension: open-loop tail latency vs offered load (Zipf/MMPP trace \
       replay against SEUSS and the container baselines)"
      (fun scale ~seed ->
        progress "Open-loop load sweep (fig_load)...";
        Fig_load.render
          (match scale with
          | Quick ->
              Fig_load.run ~functions:64 ~hours:0.05 ~rps:[ 2.0; 8.0 ]
                ~arrival:"bursty" ~seed ()
          | Full -> Fig_load.run ~seed ()));
    row "ablations" "Design-choice ablations (DESIGN.md)" (fun scale ~seed ->
        let invocations = match scale with Quick -> 10 | Full -> 30 in
        progress "Ablations...";
        Ablations.render (Ablations.run ~invocations ~seed ()));
    row "drseuss" "Extension: distributed snapshot cache (paper S9)"
      (fun scale ~seed ->
        let functions = match scale with Quick -> 12 | Full -> 40 in
        progress "DR-SEUSS extension...";
        Drseuss_exp.render (Drseuss_exp.run ~functions ~seed ()));
    row "chaos"
      "Extension: DR-SEUSS availability and tail latency under \
       deterministic fault injection"
      (fun _ ~seed ->
        progress "DR-SEUSS under fault injection (chaos)...";
        Fig_chaos.render (Fig_chaos.run ~seed ()));
    row "reap"
      "Extension: REAP-style working-set record & prefault on warm \
       snapshot deploys, on vs off"
      (fun scale ~seed ->
        let functions, rounds =
          match scale with Quick -> (4, 8) | Full -> (8, 20)
        in
        progress "Working-set prefault (REAP)...";
        Fig_reap.render (Fig_reap.run ~functions ~rounds ~seed ()));
    row "evict"
      "Extension: content-addressed snapshot store under memory pressure — \
       hit rate, dedup ratio and tail latency vs cache budget"
      (fun scale ~seed ->
        progress "Snapshot-store eviction sweep (fig_evict)...";
        Fig_evict.render
          (match scale with
          | Quick ->
              Fig_evict.run ~functions:24 ~hours:0.02 ~rate:8.0
                ~sizes:
                  [
                    0L;
                    Int64.of_int (Mem.Mconfig.mib 3);
                    Int64.of_int (Mem.Mconfig.mib 64);
                  ]
                ~seed ()
          | Full -> Fig_evict.run ~seed ()));
    row "ksm" "Ablation: retroactive dedup (KSM) vs snapshot stacks"
      (fun scale ~seed ->
        let budget_mib = match scale with Quick -> 1536 | Full -> 4096 in
        progress "KSM ablation...";
        Ksm_exp.render (Ksm_exp.run ~budget_mib ~seed ()));
    row "autoao"
      "Extension: black-box discovery of AO opportunities (paper S9)"
      (fun scale ~seed ->
        let invocations = match scale with Quick -> 8 | Full -> 20 in
        progress "Auto-AO discovery...";
        Auto_ao.render (Auto_ao.run ~invocations ~seed ()));
  ]

let doc name =
  List.find_map (fun e -> if e.name = name then Some e.doc else None) registry

let run ?(scale = Quick) ?(seed = 7L) () =
  let buf = Buffer.create 16_384 in
  List.iter
    (fun e ->
      Buffer.add_string buf (e.section scale ~seed);
      Buffer.add_char buf '\n')
    registry;
  Buffer.contents buf
