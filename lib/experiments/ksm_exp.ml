type result = {
  budget_bytes : int64;
  process_density : int;
  process_ksm_density : int;
  seuss_density : int;
  merged_pages : int;
  scan_cpu_seconds : float;
  merge_lag_seconds : float;
}

(* One idle Node.js process over a shared text image, as in
   [Process_backend] (same constants), but with its space exposed so KSM
   can enroll the private region. *)
let make_image env =
  let image_space = Mem.Addr_space.create env.Seuss.Osenv.frames in
  ignore
    (Mem.Addr_space.write_range image_space ~vpn:0
       ~pages:Baselines.Process_backend.shared_image_pages);
  Mem.Addr_space.freeze image_space;
  Mem.Addr_space.table image_space

let spawn_process env image =
  let space =
    Mem.Addr_space.of_table
      ~mapped_hint:Baselines.Process_backend.shared_image_pages
      env.Seuss.Osenv.frames image
  in
  try
    ignore
      (Mem.Addr_space.write_range space
         ~vpn:Baselines.Process_backend.shared_image_pages
         ~pages:Baselines.Process_backend.private_pages_per_process);
    Some space
  with Mem.Frame.Out_of_memory ->
    Mem.Addr_space.release space;
    None

let run ?(budget_mib = 3072) ?(seed = 37L) () =
  let budget_bytes = Int64.of_int (Mem.Mconfig.mib budget_mib) in
  let cap = 100_000 in
  (* Plain process density. *)
  let process_density =
    Harness.run_sim ~seed (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes engine in
        let image = make_image env in
        let n = ref 0 in
        while !n < cap && Option.is_some (spawn_process env image) do
          incr n
        done;
        !n)
  in
  (* With KSM: scan after each creation so merged frames free room for
     the next instance. *)
  let process_ksm_density, merged_pages, scan_cpu_seconds, merge_lag_seconds =
    Harness.run_sim ~seed (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes engine in
        let image = make_image env in
        let ksm = Baselines.Ksm.create env in
        let scan_cpu = ref 0.0 in
        (* Measure merge lag on the first instance via the daemon. *)
        let first = Option.get (spawn_process env image) in
        Baselines.Ksm.register ksm first
          ~private_base_vpn:Baselines.Process_backend.shared_image_pages
          ~private_pages:Baselines.Process_backend.private_pages_per_process;
        let stop = Sim.Ivar.create () in
        Baselines.Ksm.run_daemon ksm ~stop;
        let t0 = Sim.Engine.now engine in
        while Baselines.Ksm.pending_pages ksm > 0 do
          Sim.Engine.sleep 0.05
        done;
        let merge_lag = Sim.Engine.now engine -. t0 in
        Sim.Ivar.fill stop ();
        let n = ref 1 in
        let continue_ = ref true in
        while !n < cap && !continue_ do
          match spawn_process env image with
          | Some space ->
              incr n;
              Baselines.Ksm.register ksm space
                ~private_base_vpn:Baselines.Process_backend.shared_image_pages
                ~private_pages:
                  Baselines.Process_backend.private_pages_per_process;
              let t0 = Sim.Engine.now engine in
              ignore (Baselines.Ksm.scan_once ksm);
              scan_cpu := !scan_cpu +. (Sim.Engine.now engine -. t0)
          | None ->
              (* Let the scanner catch up once before giving up. *)
              if Baselines.Ksm.pending_pages ksm > 0 then
                ignore (Baselines.Ksm.scan_once ksm)
              else continue_ := false
        done;
        (!n, Baselines.Ksm.merged_pages ksm, !scan_cpu, merge_lag))
  in
  let seuss_density =
    Harness.run_sim ~seed (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes engine in
        let node = Harness.seuss_node env in
        let n = ref 0 in
        while !n < cap && Seuss.Node.deploy_idle node Unikernel.Image.Node do
          incr n
        done;
        !n)
  in
  {
    budget_bytes;
    process_density;
    process_ksm_density;
    seuss_density;
    merged_pages;
    scan_cpu_seconds;
    merge_lag_seconds;
  }

let report r =
  let open Report in
  {
    title = "Ablation: KSM (retroactive dedup) vs snapshot stacks";
    sections =
      [
        params [ ("figure", Text "ksm"); ("budget_bytes", Int64 r.budget_bytes) ];
        text
          (Printf.sprintf
             "Idle Node.js instances in %.1f MB. KSM merges duplicate pages \
              after\n\
              the fact; snapshot stacks never duplicate them (S5: sharing in\n\
              SEUSS \"is not applied retroactively\").\n\n"
             (Int64.to_float r.budget_bytes /. 1048576.0));
        comparison
          [
            ("process density, no KSM", Absent, Int r.process_density);
            ("process density, KSM", Absent, Int r.process_ksm_density);
            ("SEUSS UC density", Absent, Int r.seuss_density);
            ("pages merged by ksmd", Absent, Int r.merged_pages);
            ("scanning CPU burned", Absent, f ~unit:"core-seconds" 1 r.scan_cpu_seconds);
            ("merge lag for one fresh instance", Absent, f ~unit:"s" 2 r.merge_lag_seconds);
          ];
      ];
  }
