(* Tests for the Table 3 comparison backends and the Linux/OpenWhisk
   compute node, at reduced memory scale. *)

module B = Baselines.Backend_intf
module LN = Baselines.Linux_node

let gib n = Int64.mul (Int64.of_int n) (Int64.of_int (Mem.Mconfig.mib 1024))

let in_sim ?(seed = 3L) body =
  let engine = Sim.Engine.create ~seed () in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"test" (fun () -> result := Some (body engine));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let fill backend ~cap =
  let n = ref 0 in
  while !n < cap && backend.B.create_instance () do
    incr n
  done;
  !n

(* {1 Density ordering (Table 3 shape at 2 GB scale)} *)

let test_density_ordering () =
  let density make =
    in_sim (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes:(gib 2) engine in
        let backend = make env in
        fill backend ~cap:10_000)
  in
  let procs =
    density (fun env ->
        Baselines.Process_backend.backend (Baselines.Process_backend.create env))
  in
  let docker =
    density (fun env ->
        let bridge =
          Net.Bridge.create ~rng:(Sim.Prng.create 1L) ()
        in
        Baselines.Docker_backend.backend
          (Baselines.Docker_backend.create env bridge))
  in
  let microvm =
    density (fun env ->
        Baselines.Firecracker_backend.backend
          (Baselines.Firecracker_backend.create env))
  in
  Alcotest.(check bool) "processes beat containers" true (procs > docker);
  Alcotest.(check bool) "containers beat microVMs" true (docker > microvm);
  Alcotest.(check bool) "microVMs fit a few" true (microvm >= 5);
  (* At 2 GB (1/44 of the paper's node) the paper's ratios scale to
     roughly 95 / 71 / 10. *)
  Alcotest.(check bool) "process count plausible" true (procs > 60 && procs < 140);
  Alcotest.(check bool) "microvm count plausible" true (microvm <= 15)

let test_seuss_density_beats_all () =
  let ucs =
    in_sim (fun engine ->
        let env = Seuss.Osenv.create ~budget_bytes:(gib 2) engine in
        let node = Seuss.Node.create env in
        Seuss.Node.start node;
        let n = ref 0 in
        while !n < 10_000 && Seuss.Node.deploy_idle node Unikernel.Image.Node do
          incr n
        done;
        !n)
  in
  (* 2 GB minus the ~115 MB base snapshot over ~1.6 MB per idle UC:
     several hundred — far denser than the ~95 processes. *)
  Alcotest.(check bool) "hundreds of UCs at 2 GB" true (ucs > 300)

(* {1 Creation rates} *)

let parallel_creation_rate make ~count =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 8) engine in
      let backend = make env in
      let started = Sim.Engine.now engine in
      let done_ = ref 0 in
      for _ = 1 to 16 do
        Sim.Engine.spawn engine (fun () ->
            let rec go () =
              if !done_ < count then begin
                if backend.B.create_instance () then incr done_;
                go ()
              end
            in
            go ())
      done;
      Bounded_wait.until ~poll:0.5 ~within:600.0
        ~what:(Printf.sprintf "%d parallel creations" count)
        (fun () -> !done_ >= count);
      float_of_int count /. (Sim.Engine.now engine -. started))

let test_process_creation_rate () =
  let rate =
    parallel_creation_rate ~count:120 (fun env ->
        Baselines.Process_backend.backend (Baselines.Process_backend.create env))
  in
  (* Paper: 45/s. *)
  Alcotest.(check bool) "around 45/s" true (rate > 30.0 && rate < 60.0)

let test_docker_creation_slows () =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 16) engine in
      let bridge = Net.Bridge.create ~rng:(Sim.Prng.create 1L) () in
      let d = Baselines.Docker_backend.create env bridge in
      let timed_create () =
        let t0 = Sim.Engine.now engine in
        Alcotest.(check bool) "created" true
          (Baselines.Docker_backend.create_container_raw d);
        Sim.Engine.now engine -. t0
      in
      let first = timed_create () in
      for _ = 1 to 400 do
        ignore (Baselines.Docker_backend.create_container_raw d)
      done;
      let late = timed_create () in
      Alcotest.(check bool) "first around 541 ms" true
        (first > 0.5 && first < 0.8);
      Alcotest.(check bool) "population slows creation" true
        (late > first +. 0.15))

let test_firecracker_creation_slow () =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 8) engine in
      let f = Baselines.Firecracker_backend.create env in
      let backend = Baselines.Firecracker_backend.backend f in
      let t0 = Sim.Engine.now engine in
      Alcotest.(check bool) "created" true (backend.B.create_instance ());
      let dt = Sim.Engine.now engine -. t0 in
      (* Paper: over 3 seconds. *)
      Alcotest.(check bool) "over 3 s" true (dt > 3.0))

(* {1 KSM} *)

let test_ksm_merges_and_frees () =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 2) engine in
      let space = Mem.Addr_space.create env.Seuss.Osenv.frames in
      ignore (Mem.Addr_space.write_range space ~vpn:0 ~pages:1000);
      let before = Mem.Frame.used_frames env.Seuss.Osenv.frames in
      let ksm = Baselines.Ksm.create env in
      Baselines.Ksm.register ksm space ~private_base_vpn:0 ~private_pages:1000;
      let merged = Baselines.Ksm.scan_once ksm in
      Alcotest.(check int) "45% merged" 450 merged;
      let after = Mem.Frame.used_frames env.Seuss.Osenv.frames in
      Alcotest.(check bool) "frames released" true (before - after >= 449);
      Alcotest.(check int) "nothing pending" 0 (Baselines.Ksm.pending_pages ksm))

let test_ksm_merged_pages_are_cow () =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 2) engine in
      let space = Mem.Addr_space.create env.Seuss.Osenv.frames in
      ignore (Mem.Addr_space.write_range space ~vpn:0 ~pages:100);
      let ksm = Baselines.Ksm.create env in
      Baselines.Ksm.register ksm space ~private_base_vpn:0 ~private_pages:100;
      ignore (Baselines.Ksm.scan_once ksm);
      (* A write to a merged page un-merges it: COW fault, private again. *)
      Alcotest.(check bool) "write cow-faults" true
        (Mem.Addr_space.touch_write space ~vpn:5 = Mem.Addr_space.Cow_copy))

let test_ksm_daemon_rate_limited () =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 2) engine in
      let space = Mem.Addr_space.create env.Seuss.Osenv.frames in
      ignore (Mem.Addr_space.write_range space ~vpn:0 ~pages:250_000);
      let ksm = Baselines.Ksm.create env in
      Baselines.Ksm.register ksm space ~private_base_vpn:0
        ~private_pages:250_000;
      let stop = Sim.Ivar.create () in
      Baselines.Ksm.run_daemon ksm ~stop;
      let t0 = Sim.Engine.now engine in
      while Baselines.Ksm.pending_pages ksm > 0 do
        Sim.Engine.sleep 0.25
      done;
      let elapsed = Sim.Engine.now engine -. t0 in
      Sim.Ivar.fill stop ();
      (* 45% of 250k pages at 25k pages/s: about 4.5 s, not instant. *)
      Alcotest.(check bool) "took about 4.5 s" true
        (elapsed > 3.5 && elapsed < 6.5))

(* {1 Linux compute node} *)

let with_linux_node ?config body =
  in_sim (fun engine ->
      let env = Seuss.Osenv.create ~budget_bytes:(gib 16) engine in
      (* External IO endpoint used by Io_call actions. *)
      let io_listener = Net.Tcp.listener ~port:80 in
      Net.Http.serve ~listener:io_listener (fun _ ->
          Sim.Engine.sleep 0.25;
          Net.Http.ok "OK");
      Seuss.Osenv.register_host env "http://io-server" io_listener;
      let node = LN.create ?config env in
      LN.start node;
      body engine node)

let nop_fn id = { LN.fn_id = id; action = B.Nop }

let test_linux_cold_then_warm () =
  with_linux_node (fun engine node ->
      let t0 = Sim.Engine.now engine in
      let r1, p1 = LN.invoke node (nop_fn "f1") in
      let cold = Sim.Engine.now engine -. t0 in
      Alcotest.(check bool) "created" true (p1 = LN.Create && r1 = Ok ());
      let t1 = Sim.Engine.now engine in
      let r2, p2 = LN.invoke node (nop_fn "f1") in
      let warm = Sim.Engine.now engine -. t1 in
      Alcotest.(check bool) "warm hit" true (p2 = LN.Warm_container && r2 = Ok ());
      Alcotest.(check bool) "cold dominated by creation" true (cold > 0.5);
      Alcotest.(check bool) "warm is milliseconds" true (warm < 0.02))

let test_linux_stemcell_path () =
  let config = { LN.default_config with LN.stemcell_count = 4 } in
  with_linux_node ~config (fun _engine node ->
      let _, p = LN.invoke node (nop_fn "g") in
      Alcotest.(check bool) "stemcell used" true (p = LN.Stemcell))

let test_linux_eviction_on_saturation () =
  let config = { LN.default_config with LN.container_cache_limit = 4 } in
  with_linux_node ~config (fun _engine node ->
      for i = 1 to 8 do
        let result, _ = LN.invoke node (nop_fn (Printf.sprintf "f%d" i)) in
        Alcotest.(check bool) "request served" true (result = Ok ())
      done;
      Alcotest.(check bool) "cache bounded" true (LN.container_count node <= 4);
      let s = LN.stats node in
      Alcotest.(check bool) "evictions happened" true (s.LN.evictions >= 4))

let test_linux_io_function_blocks () =
  with_linux_node (fun engine node ->
      let fn = { LN.fn_id = "io"; action = B.Io_call ("http://io-server/b", 0.25) } in
      ignore (LN.invoke node fn);
      (* Second call is warm; should still take the 250 ms block. *)
      let t0 = Sim.Engine.now engine in
      let r, p = LN.invoke node fn in
      let dt = Sim.Engine.now engine -. t0 in
      Alcotest.(check bool) "ok and warm" true (r = Ok () && p = LN.Warm_container);
      Alcotest.(check bool) "blocked ~250 ms" true (dt >= 0.25 && dt < 0.4))

let test_linux_overload_errors () =
  (* A 2-container node with both containers held busy for two
     minutes: new functions must time out waiting for capacity after
     60 s. *)
  let config = { LN.default_config with LN.container_cache_limit = 2 } in
  with_linux_node ~config (fun engine node ->
      let slow = { LN.fn_id = "slow"; action = B.Cpu_ms 120_000.0 } in
      let slow2 = { LN.fn_id = "slow2"; action = B.Cpu_ms 120_000.0 } in
      Sim.Engine.spawn engine (fun () -> ignore (LN.invoke node slow));
      Sim.Engine.spawn engine (fun () -> ignore (LN.invoke node slow2));
      (* Give the slow invocations time to occupy both containers. *)
      Sim.Engine.sleep 2.5;
      match LN.invoke node (nop_fn "blocked") with
      | Error `Overloaded, _ -> ()
      | Ok (), p ->
          Alcotest.failf "expected overload, request served via %s"
            (match p with
            | LN.Create -> "create"
            | LN.Stemcell -> "stemcell"
            | LN.Warm_container -> "warm")
      | Error _, _ -> ())

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "baselines"
    [
      ( "density",
        [
          case "ordering" test_density_ordering;
          case "seuss beats all" test_seuss_density_beats_all;
        ] );
      ( "creation",
        [
          case "process rate" test_process_creation_rate;
          case "docker slows" test_docker_creation_slows;
          case "firecracker slow" test_firecracker_creation_slow;
        ] );
      ( "ksm",
        [
          case "merges and frees" test_ksm_merges_and_frees;
          case "merged pages are cow" test_ksm_merged_pages_are_cow;
          case "daemon rate limited" test_ksm_daemon_rate_limited;
        ] );
      ( "linux_node",
        [
          case "cold then warm" test_linux_cold_then_warm;
          case "stemcell path" test_linux_stemcell_path;
          case "eviction" test_linux_eviction_on_saturation;
          case "io blocks" test_linux_io_function_blocks;
          case "overload errors" test_linux_overload_errors;
        ] );
    ]
