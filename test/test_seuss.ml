(* Tests for the SEUSS core: snapshots and stacks, UC lifecycle, the
   cold/warm/hot invocation paths, anticipatory optimization and the OOM
   reclaimer. These encode the paper's qualitative claims as assertions. *)

module N = Seuss.Node

let gib n = Int64.mul (Int64.of_int n) (Int64.of_int (Mem.Mconfig.mib 1024))

let nop_fn =
  {
    N.fn_id = "nop";
    runtime = Unikernel.Image.Node;
    source = "function main(args) { return {}; }";
  }

let fn ~id source = { N.fn_id = id; runtime = Unikernel.Image.Node; source }

(* Run [body node] inside a simulation with a started node. *)
let with_node ?config ?(budget_gib = 8) body =
  let engine = Sim.Engine.create ~seed:11L () in
  let env = Seuss.Osenv.create ~budget_bytes:(gib budget_gib) engine in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let node = N.create ?config env in
      N.start node;
      result := Some (body env node));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let expect_ok = function
  | Ok v, path -> (v, path)
  | Error _, _ -> Alcotest.fail "invocation failed"

let timed f =
  let engine = Sim.Engine.self () in
  let t0 = Sim.Engine.now engine in
  let v = f () in
  (v, Sim.Engine.now engine -. t0)

(* {1 Startup and base snapshots} *)

let test_start_builds_base_snapshot () =
  with_node (fun _env node ->
      match N.base_snapshot node Unikernel.Image.Node with
      | None -> Alcotest.fail "no base snapshot"
      | Some base ->
          Alcotest.(check bool) "bigger than the raw image" true
            (base.Seuss.Snapshot.total_pages
            >= Unikernel.Image.total_pages Unikernel.Image.node);
          Alcotest.(check int) "depth 1" 1 (Seuss.Snapshot.depth base);
          (* Table 1: base runtime snapshot is ~110-115 MB. *)
          let mb =
            Int64.to_float (Seuss.Snapshot.total_bytes base) /. 1048576.0
          in
          Alcotest.(check bool) "within Table 1 range" true
            (mb > 100.0 && mb < 130.0))

let test_ao_grows_base_snapshot () =
  let size_at ao =
    with_node ~config:{ Seuss.Config.default with Seuss.Config.ao } (fun _ node ->
        match N.base_snapshot node Unikernel.Image.Node with
        | Some base -> base.Seuss.Snapshot.total_pages
        | None -> Alcotest.fail "no base")
  in
  let none = size_at Seuss.Config.Ao_none in
  let net = size_at Seuss.Config.Ao_network in
  let full = size_at Seuss.Config.Ao_full in
  Alcotest.(check bool) "network AO adds pages" true (net > none);
  Alcotest.(check bool) "full AO adds more" true (full > net);
  (* Table 1: AO bloats the base snapshot by roughly 4.9 MB (~1250 pages). *)
  Alcotest.(check bool) "growth in the paper's range" true
    (full - none > 800 && full - none < 2500)

(* {1 Invocation paths} *)

let test_cold_then_warm_then_hot () =
  with_node (fun _env node ->
      let (r1, p1), d_cold = timed (fun () -> expect_ok (N.invoke node nop_fn ~args:"null")) in
      Alcotest.(check string) "result" "{}" r1;
      Alcotest.(check bool) "first is cold" true (p1 = N.Cold);
      (* The cold invocation captured a function snapshot and cached the
         idle UC: next is hot. *)
      let (_, p2), d_hot = timed (fun () -> expect_ok (N.invoke node nop_fn ~args:"null")) in
      Alcotest.(check bool) "second is hot" true (p2 = N.Hot);
      (* Drop the idle UC to force the warm path. *)
      N.drop_idle node ~fn_id:"nop";
      let (_, p3), d_warm = timed (fun () -> expect_ok (N.invoke node nop_fn ~args:"null")) in
      Alcotest.(check bool) "third is warm" true (p3 = N.Warm);
      Alcotest.(check bool) "cold > warm" true (d_cold > d_warm);
      Alcotest.(check bool) "warm > hot" true (d_warm > d_hot);
      (* Table 1 magnitudes (generous factor-two bands around 7.5 / 3.5 /
         0.8 ms). *)
      Alcotest.(check bool) "cold in band" true (d_cold > 4e-3 && d_cold < 15e-3);
      Alcotest.(check bool) "warm in band" true (d_warm > 1.5e-3 && d_warm < 7e-3);
      Alcotest.(check bool) "hot in band" true (d_hot > 0.3e-3 && d_hot < 2e-3))

let test_function_snapshot_cached_once () =
  with_node (fun _env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      Alcotest.(check int) "one fn snapshot" 1 (N.snapshot_count node);
      N.drop_idle node ~fn_id:"nop";
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      Alcotest.(check int) "still one" 1 (N.snapshot_count node);
      let s = N.stats node in
      Alcotest.(check int) "one capture" 1 s.N.snapshots_captured)

let test_distinct_functions_isolated () =
  with_node (fun _env node ->
      let counter id =
        fn ~id
          "let n = 0; function main(args) { n = n + 1; return n; }"
      in
      let a = counter "fn-a" and b = counter "fn-b" in
      let run f = fst (expect_ok (N.invoke node f ~args:"null")) in
      Alcotest.(check string) "a first" "1" (run a);
      Alcotest.(check string) "a second (hot, same UC)" "2" (run a);
      Alcotest.(check string) "b unaffected" "1" (run b);
      (* Warm deploys restart from the snapshot state (captured before
         any run), so a fresh UC of a starts at 1 again. *)
      N.drop_idle node ~fn_id:"fn-a";
      Alcotest.(check string) "a warm from snapshot" "1" (run a))

let test_compile_error_reported () =
  with_node (fun _env node ->
      match N.invoke node (fn ~id:"bad" "function main(") ~args:"null" with
      | Error (`Compile_error _), N.Cold -> ()
      | _ -> Alcotest.fail "expected compile error on cold path")

let test_runtime_error_reported () =
  with_node (fun _env node ->
      match
        N.invoke node
          (fn ~id:"boom" "function main(args) { return 1 / 0; }")
          ~args:"null"
      with
      | Error (`Runtime_error _), _ -> ()
      | _ -> Alcotest.fail "expected runtime error")

let test_args_flow_through () =
  with_node (fun _env node ->
      let echo =
        fn ~id:"echo" "function main(args) { return args.x * 2; }"
      in
      let r, _ = expect_ok (N.invoke node echo ~args:"{x: 21}") in
      Alcotest.(check string) "result" "42" r)

(* {1 Anticipatory optimization (Table 2 shape)} *)

let cold_and_warm_latency ao =
  with_node ~config:{ Seuss.Config.default with Seuss.Config.ao } (fun _ node ->
      let (_, _), d_cold = timed (fun () -> expect_ok (N.invoke node nop_fn ~args:"null")) in
      N.drop_idle node ~fn_id:"nop";
      let (_, _), d_warm = timed (fun () -> expect_ok (N.invoke node nop_fn ~args:"null")) in
      (d_cold, d_warm))

let test_ao_latency_ladder () =
  let c_none, w_none = cold_and_warm_latency Seuss.Config.Ao_none in
  let c_net, w_net = cold_and_warm_latency Seuss.Config.Ao_network in
  let c_full, w_full = cold_and_warm_latency Seuss.Config.Ao_full in
  (* Table 2 orderings. *)
  Alcotest.(check bool) "cold: none > network" true (c_none > c_net);
  Alcotest.(check bool) "cold: network > full" true (c_net > c_full);
  Alcotest.(check bool) "warm: none > network" true (w_none > w_net);
  Alcotest.(check bool) "warm: network > full" true (w_net > w_full);
  (* Rough magnitudes: no-AO cold is several times full-AO cold (paper:
     42 ms vs 7.5 ms, a 5.6x gap). *)
  Alcotest.(check bool) "cold gap factor" true (c_none /. c_full > 3.0);
  Alcotest.(check bool) "network AO removes the pool cost" true
    (c_none -. c_net > 0.8 *. Unikernel.Gconst.net_pool_init_time)

let test_ao_shrinks_function_snapshot () =
  let fn_snap_pages ao =
    with_node ~config:{ Seuss.Config.default with Seuss.Config.ao } (fun _ node ->
        ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
        match N.function_snapshot node "nop" with
        | Some s -> s.Seuss.Snapshot.diff_pages
        | None -> Alcotest.fail "no fn snapshot")
  in
  let without = fn_snap_pages Seuss.Config.Ao_none in
  let with_ao = fn_snap_pages Seuss.Config.Ao_full in
  (* Table 1: 4.8 MB -> 2.0 MB, roughly half or better. *)
  Alcotest.(check bool) "AO halves the function snapshot" true
    (float_of_int with_ao < 0.6 *. float_of_int without)

(* {1 Snapshot stacks: dependents and deletion} *)

let test_snapshot_dependents () =
  with_node (fun env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      let base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
      let fn_snap = Option.get (N.function_snapshot node "nop") in
      Alcotest.(check int) "fn snapshot depth" 2 (Seuss.Snapshot.depth fn_snap);
      (* Base is depended on by: the fn snapshot + the idle (hot) UC's
         lineage is via fn? The idle UC was deployed from base (cold path),
         so base has the fn snapshot and the idle UC. *)
      Alcotest.(check bool) "base has dependents" true
        (Seuss.Snapshot.dependents base >= 1);
      Alcotest.(check bool) "cannot delete base" false
        (Seuss.Snapshot.try_delete ~env base);
      (* fn snapshot has no UC deployed from it yet: deletable. *)
      Alcotest.(check int) "fn snapshot free" 0
        (Seuss.Snapshot.dependents fn_snap))

let test_uc_deploy_references_snapshot () =
  with_node (fun env node ->
      let base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
      let before = Seuss.Snapshot.dependents base in
      let uc = Seuss.Uc.deploy env base in
      Alcotest.(check int) "deploy adds a dependent" (before + 1)
        (Seuss.Snapshot.dependents base);
      Seuss.Uc.destroy uc;
      Alcotest.(check int) "destroy removes it" before
        (Seuss.Snapshot.dependents base))

let test_deleted_snapshot_rejected () =
  with_node (fun env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      let fn_snap = Option.get (N.function_snapshot node "nop") in
      Alcotest.(check bool) "deletable" true (Seuss.Snapshot.try_delete ~env fn_snap);
      Alcotest.(check bool) "deploy from deleted rejected" true
        (match Seuss.Uc.deploy env fn_snap with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_snapshot_sharing_example () =
  (* §3's example: two functions sharing one runtime snapshot need the
     runtime memory once, not twice. *)
  with_node (fun _env node ->
      ignore (expect_ok (N.invoke node (fn ~id:"foo" "function main(a) { return \"foo\"; }") ~args:"null"));
      ignore (expect_ok (N.invoke node (fn ~id:"bar" "function main(a) { return \"bar\"; }") ~args:"null"));
      let base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
      let foo = Option.get (N.function_snapshot node "foo") in
      let bar = Option.get (N.function_snapshot node "bar") in
      let base_pages = base.Seuss.Snapshot.total_pages in
      Alcotest.(check bool) "diffs are small vs base" true
        (foo.Seuss.Snapshot.diff_pages < base_pages / 10
        && bar.Seuss.Snapshot.diff_pages < base_pages / 10))

(* {1 UC footprint and density enablers} *)

let test_idle_uc_footprint_small () =
  with_node (fun _env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      match N.idle_ucs node with
      | [ uc ] ->
          let footprint_mb =
            Int64.to_float (Seuss.Uc.footprint_bytes uc) /. 1048576.0
          in
          (* Table 3: ~54k UCs in 88 GB, i.e. ~1.6 MB each. *)
          Alcotest.(check bool) "idle UC under 4 MB" true (footprint_mb < 4.0);
          Alcotest.(check bool) "idle UC over 0.2 MB" true (footprint_mb > 0.2)
      | l -> Alcotest.failf "expected 1 idle UC, got %d" (List.length l))

let test_oom_reclaims_idle_ucs () =
  (* A small node: deploy idle runtime UCs until memory runs low, then
     check the reclaimer frees memory without touching snapshots. *)
  with_node ~budget_gib:2 (fun _env node ->
      let deployed = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        if N.deploy_idle node Unikernel.Image.Node then incr deployed
        else continue_ := false;
        if !deployed > 2000 then continue_ := false
      done;
      Alcotest.(check bool) "deployed a bunch" true (!deployed > 20);
      let before_free = N.free_bytes node in
      let reclaimed = N.reclaim_idle_ucs node in
      ignore before_free;
      if
        Int64.compare (N.free_bytes node) Seuss.Config.oom_headroom_bytes
        >= 0
      then ()
      else Alcotest.(check bool) "reclaimer made progress" true (reclaimed > 0);
      (* The base snapshot survived. *)
      Alcotest.(check bool) "base intact" true
        (Option.is_some (N.base_snapshot node Unikernel.Image.Node)))

let test_cache_disabled_config () =
  let config =
    {
      Seuss.Config.default with
      Seuss.Config.cache_function_snapshots = false;
      cache_idle_ucs = false;
    }
  in
  with_node ~config (fun _env node ->
      let _, p1 = expect_ok (N.invoke node nop_fn ~args:"null") in
      let _, p2 = expect_ok (N.invoke node nop_fn ~args:"null") in
      Alcotest.(check bool) "both cold" true (p1 = N.Cold && p2 = N.Cold);
      Alcotest.(check int) "nothing cached" 0
        (N.snapshot_count node + N.idle_uc_count node))

(* Under a byte budget that fits one member, a function snapshot pinned
   by an idle UC deployed from it survives every budget sweep (the
   newcomer goes instead); once that UC is gone it is the next victim. *)
let test_eviction_respects_dependents () =
  let dep i = fn ~id:(Printf.sprintf "dep-%d" i) "function main(args) { return {}; }" in
  let store_of node =
    match N.snapstore node with
    | Some s -> s
    | None -> Alcotest.fail "snapshot store not armed"
  in
  let budget_config bytes =
    { Seuss.Config.default with Seuss.Config.snapshot_cache_bytes = bytes }
  in
  let one_member =
    with_node ~config:(budget_config (gib 4)) (fun _env node ->
        ignore (expect_ok (N.invoke node (dep 1) ~args:"{}"));
        Seuss.Snapstore.resident_bytes (store_of node))
  in
  with_node ~config:(budget_config one_member) (fun _env node ->
      let store = store_of node in
      let path f = snd (expect_ok (N.invoke node f ~args:"{}")) in
      let members () = List.map fst (Seuss.Snapstore.members store) in
      Alcotest.(check bool) "dep-1 cold" true (path (dep 1) = N.Cold);
      N.drop_idle node ~fn_id:"dep-1";
      (* The warm call's UC, now idle, is a dependent of dep-1's
         snapshot. *)
      Alcotest.(check bool) "dep-1 warm" true (path (dep 1) = N.Warm);
      let pinned =
        match N.function_snapshot node "dep-1" with
        | Some s -> s
        | None -> Alcotest.fail "dep-1 snapshot missing"
      in
      ignore (path (dep 2));
      Alcotest.(check (list string)) "pinned member survives" [ "dep-1" ]
        (members ());
      Alcotest.(check bool) "pinned snapshot live" false
        (Seuss.Snapshot.is_deleted pinned);
      Alcotest.(check int) "newcomer evicted instead" 1
        (Seuss.Snapstore.evictions store);
      N.drop_idle node ~fn_id:"dep-1";
      ignore (path (dep 3));
      Alcotest.(check (list string)) "unpinned member evicted" [ "dep-3" ]
        (members ());
      Alcotest.(check bool) "its snapshot deleted" true
        (Seuss.Snapshot.is_deleted pinned);
      Alcotest.(check (list string)) "store consistent" []
        (Seuss.Snapstore.check store))

(* {1 Multiple runtimes} *)

let test_python_runtime () =
  let config =
    {
      Seuss.Config.default with
      Seuss.Config.runtimes = [ Unikernel.Image.node; Unikernel.Image.python ];
    }
  in
  with_node ~config (fun _env node ->
      Alcotest.(check bool) "python base exists" true
        (Option.is_some (Seuss.Node.base_snapshot node Unikernel.Image.Python));
      let py_fn =
        {
          N.fn_id = "py";
          runtime = Unikernel.Image.Python;
          source = "function main(args) { return args.x + 1; }";
        }
      in
      let r, p = expect_ok (N.invoke node py_fn ~args:"{x: 1}") in
      Alcotest.(check string) "python fn runs" "2" r;
      Alcotest.(check bool) "cold" true (p = N.Cold);
      (* The Python base snapshot is smaller than Node's. *)
      let node_base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
      let py_base = Option.get (N.base_snapshot node Unikernel.Image.Python) in
      Alcotest.(check bool) "python image smaller" true
        (py_base.Seuss.Snapshot.total_pages < node_base.Seuss.Snapshot.total_pages))

let test_missing_runtime_errors () =
  with_node (fun _env node ->
      let py_fn =
        {
          N.fn_id = "py";
          runtime = Unikernel.Image.Python;
          source = "function main(a) { return 0; }";
        }
      in
      match N.invoke node py_fn ~args:"{}" with
      | Error `No_runtime, _ -> ()
      | _ -> Alcotest.fail "expected No_runtime")

(* {1 Node stress} *)

(* Property: any interleaving of invocations keeps the node's accounting
   coherent — every request succeeds, path counters sum to the request
   count, and the snapshot cache holds exactly the unique functions. *)
let node_stress =
  QCheck.Test.make ~name:"random invocation mixes keep node coherent" ~count:8
    QCheck.(list_of_size (Gen.int_range 5 25) (int_range 0 5))
    (fun fn_ids ->
      with_node ~budget_gib:6 (fun _env node ->
          List.iter
            (fun i ->
              let fn = fn ~id:(Printf.sprintf "stress-%d" i)
                  "function main(args) { return {ok: true}; }"
              in
              match N.invoke node fn ~args:"{}" with
              | Ok _, _ -> ()
              | Error _, _ -> Alcotest.fail "stress invocation failed")
            fn_ids;
          let s = N.stats node in
          let unique = List.sort_uniq compare fn_ids in
          s.N.cold + s.N.warm + s.N.hot = List.length fn_ids
          && s.N.cold = List.length unique
          && N.snapshot_count node = List.length unique
          && s.N.errors = 0))

let test_hot_footprint_bounded () =
  (* The nursery ring keeps hot UCs from growing without bound: 50 hot
     runs should not balloon the UC's private pages. *)
  with_node (fun _env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      let after_one =
        match N.last_served_uc node with
        | Some uc -> Seuss.Uc.private_pages uc
        | None -> Alcotest.fail "no uc"
      in
      for _ = 1 to 50 do
        ignore (expect_ok (N.invoke node nop_fn ~args:"null"))
      done;
      let after_many =
        match N.last_served_uc node with
        | Some uc -> Seuss.Uc.private_pages uc
        | None -> Alcotest.fail "no uc"
      in
      Alcotest.(check bool) "bounded growth" true
        (after_many < after_one + 700))

(* A function snapshot is a deploy template: once the UC that captured
   it is destroyed, nothing of that UC's guest state may stay reachable
   through it (its hooks and host close over the guest's heaps, address
   space and hypercalls). *)
let watch_guest weak uc = Weak.set weak 0 (Some (Seuss.Uc.guest_state uc))
[@@inline never]

let test_template_drops_capturing_guest () =
  with_node (fun env node ->
      let base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
      let weak = Weak.create 1 in
      let uc = Seuss.Uc.deploy env base in
      Alcotest.(check bool) "connects" true (Seuss.Uc.connect uc);
      Alcotest.(check bool) "init sent" true
        (Seuss.Uc.send uc
           (Unikernel.Driver.Init
              "let n = 0; function main(a) { n = n + 1; return n; }"));
      Alcotest.(check (option string)) "compiled" (Some "compile-ok")
        (Seuss.Uc.await_breakpoint uc ~timeout:10.0);
      watch_guest weak uc;
      let snap = Seuss.Uc.capture uc ~env ~name:"fn-template" in
      Seuss.Uc.resume uc;
      Seuss.Uc.destroy uc;
      (* Let the guest process see its listener shut and end. *)
      Sim.Engine.sleep 1.0;
      Gc.full_major ();
      Alcotest.(check bool) "capturing guest state collected" false
        (Weak.check weak 0);
      (* The template still deploys. *)
      let uc2 = Seuss.Uc.deploy env snap in
      Alcotest.(check bool) "deploys" true (Seuss.Uc.connect uc2);
      (match Seuss.Uc.request uc2 (Unikernel.Driver.Run "null") ~timeout:10.0 with
      | Ok (Unikernel.Driver.Ok_reply r) ->
          Alcotest.(check string) "template state" "1" r
      | _ -> Alcotest.fail "run from template");
      Seuss.Uc.destroy uc2)

(* Property: arbitrary interleavings of deploy / capture / destroy /
   delete over a snapshot stack conserve memory — tearing everything
   down returns the allocator to its post-start level. This is the
   paper's deletion-safety rule exercised end to end. *)
let snapshot_stack_conservation =
  QCheck.Test.make ~name:"snapshot stacks conserve frames" ~count:6
    QCheck.(list_of_size (Gen.int_range 4 18) (int_range 0 3))
    (fun ops ->
      with_node ~budget_gib:6 (fun env node ->
          let base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
          let baseline = Mem.Frame.used_frames env.Seuss.Osenv.frames in
          let ucs = ref [] and snaps = ref [ base ] in
          let pick l i = List.nth l (i mod List.length l) in
          List.iteri
            (fun i op ->
              match op with
              | 0 ->
                  (* Deploy from a random live snapshot. *)
                  let live =
                    List.filter (fun s -> not (Seuss.Snapshot.is_deleted s)) !snaps
                  in
                  if live <> [] then begin
                    let uc = Seuss.Uc.deploy env (pick live i) in
                    Sim.Engine.sleep 0.05 (* let the guest resume *);
                    ucs := uc :: !ucs
                  end
              | 1 -> (
                  (* Capture a random running UC. *)
                  match
                    List.filter (fun u -> Seuss.Uc.status u = Seuss.Uc.Running) !ucs
                  with
                  | [] -> ()
                  | running ->
                      let uc = pick running i in
                      snaps :=
                        Seuss.Uc.capture uc ~env
                          ~name:(Printf.sprintf "s%d" i)
                        :: !snaps)
              | 2 -> (
                  match !ucs with
                  | [] -> ()
                  | uc :: rest ->
                      Seuss.Uc.destroy uc;
                      ucs := rest)
              | _ ->
                  (* Attempt deletion of a random non-base snapshot. *)
                  let candidates =
                    List.filter
                      (fun s -> s != base && not (Seuss.Snapshot.is_deleted s))
                      !snaps
                  in
                  if candidates <> [] then
                    ignore (Seuss.Snapshot.try_delete ~env (pick candidates i)))
            ops;
          (* Teardown: all UCs, then snapshots until a fixpoint. *)
          List.iter
            (fun u -> if Seuss.Uc.status u = Seuss.Uc.Running then Seuss.Uc.destroy u)
            !ucs;
          let progress = ref true in
          while !progress do
            progress := false;
            List.iter
              (fun s ->
                if s != base && not (Seuss.Snapshot.is_deleted s) then
                  if Seuss.Snapshot.try_delete ~env s then progress := true)
              !snaps
          done;
          Mem.Frame.used_frames env.Seuss.Osenv.frames = baseline))

let test_concurrent_cold_same_function () =
  (* Several concurrent first invocations of one function: all race down
     the cold path (as in OpenWhisk), but exactly one snapshot wins the
     cache and the extras are safely discarded. *)
  with_node (fun env node ->
      let engine = env.Seuss.Osenv.engine in
      let remaining = ref 6 in
      let done_ = Sim.Ivar.create () in
      for _ = 1 to 6 do
        Sim.Engine.spawn engine (fun () ->
            (match N.invoke node nop_fn ~args:"{}" with
            | Ok _, _ -> ()
            | Error _, _ -> Alcotest.fail "concurrent invocation failed");
            decr remaining;
            if !remaining = 0 then Sim.Ivar.fill done_ ())
      done;
      Sim.Ivar.read done_;
      Alcotest.(check int) "one cached snapshot" 1 (N.snapshot_count node);
      let s = N.stats node in
      Alcotest.(check int) "all six served" 6 (s.N.cold + s.N.warm + s.N.hot);
      Alcotest.(check int) "no errors" 0 s.N.errors;
      (* Subsequent call is hot. *)
      match N.invoke node nop_fn ~args:"{}" with
      | Ok _, N.Hot -> ()
      | _ -> Alcotest.fail "expected hot after the stampede")

(* {1 Failure injection} *)

let test_invoke_timeout_recovers () =
  with_node (fun _env node ->
      (* Two minutes of guest work outlasts the 60 s timeout. *)
      let stuck =
        fn ~id:"stuck" "function main(args) { work(120000); return {}; }"
      in
      (match N.invoke node stuck ~args:"{}" with
      | Error `Timeout, _ -> ()
      | Ok _, _ -> Alcotest.fail "expected timeout"
      | Error _, _ -> ());
      let s = N.stats node in
      Alcotest.(check bool) "error recorded" true (s.N.errors >= 1);
      (* The node still serves other functions. *)
      let r, _ = expect_ok (N.invoke node nop_fn ~args:"{}") in
      Alcotest.(check string) "healthy afterwards" "{}" r)

let test_uc_destroyed_under_connection () =
  with_node (fun env node ->
      let base = Option.get (N.base_snapshot node Unikernel.Image.Node) in
      let uc = Seuss.Uc.deploy env base in
      Alcotest.(check bool) "connects" true (Seuss.Uc.connect uc);
      (match Seuss.Uc.request uc Unikernel.Driver.Ping ~timeout:5.0 with
      | Ok Unikernel.Driver.Pong -> ()
      | _ -> Alcotest.fail "ping failed");
      Seuss.Uc.destroy uc;
      (* Requests after death fail cleanly, and are idempotent. *)
      (match Seuss.Uc.request uc Unikernel.Driver.Ping ~timeout:1.0 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "request on dead UC succeeded");
      Seuss.Uc.destroy uc;
      Alcotest.(check bool) "cannot reconnect" false (Seuss.Uc.connect uc);
      (* A fresh deploy from the same snapshot still works. *)
      let uc2 = Seuss.Uc.deploy env base in
      Alcotest.(check bool) "fresh deploy fine" true (Seuss.Uc.connect uc2);
      Seuss.Uc.destroy uc2)

let test_guest_oom_surfaces_as_error () =
  (* At 115 MiB the node starts, but the first cold call's guest runs
     the allocator dry: the guest dies, the cold path times out waiting
     for its compile breakpoint, reports an error instead of wedging,
     and releases the dead UC. *)
  let engine = Sim.Engine.create ~seed:11L () in
  let env =
    Seuss.Osenv.create
      ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 115))
      engine
  in
  let outcome = ref None and node_ref = ref None in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let node = N.create env in
      N.start node;
      node_ref := Some node;
      let (r, _), elapsed =
        timed (fun () -> N.invoke node nop_fn ~args:"{}")
      in
      outcome := Some (r, elapsed));
  Sim.Engine.run engine;
  let frames = env.Seuss.Osenv.frames in
  Alcotest.(check int) "the guest reached the budget"
    (Mem.Frame.budget_frames frames) (Mem.Frame.peak_frames frames);
  (match !outcome with
  | Some (Error `Timeout, elapsed) ->
      Alcotest.(check bool) "waited out the invoke timeout" true
        (elapsed >= Seuss.Config.invoke_timeout)
  | Some _ -> Alcotest.fail "expected a timeout from the dead guest"
  | None -> Alcotest.fail "simulation did not complete");
  Alcotest.(check int) "the base-boot UC and the dead UC released"
    env.Seuss.Osenv.ucs_created env.Seuss.Osenv.ucs_released;
  Alcotest.(check int) "both created" 2 env.Seuss.Osenv.ucs_created;
  match !node_ref with
  | Some node ->
      Alcotest.(check bool) "census clean" true (N.census_clean (N.census node))
  | None -> Alcotest.fail "node did not start"

(* {1 Shim} *)

let test_shim_adds_round_trip () =
  with_node (fun env node ->
      let shim = Seuss.Shim.create env node in
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      (* Hot with and without the shim. *)
      let (_, _), direct = timed (fun () -> expect_ok (N.invoke node nop_fn ~args:"null")) in
      let (_, _), via_shim =
        timed (fun () -> expect_ok (Seuss.Shim.invoke shim nop_fn ~args:"null"))
      in
      let added = via_shim -. direct in
      (* §7: the shim hop adds about 8 ms. *)
      Alcotest.(check bool) "adds 6-10 ms" true (added > 6e-3 && added < 10e-3))

let test_shim_serializes () =
  with_node (fun env node ->
      let shim = Seuss.Shim.create env node in
      ignore (expect_ok (N.invoke node nop_fn ~args:"null"));
      let engine = Sim.Engine.self () in
      let done_count = ref 0 in
      let t0 = Sim.Engine.now engine in
      for _ = 1 to 10 do
        Sim.Engine.spawn engine (fun () ->
            ignore (Seuss.Shim.invoke shim nop_fn ~args:"null");
            incr done_count)
      done;
      Bounded_wait.until ~what:"10 shim calls to finish" ~within:10.0
        (fun () -> !done_count = 10);
      let elapsed = Sim.Engine.now engine -. t0 in
      (* 10 requests x 2 transfers x 3.9 ms of serialized lock time. *)
      Alcotest.(check bool) "rate limited by the single connection" true
        (elapsed >= 10.0 *. 2.0 *. Seuss.Cost.shim_per_message *. 0.9))

(* {1 Resource drain: dead UCs and orderly shutdown} *)

let test_dead_uc_destroy_releases () =
  (* A guest that dies of OOM mid-boot flips to Dead without passing
     through destroy; destroying it afterwards must still release its
     frames (the pre-fix behavior left them — and the snapshot
     reference — stranded forever). *)
  let engine = Sim.Engine.create ~seed:11L () in
  let env =
    Seuss.Osenv.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 4)) engine
  in
  let completed = ref false in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let uc = Seuss.Uc.boot env Unikernel.Image.node in
      (match Seuss.Uc.await_breakpoint uc ~timeout:5.0 with
      | Some _ -> Alcotest.fail "boot unexpectedly completed in 4 MiB"
      | None -> ());
      Alcotest.(check bool) "guest died" true
        (Seuss.Uc.status uc = Seuss.Uc.Dead);
      Alcotest.(check bool) "dead UC still holds frames" true
        (Mem.Frame.used_frames env.Seuss.Osenv.frames > 0);
      Seuss.Uc.destroy uc;
      Alcotest.(check int) "destroy drained them" 0
        (Mem.Frame.used_frames env.Seuss.Osenv.frames);
      (* Still idempotent. *)
      Seuss.Uc.destroy uc;
      completed := true);
  Sim.Engine.run engine;
  if not !completed then Alcotest.fail "simulation did not complete"

let test_node_shutdown_drains_frames () =
  with_node (fun env node ->
      for k = 1 to 4 do
        let f =
          fn
            ~id:(Printf.sprintf "drain-%d" k)
            (Printf.sprintf "function main(args) { return {k: %d}; }" k)
        in
        (* cold, then hot, so snapshots and idle UCs both populate *)
        ignore (expect_ok (N.invoke node f ~args:"{}"));
        ignore (expect_ok (N.invoke node f ~args:"{}"))
      done;
      Alcotest.(check bool) "node holds frames while serving" true
        (Mem.Frame.used_frames env.Seuss.Osenv.frames > 0);
      N.shutdown node;
      Alcotest.(check int) "shutdown drains every frame" 0
        (Mem.Frame.used_frames env.Seuss.Osenv.frames))

(* {1 Working-set record & prefault (REAP)} *)

let prefault_config =
  {
    Seuss.Config.default with
    Seuss.Config.prefault_working_set = true;
    (* force every repeat onto the warm path *)
    cache_idle_ucs = false;
  }

let test_ws_recorded_then_prefaulted () =
  with_node ~config:prefault_config (fun env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"{}"));
      let snap =
        match N.function_snapshot node "nop" with
        | Some s -> s
        | None -> Alcotest.fail "no function snapshot"
      in
      Alcotest.(check bool) "no working set before first warm run" true
        (Seuss.Snapshot.working_set snap = None);
      let r1, p1 = expect_ok (N.invoke node nop_fn ~args:"{}") in
      Alcotest.(check bool) "recording run is warm" true (p1 = N.Warm);
      let ws =
        match Seuss.Snapshot.working_set snap with
        | Some ws -> ws
        | None -> Alcotest.fail "working set not recorded"
      in
      Alcotest.(check bool) "working set is substantial" true
        (Array.length ws > 100);
      Alcotest.(check bool) "record event emitted" true
        (List.exists
           (fun r ->
             match r.Obs.Log.ev with
             | Obs.Event.Ws_record { snapshot; pages } ->
                 snapshot = snap.Seuss.Snapshot.name
                 && pages = Array.length ws
             | _ -> false)
           (Obs.Log.records env.Seuss.Osenv.log));
      (* The next warm deploy replays the set: one batch, and the
         demand-fault telemetry goes quiet. *)
      let prefaults = ref 0 and cow_events = ref 0 in
      Obs.Log.subscribe env.Seuss.Osenv.log (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Ws_prefault _ -> incr prefaults
          | Obs.Event.Cow_fault _ -> incr cow_events
          | _ -> ());
      let r2, p2 = expect_ok (N.invoke node nop_fn ~args:"{}") in
      Alcotest.(check bool) "prefaulted run is warm" true (p2 = N.Warm);
      Alcotest.(check int) "one prefault batch" 1 !prefaults;
      Alcotest.(check int) "no demand COW events" 0 !cow_events;
      Alcotest.(check string) "same reply either way" r1 r2)

(* A warm invoke's COW faults reach telemetry per write range: the event
   pages sum to the counter's delta, in a handful of events rather than
   one per copied page. *)
let test_warm_cow_events_per_range () =
  with_node
    ~config:{ Seuss.Config.default with Seuss.Config.cache_idle_ucs = false }
    (fun env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"{}"));
      let m = env.Seuss.Osenv.metrics in
      let cow0 = Obs.Metrics.sum_counters m "mem_cow_faults_total" in
      let events = ref 0 and pages = ref 0 in
      Obs.Log.subscribe env.Seuss.Osenv.log (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Cow_fault { pages = n; _ } ->
              incr events;
              pages := !pages + n
          | _ -> ());
      let _, path = expect_ok (N.invoke node nop_fn ~args:"{}") in
      Alcotest.(check bool) "warm path" true (path = N.Warm);
      let cow = Obs.Metrics.sum_counters m "mem_cow_faults_total" - cow0 in
      Alcotest.(check bool) "the warm run copied pages" true (cow > 0);
      Alcotest.(check int) "event pages sum to the counter delta" cow !pages;
      Alcotest.(check bool)
        (Printf.sprintf "fewer than 10 cow_fault events (%d)" !events)
        true
        (!events > 0 && !events < 10))

let test_prefault_off_is_inert () =
  with_node
    ~config:{ Seuss.Config.default with Seuss.Config.cache_idle_ucs = false }
    (fun env node ->
      ignore (expect_ok (N.invoke node nop_fn ~args:"{}"));
      ignore (expect_ok (N.invoke node nop_fn ~args:"{}"));
      ignore (expect_ok (N.invoke node nop_fn ~args:"{}"));
      (match N.function_snapshot node "nop" with
      | Some snap ->
          Alcotest.(check bool) "no working set recorded" true
            (Seuss.Snapshot.working_set snap = None)
      | None -> Alcotest.fail "no function snapshot");
      Alcotest.(check bool) "no ws events emitted" true
        (not
           (List.exists
              (fun r ->
                match r.Obs.Log.ev with
                | Obs.Event.Ws_record _ | Obs.Event.Ws_prefault _ -> true
                | _ -> false)
              (Obs.Log.records env.Seuss.Osenv.log))))

(* {1 seussprof: timeline sampler, explicit trace capture, ring drops} *)

let invoke_k node k =
  ignore
    (N.invoke node
       (fn
          ~id:(Printf.sprintf "fn-%d" k)
          (Printf.sprintf "function main(args) { return {fn: %d}; }" k))
       ~args:"{}")

(* The sampler records gauges while the workload runs, then terminates
   itself once the engine drains — Sim.Engine.run returning at all is
   the quiescence half of the assertion. *)
let test_timeline_sampler_emits_and_quiesces () =
  let engine = Sim.Engine.create ~seed:11L () in
  let env = Seuss.Osenv.create ~budget_bytes:(gib 8) engine in
  let read = ref (fun () -> []) in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let node = N.create env in
      N.start node;
      read := Seuss.Timeline.start ~period:0.05 node;
      for k = 0 to 5 do
        invoke_k node (k mod 2);
        Sim.Engine.sleep 0.1
      done);
  Sim.Engine.run engine;
  let samples = !read () in
  Alcotest.(check bool) "samples recorded" true (List.length samples > 2);
  List.iter
    (fun (s : Seuss.Timeline.sample) ->
      Alcotest.(check bool) "free bytes positive" true (s.free_bytes > 0L);
      Alcotest.(check bool) "gauges non-negative" true
        (s.run_queue >= 0 && s.in_flight >= 0 && s.idle_ucs >= 0
       && s.cached_snapshots >= 0 && s.stuck_waiters >= 0))
    samples;
  let times = List.map (fun (s : Seuss.Timeline.sample) -> s.time) samples in
  Alcotest.(check bool) "sample times strictly increase" true
    (List.for_all2 ( < ) times (List.tl times @ [ infinity ]));
  let rendering = Seuss.Timeline.render samples in
  Alcotest.(check bool) "render draws both canvases" true
    (String.length rendering > 0)

(* Overwrite every event the ring holds. *)
let flood_ring env =
  for _ = 1 to Obs.Log.default_capacity do
    Seuss.Osenv.emit env (Obs.Event.Oom_wake { free_bytes = 0L })
  done

(* The sampler keeps its own samples, so a ring that dropped all of the
   run's events loses none of the timeline: every period from the
   first on is there. *)
let test_timeline_survives_ring_eviction () =
  let period = 0.05 in
  let engine = Sim.Engine.create ~seed:11L () in
  let env = Seuss.Osenv.create ~budget_bytes:(gib 8) engine in
  let read = ref (fun () -> []) and started = ref 0.0 in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let node = N.create env in
      N.start node;
      started := Sim.Engine.now engine;
      read := Seuss.Timeline.start ~period node;
      for k = 0 to 39 do
        invoke_k node (k mod 3);
        Sim.Engine.sleep period
      done;
      flood_ring env);
  Sim.Engine.run engine;
  Alcotest.(check bool) "the ring overflowed" true
    (Obs.Log.dropped env.Seuss.Osenv.log > 0);
  let times = List.map (fun (s : Seuss.Timeline.sample) -> s.time) (!read ()) in
  Alcotest.(check bool) "at least 30 periods sampled" true
    (List.length times >= 30);
  let close a b = Float.abs (a -. b) < 1e-9 in
  (match times with
  | first :: _ ->
      Alcotest.(check bool) "first sample lands one period in" true
        (close first (!started +. period))
  | [] -> Alcotest.fail "no samples");
  let rec check_gaps = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "times strictly increase" true (a < b);
        Alcotest.(check bool) "no period missing" true (close (b -. a) period);
        check_gaps rest
    | _ -> ()
  in
  check_gaps times

(* The sampler writes nothing to the event log: a sampled run's JSONL
   equals a plain run's. *)
let test_timeline_leaves_log_untouched () =
  let run ~sampled =
    with_node (fun env node ->
        let read =
          if sampled then Seuss.Timeline.start ~period:0.05 node
          else fun () -> []
        in
        for k = 0 to 5 do
          invoke_k node k
        done;
        (Obs.Log.to_jsonl env.Seuss.Osenv.log, read))
  in
  let plain, _ = run ~sampled:false in
  let sampled, read = run ~sampled:true in
  Alcotest.(check bool) "the sampler ran" true (read () <> []);
  Alcotest.(check string) "same log" plain sampled

(* Span capture is the caller's: a context started around Node.invoke
   records that call's span tree, which exports as a Chrome document. *)
let test_chrome_export_of_traced_calls () =
  let traces =
    with_node (fun env node ->
        List.map
          (fun k ->
            let tr = Sim.Trace.start_ctx env.Seuss.Osenv.engine in
            invoke_k node k;
            (Printf.sprintf "fn-%d" k, Sim.Trace.stop_ctx tr))
          [ 1; 2; 1 ])
  in
  List.iter
    (fun (_, spans) ->
      match spans with
      | root :: _ ->
          (* The root span is the invocation wrapper, parentless. *)
          Alcotest.(check bool) "root is the invocation" true
            (String.starts_with ~prefix:"node.invoke " root.Sim.Trace.name);
          Alcotest.(check (option int)) "root has no parent" None
            root.Sim.Trace.parent
      | [] -> Alcotest.fail "span tree empty")
    traces;
  (* The export path the CLI uses: traces encode to a Chrome document
     that parses and carries the required fields. *)
  match Obs.Json.of_string (Seuss.Traceout.chrome_string traces) with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok (Obs.Json.Obj kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Obs.Json.List rows) ->
          Alcotest.(check bool) "has rows" true (List.length rows > 0);
          List.iter
            (fun row ->
              match row with
              | Obs.Json.Obj fields ->
                  List.iter
                    (fun key ->
                      if not (List.mem_assoc key fields) then
                        Alcotest.failf "row lost required field %s" key)
                    [ "name"; "ph"; "ts"; "pid" ]
              | _ -> Alcotest.fail "row is not an object")
            rows
      | _ -> Alcotest.fail "no traceEvents")
  | Ok _ -> Alcotest.fail "chrome document is not an object"

(* Ring evictions are first-class: the log counts exactly what the ring
   dropped, so dashboards can warn instead of silently reading a
   truncated log. *)
let test_ring_drops_surface_in_metrics () =
  let engine = Sim.Engine.create ~seed:11L () in
  let env = Seuss.Osenv.create ~budget_bytes:(gib 8) engine in
  let run_events = ref 0 in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let node = N.create env in
      N.start node;
      for k = 1 to 8 do
        invoke_k node k
      done;
      run_events := Obs.Log.emitted env.Seuss.Osenv.log;
      flood_ring env);
  Sim.Engine.run engine;
  let log = env.Seuss.Osenv.log in
  Alcotest.(check bool) "the run emitted events" true (!run_events > 0);
  Alcotest.(check int) "the ring dropped exactly the run's events"
    !run_events (Obs.Log.dropped log)

(* {1 Ownership census (SEUSS_CHECK)} *)

(* A small mixed workload (cold + hot per function), optionally followed
   by a deliberately leaked UC: deployed from the base snapshot and then
   dropped on the floor — never destroyed, never cached. *)
let census_workload node ~leak =
  N.start node;
  for k = 1 to 3 do
    let f =
      fn ~id:(Printf.sprintf "own-%d" k) "function main(args) { return {}; }"
    in
    ignore (expect_ok (N.invoke node f ~args:"{}"));
    ignore (expect_ok (N.invoke node f ~args:"{}"))
  done;
  if leak then
    match N.base_snapshot node Unikernel.Image.Node with
    | Some base -> ignore (Seuss.Uc.deploy (N.env node) base)
    | None -> Alcotest.fail "no base snapshot to leak from"

(* [census_workload] on a plain [N.create] node: nothing but the engine
   arms its census. *)
let census_run ~check ~leak =
  let engine = Sim.Engine.create ~seed:11L ~check () in
  let env = Seuss.Osenv.create ~budget_bytes:(gib 8) engine in
  let node_ref = ref None in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      let node = N.create env in
      node_ref := Some node;
      census_workload node ~leak);
  Sim.Engine.run engine;
  let leaks = List.map snd (N.leaks engine) in
  let node =
    match !node_ref with
    | Some n -> n
    | None -> Alcotest.fail "simulation did not complete"
  in
  let san_leaks =
    List.filter
      (fun (r : Obs.Log.record) ->
        match r.Obs.Log.ev with Obs.Event.San_leak _ -> true | _ -> false)
      (Obs.Log.records env.Seuss.Osenv.log)
  in
  (node, leaks, san_leaks)

let test_census_clean_when_armed () =
  let node, leaks, san_leaks = census_run ~check:true ~leak:false in
  Alcotest.(check int) "no leak callbacks" 0 (List.length leaks);
  Alcotest.(check int) "no San_leak events" 0 (List.length san_leaks);
  (* The census itself agrees at quiescence: the node's caches account
     for every frame, snapshot reference, pin window and UC. *)
  let c = N.census node in
  Alcotest.(check bool) "census all-zero" true (N.census_clean c);
  Alcotest.(check int) "no pin window left open" 0 c.N.pinned_windows

let test_census_detects_planted_leak () =
  let _node, leaks, san_leaks = census_run ~check:true ~leak:true in
  (match leaks with
  | [ c ] ->
      Alcotest.(check int) "exactly the dropped UC" 1 c.N.leaked_ucs;
      Alcotest.(check bool) "its base reference is unaccounted" true
        (c.N.snapshot_ref_mismatch >= 1)
  | l -> Alcotest.failf "expected one leak callback, got %d" (List.length l));
  match san_leaks with
  | [ { Obs.Log.ev = Obs.Event.San_leak { node; ucs; _ }; _ } ] ->
      Alcotest.(check string) "event names the node" "node0" node;
      Alcotest.(check int) "event carries the UC count" 1 ucs
  | l -> Alcotest.failf "expected one San_leak event, got %d" (List.length l)

(* Experiments read their arming from the environment at the harness
   boundary. The prior value comes back after [f] ("" reads as unset:
   Unix offers no unsetenv), so a suite run checked stays checked. *)
let with_check_env value f =
  let prior = Option.value (Sys.getenv_opt "SEUSS_CHECK") ~default:"" in
  Unix.putenv "SEUSS_CHECK" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "SEUSS_CHECK" prior) f

let test_experiments_zero_leaks_armed () =
  (* Every shipped experiment finishes with all resources accounted for:
     armed runs report an empty leak list for each node they spin up. *)
  with_check_env "1" (fun () ->
      let check_run name run =
        ignore (run ());
        Alcotest.(check int)
          (name ^ ": no leaked resources")
          0
          (List.length (Experiments.Harness.last_leaked_resources ()))
      in
      check_run "fig4" (fun () ->
          Experiments.Fig4.run ~set_sizes:[ 16 ] ~client_threads:8 ~seed:7L ());
      check_run "chaos" (fun () ->
          Experiments.Fig_chaos.run ~nodes:2 ~functions:5 ~calls:20
            ~rates:[ 0.0; 0.05 ] ~seed:7L ());
      check_run "reap" (fun () ->
          Experiments.Fig_reap.run ~functions:4 ~rounds:5 ~seed:7L ()))

(* SEUSS_CHECK reaches the engine only through the harness, and arms
   every checker there: a run that races on a cell, strands a reader
   and leaks a UC reports all three. Every off spelling reports none of
   them, as if the variable were unset. *)
let test_check_arms_every_checker () =
  let module H = Experiments.Harness in
  let findings value =
    match Experiments.Run_config.parse [ ("SEUSS_CHECK", value) ] with
    | Error e -> Alcotest.fail e
    | Ok run ->
        H.with_run run (fun () ->
            let engine =
              H.run_sim (fun engine ->
                  let cell = Sim.Hb.cell ~name:"arming.cell" in
                  Sim.Engine.spawn engine (fun () -> Sim.Hb.write cell);
                  Sim.Engine.spawn engine (fun () -> Sim.Hb.write cell);
                  Sim.Engine.spawn engine ~name:"forgotten" (fun () ->
                      Sim.Ivar.read (Sim.Ivar.create ()));
                  census_workload (N.create (H.make_seuss_env engine))
                    ~leak:true;
                  engine)
            in
            ( Sim.Hb.race_count engine,
              List.map (fun s -> s.Sim.Engine.proc) (H.last_stranded_waiters ()),
              List.map fst (H.last_leaked_resources ()) ))
  in
  let report = Alcotest.(triple int (list string) (list string)) in
  Alcotest.check report "SEUSS_CHECK=1: race, stranded reader, leak"
    (1, [ "forgotten" ], [ "node0" ])
    (findings "1");
  List.iter
    (fun off ->
      Alcotest.check report
        (Printf.sprintf "SEUSS_CHECK=%S arms nothing" off)
        (0, [], []) (findings off))
    [ ""; "0"; "off"; "false"; "no" ]

let test_census_covers_plain_nodes () =
  (* A node built with a plain [Seuss.Node.create] inside an armed run,
     with no call to arm anything: the census still reports its leak,
     and names it by creation order on its own engine, so the second
     run reports the same name as the first. *)
  let module H = Experiments.Harness in
  let run () =
    H.with_run { Experiments.Run_config.default with check = true } (fun () ->
        H.run_sim (fun engine ->
            ignore (N.create (Seuss.Osenv.create ~budget_bytes:(gib 8) engine));
            census_workload (N.create (H.make_seuss_env engine)) ~leak:true);
        H.last_leaked_resources ())
  in
  List.iter
    (fun leaks ->
      match leaks with
      | [ (name, c) ] ->
          Alcotest.(check string) "the leaking node, by creation order"
            "node1" name;
          Alcotest.(check int) "exactly the dropped UC" 1 c.N.leaked_ucs
      | l -> Alcotest.failf "expected one leak report, got %d" (List.length l))
    [ run (); run () ]

(* [body] on a harness-built node with the census armed; its result and
   the census's leak reports. *)
let with_armed_census ?budget_bytes body =
  let module H = Experiments.Harness in
  H.with_run { Experiments.Run_config.default with check = true } (fun () ->
      let v =
        H.run_sim (fun engine ->
            body (H.seuss_node (H.make_seuss_env ?budget_bytes engine)))
      in
      (v, List.map fst (H.last_leaked_resources ())))

let test_census_errored_uc_released () =
  (* A failed call leaves its UC as [last_uc], which the census counts
     as held; the next call replaces it, so the errored UC is accounted
     for only if [finish] destroyed it. *)
  let (), leaks =
    with_armed_census (fun node ->
        (match
           N.invoke node
             (fn ~id:"boom" "function main(args) { return 1 / 0; }")
             ~args:"null"
         with
        | Error (`Runtime_error _), _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
        ignore (expect_ok (N.invoke node nop_fn ~args:"null")))
  in
  Alcotest.(check (list string)) "no leaked resources" [] leaks

let test_census_errored_only_call_released () =
  (* The same failed call, alone: its UC is the last one served when the
     run ends, and the census must not count it as held. *)
  let (), leaks =
    with_armed_census (fun node ->
        match
          N.invoke node
            (fn ~id:"boom" "function main(args) { return 1 / 0; }")
            ~args:"null"
        with
        | Error (`Runtime_error _), _ -> ()
        | _ -> Alcotest.fail "expected runtime error")
  in
  Alcotest.(check (list string)) "no leaked resources" [] leaks

let test_census_destroyed_guests_end () =
  (* 200 UCs deployed and destroyed: half of them served a request
     first, so their guests are parked on a connection when destroyed,
     the rest in accept. Each guest process must end with its UC. *)
  let env, leaks =
    with_armed_census (fun node ->
        let env = N.env node in
        let base =
          match N.base_snapshot node Unikernel.Image.Node with
          | Some b -> b
          | None -> Alcotest.fail "no base snapshot"
        in
        for i = 1 to 200 do
          let uc = Seuss.Uc.deploy env base in
          if i mod 2 = 0 then begin
            Alcotest.(check bool) "connects" true (Seuss.Uc.connect uc);
            match Seuss.Uc.request uc Unikernel.Driver.Ping ~timeout:10.0 with
            | Ok Unikernel.Driver.Pong -> ()
            | _ -> Alcotest.fail "ping"
          end;
          Seuss.Uc.destroy uc
        done;
        env)
  in
  Alcotest.(check (list string)) "no leaked resources" [] leaks;
  Alcotest.(check int) "every guest process ended" 0
    env.Seuss.Osenv.orphan_guests

let test_census_compile_oom_released () =
  (* Compiling allocates 4 bytes of guest heap per source byte: on a
     node with ~13 MiB free after startup, a 4 MiB comment runs the
     guest out of frames before it reaches its compile breakpoint. The
     cold path times out, destroys the dead UC, and the next call is
     served from the memory it freed. *)
  let padded =
    fn ~id:"padded"
      ("function main(args) { return {}; } /*"
      ^ String.make (Mem.Mconfig.mib 4) 'x'
      ^ "*/")
  in
  let (), leaks =
    with_armed_census
      ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 128))
      (fun node ->
        (match N.invoke node padded ~args:"null" with
        | Error `Timeout, N.Cold -> ()
        | _ -> Alcotest.fail "expected a cold-path timeout");
        ignore (expect_ok (N.invoke node nop_fn ~args:"null")))
  in
  Alcotest.(check (list string)) "no leaked resources" [] leaks

let test_census_unarmed_is_silent () =
  (* Same planted leak, census unarmed: nothing observes, nothing emits —
     the hook must be observation-only. *)
  let node, leaks, san_leaks = census_run ~check:false ~leak:true in
  Alcotest.(check int) "no leak callbacks" 0 (List.length leaks);
  Alcotest.(check int) "no San_leak events" 0 (List.length san_leaks);
  (* The leak is still there — only the armed run reports it. *)
  let c = N.census node in
  Alcotest.(check int) "census (queried directly) still sees it" 1
    c.N.leaked_ucs

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "seuss"
    [
      ( "startup",
        [
          case "base snapshot" test_start_builds_base_snapshot;
          case "ao grows base" test_ao_grows_base_snapshot;
        ] );
      ( "paths",
        [
          case "cold warm hot" test_cold_then_warm_then_hot;
          case "fn snapshot cached once" test_function_snapshot_cached_once;
          case "functions isolated" test_distinct_functions_isolated;
          case "compile error" test_compile_error_reported;
          case "runtime error" test_runtime_error_reported;
          case "args flow" test_args_flow_through;
        ] );
      ( "ao",
        [
          case "latency ladder" test_ao_latency_ladder;
          case "fn snapshot shrinks" test_ao_shrinks_function_snapshot;
        ] );
      ( "snapshots",
        [
          case "dependents" test_snapshot_dependents;
          case "deploy references" test_uc_deploy_references_snapshot;
          case "deleted rejected" test_deleted_snapshot_rejected;
          case "sharing example" test_snapshot_sharing_example;
          case "template drops capturing guest"
            test_template_drops_capturing_guest;
        ] );
      ( "memory",
        [
          case "idle footprint" test_idle_uc_footprint_small;
          case "oom reclaim" test_oom_reclaims_idle_ucs;
          case "caches disabled" test_cache_disabled_config;
          case "warm cow events per range" test_warm_cow_events_per_range;
        ] );
      ( "runtimes",
        [
          case "python" test_python_runtime;
          case "missing runtime" test_missing_runtime_errors;
        ] );
      ( "snapshot_cache",
        [
          case "eviction respects dependents" test_eviction_respects_dependents;
        ] );
      ( "stress",
        [
          QCheck_alcotest.to_alcotest node_stress;
          QCheck_alcotest.to_alcotest snapshot_stack_conservation;
          case "hot footprint bounded" test_hot_footprint_bounded;
        ] );
      ( "concurrency",
        [ case "cold stampede" test_concurrent_cold_same_function ] );
      ( "failures",
        [
          case "invoke timeout recovers" test_invoke_timeout_recovers;
          case "uc destroyed under connection" test_uc_destroyed_under_connection;
          case "guest oom surfaces" test_guest_oom_surfaces_as_error;
        ] );
      ( "drain",
        [
          case "dead uc destroy releases" test_dead_uc_destroy_releases;
          case "shutdown drains frames" test_node_shutdown_drains_frames;
        ] );
      ( "prefault",
        [
          case "ws recorded then prefaulted" test_ws_recorded_then_prefaulted;
          case "off is inert" test_prefault_off_is_inert;
        ] );
      ( "shim",
        [
          case "adds round trip" test_shim_adds_round_trip;
          case "serializes" test_shim_serializes;
        ] );
      ( "census",
        [
          case "armed clean run is all-zero" test_census_clean_when_armed;
          case "planted leak detected" test_census_detects_planted_leak;
          case "unarmed census is silent" test_census_unarmed_is_silent;
          case "errored call's UC released" test_census_errored_uc_released;
          case "compile OOM's UC released" test_census_compile_oom_released;
          case "errored only call's UC released"
            test_census_errored_only_call_released;
          case "destroyed UCs' guests end" test_census_destroyed_guests_end;
          case "covers a node built outside the harness"
            test_census_covers_plain_nodes;
          case "shipped experiments leak-free armed"
            test_experiments_zero_leaks_armed;
          case "SEUSS_CHECK arms every checker" test_check_arms_every_checker;
        ] );
      ( "seussprof",
        [
          case "timeline sampler emits and quiesces"
            test_timeline_sampler_emits_and_quiesces;
          case "timeline survives ring eviction"
            test_timeline_survives_ring_eviction;
          case "timeline leaves the log untouched"
            test_timeline_leaves_log_untouched;
          case "chrome export of traced calls" test_chrome_export_of_traced_calls;
          case "ring drops surface in metrics" test_ring_drops_surface_in_metrics;
        ] );
    ]
